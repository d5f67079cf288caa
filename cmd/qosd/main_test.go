package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/exp"
	"repro/internal/server"
)

// TestPprofOnlyOnItsOwnListener: -pprof serves the profiler on its own
// listener, and the API handler does not serve it.
func TestPprofOnlyOnItsOwnListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer servePprof(ln).Close()
	r, err := exp.NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Runner: r})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	api := httptest.NewServer(srv.Handler())
	defer api.Close()

	for _, c := range []struct {
		url  string
		want int
	}{
		{"http://" + ln.Addr().String() + "/debug/pprof/cmdline", http.StatusOK},
		{api.URL + "/debug/pprof/cmdline", http.StatusNotFound},
	} {
		resp, err := http.Get(c.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("GET %s = %d, want %d", c.url, resp.StatusCode, c.want)
		}
	}
}
