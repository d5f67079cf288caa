// Command qosd serves the QoS simulator as an admission-control daemon.
// Clients POST kernel specs with QoS goals (fractional, absolute IPC, or
// application deadlines) to /v1/jobs; the daemon runs a what-if co-run
// of the currently admitted mix plus the candidate and admits the kernel
// only when every QoS goal of the resulting mix is predicted to hold.
// Decisions are serial, so the daemon simulates on one session per
// device. A what-if that panics or outlives -job-timeout fails its job,
// on /v1 and /v2 alike, and the daemon keeps serving. Admitted jobs
// occupy a mix slot until released with DELETE /v1/jobs/{id}.
//
// SIGTERM/SIGINT drains gracefully: new submissions get 503, queued jobs
// still receive verdicts, then the listener closes. With -journal every
// decision is logged crash-safely and a restarted daemon re-admits the
// mix it had accepted.
//
// Usage:
//
//	qosd -addr :8715
//	qosd -addr :8715 -scheme rollover -mix 3 -journal qosd.log
//
//	curl -s localhost:8715/v1/jobs -d '{"kernel":{"workload":"sgemm","goal_frac":0.95}}'
//	curl -s 'localhost:8715/v1/jobs/job-000001?wait=1'
//	curl -s 'localhost:8715/v1/jobs?wait=1' -d '{"kernel":{"workload":"lbm"}}'   # submit + wait, one request
//	curl -N localhost:8715/v1/jobs/job-000001/events
//	curl -s -X DELETE localhost:8715/v1/jobs/job-000001
//	curl -s localhost:8715/v1/verdicts/stats
//	curl -s localhost:8715/metrics
//
// The fast path (-fast-path, on by default) answers a repeat mix from an
// exact verdict cache; every other mix is simulated.
//
// With -fleet the daemon additionally serves the /v2 fractional-GPU
// API: a registry of N simulated nodes (comma-separated device names,
// e.g. -fleet base,base,scale56) behind a deterministic bin-packing
// placement scheduler with per-node cached admission and a
// repartitioning fallback:
//
//	qosd -addr :8715 -fleet base,base -fleet-journal fleetdir
//	curl -s localhost:8715/v2/jobs -d '{"workload":"sgemm","gpu_fraction":0.5,"goal":0.5}'
//	curl -s 'localhost:8715/v2/jobs?wait=1' -d '{"workload":"lbm","gpu_fraction":0.25}'
//	curl -s localhost:8715/v2/nodes
//	curl -s localhost:8715/v2/placements
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/workloads"
)

// options carries the parsed command line.
type options struct {
	addr        string
	schemeName  string
	window      int64
	scale       bool
	mix         int
	queue       int
	jobTimeout  time.Duration
	journalPath string
	drainWait   time.Duration
	fastPath    bool
	cacheSize   int
	stallAfter  time.Duration
	fleetNodes  string
	fleetJnlDir string
	fleetMix    int
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "localhost:8715", "listen address")
	flag.StringVar(&o.schemeName, "scheme", "rollover", "QoS scheme evaluations run under")
	flag.Int64Var(&o.window, "window", 200_000, "measurement window in cycles per what-if run")
	flag.BoolVar(&o.scale, "scale56", false, "use the 56-SM configuration")
	flag.IntVar(&o.mix, "mix", 3, "max concurrently admitted kernels")
	flag.IntVar(&o.queue, "queue", 16, "max queued admission decisions before 429")
	flag.DurationVar(&o.jobTimeout, "job-timeout", 2*time.Minute, "per-evaluation deadline on /v1 and /v2; a what-if past it fails its job (0 = none)")
	flag.StringVar(&o.journalPath, "journal", "", "crash-safe job log (restores the admitted mix on restart)")
	flag.DurationVar(&o.drainWait, "drain-wait", 30*time.Second, "graceful drain budget on SIGTERM")
	flag.BoolVar(&o.fastPath, "fast-path", true, "answer repeat mixes from the exact verdict cache instead of simulating them again")
	flag.IntVar(&o.cacheSize, "verdict-cache", server.DefaultVerdictCacheSize, "exact verdict cache capacity")
	flag.DurationVar(&o.stallAfter, "stall-after", 0, "decision-loop liveness threshold: /healthz reports decision_loop_stalled (503) when one decision is in flight longer than this; must exceed -job-timeout (0 = 2x -job-timeout)")
	flag.StringVar(&o.fleetNodes, "fleet", "", "serve the /v2 fleet API over these nodes: comma-separated device names (base|scale56), e.g. base,base,scale56")
	flag.StringVar(&o.fleetJnlDir, "fleet-journal", "", "fleet journal directory (per-node decision journals + placement journal); requires -fleet")
	flag.IntVar(&o.fleetMix, "fleet-mix", 0, "max concurrently placed kernels per fleet node (0 = fleet default)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "qosd:", err)
		os.Exit(1)
	}
}

// buildFleet assembles the optional /v2 fleet from the -fleet node
// list. Each comma-separated token names a device configuration.
func buildFleet(o options, scheme core.Scheme) (*fleet.Fleet, error) {
	if o.fleetNodes == "" {
		if o.fleetJnlDir != "" {
			return nil, errors.New("-fleet-journal requires -fleet")
		}
		return nil, nil
	}
	var nodes []fleet.NodeSpec
	for _, tok := range strings.Split(o.fleetNodes, ",") {
		name := strings.ToLower(strings.TrimSpace(tok))
		switch name {
		case "base":
			nodes = append(nodes, fleet.NodeSpec{Name: name, GPU: config.Base()})
		case "scale56":
			nodes = append(nodes, fleet.NodeSpec{Name: name, GPU: config.Scale56()})
		default:
			return nil, fmt.Errorf("-fleet: unknown device %q (want base or scale56)", tok)
		}
	}
	return fleet.New(fleet.Config{
		Nodes:            nodes,
		Scheme:           scheme,
		Window:           o.window,
		Seed:             workloads.Seed,
		MaxMixPerNode:    o.fleetMix,
		QueueDepth:       o.queue,
		FastPath:         o.fastPath,
		VerdictCacheSize: o.cacheSize,
		JournalDir:       o.fleetJnlDir,
		EvalTimeout:      o.jobTimeout,
	})
}

func run(o options) error {
	scheme, err := core.ParseScheme(o.schemeName)
	if err != nil {
		return err
	}
	cfg := config.Base()
	if o.scale {
		cfg = config.Scale56()
	}
	runner, err := exp.NewRunner(1, exp.WithSessionOptions(core.WithGPU(cfg), core.WithWindow(o.window)))
	if err != nil {
		return err
	}
	fl, err := buildFleet(o, scheme)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Runner:           runner,
		Scheme:           scheme,
		MaxMix:           o.mix,
		QueueDepth:       o.queue,
		JournalPath:      o.journalPath,
		FastPath:         o.fastPath,
		VerdictCacheSize: o.cacheSize,
		EvalTimeout:      o.jobTimeout,
		StallAfter:       o.stallAfter,
		Fleet:            fl,
	})
	if err != nil {
		return err
	}

	hs := &http.Server{Addr: o.addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		fast := "off"
		if o.fastPath {
			fast = "cache"
		}
		fleetInfo := ""
		if fl != nil {
			fleetInfo = fmt.Sprintf(", fleet %d nodes", len(fl.Nodes()))
		}
		fmt.Fprintf(os.Stderr, "qosd: serving on %s (scheme %s, mix %d, fast path %s%s)\n",
			o.addr, scheme.Name(), o.mix, fast, fleetInfo)
		errCh <- hs.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "qosd: draining (queued jobs still get verdicts)")
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainWait)
	defer cancel()
	derr := srv.Shutdown(drainCtx)
	herr := hs.Shutdown(drainCtx)
	if derr != nil {
		return fmt.Errorf("drain: %w", derr)
	}
	if herr != nil && !errors.Is(herr, http.ErrServerClosed) {
		return herr
	}
	fmt.Fprintln(os.Stderr, "qosd: drained")
	return nil
}
