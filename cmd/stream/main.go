// Command stream generates, replays and drives open-world arrival
// streams (see internal/stream). Three modes:
//
//	generate — expand a seeded arrival-process spec into a replayable
//	           JSONL trace and print its content hash:
//
//	  stream -mode generate -process bursty -rate 8 -duration 30s \
//	      -seed 7 -o trace.jsonl
//
//	drive    — replay a trace (or an inline spec) against an in-process
//	           qosd decision loop and print the per-tenant SLO report
//	           as JSON (admit rate, own-goal misses vs collateral
//	           rejects, time-to-verdict percentiles):
//
//	  stream -mode drive -trace trace.jsonl -scheme rollover -window 50000
//	  stream -mode drive -process poisson -rate 4 -duration 20s -csv
//
//	replay   — drive a trace against a live daemon's /v1 (or, with
//	           -v2, fractional-GPU /v2) HTTP API, optionally paced in
//	           wall-clock time:
//
//	  stream -mode replay -trace trace.jsonl -target http://localhost:8715 -pace 1
//
// Tenants default to the built-in four-tenant open-world mix (LLM
// serving under a p99 latency SLO, periodic real-time detection,
// fraction-goal batch, best-effort background); -tenants FILE loads a
// JSON array of tenant specs instead. Every report embeds the trace's
// SHA-256 so results are bound to the exact traffic they were measured
// under.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/workloads"
)

type options struct {
	mode string

	// Generation spec (generate, and drive/replay without -trace).
	process    string
	rate       float64
	duration   time.Duration
	seed       uint64
	tenants    string
	out        string
	diurnalAmp float64
	burstX     float64

	// Trace input (drive, replay).
	trace string

	// drive: in-process daemon knobs.
	schemeName string
	window     int64
	scale      bool
	mix        int
	fastPath   bool
	journal    string
	csvOut     bool

	// replay: live-daemon target.
	target string
	v2     bool
	pace   float64
}

func main() {
	var o options
	flag.StringVar(&o.mode, "mode", "drive", "generate | drive | replay")
	flag.StringVar(&o.process, "process", stream.ProcessPoisson, "arrival process: poisson | diurnal | bursty")
	flag.Float64Var(&o.rate, "rate", 4, "mean arrivals per second")
	flag.DurationVar(&o.duration, "duration", 30*time.Second, "trace length (virtual time)")
	flag.Uint64Var(&o.seed, "seed", workloads.Seed, "generation seed (same spec+seed = same bytes)")
	flag.StringVar(&o.tenants, "tenants", "", "JSON file with the tenant mix (default: built-in open-world mix)")
	flag.StringVar(&o.out, "o", "trace.jsonl", "output path for -mode generate")
	flag.Float64Var(&o.diurnalAmp, "diurnal-amp", 0, "diurnal sinusoid amplitude in (0,1] (0 = default)")
	flag.Float64Var(&o.burstX, "burst-factor", 0, "bursty state rate multiplier (0 = default)")
	flag.StringVar(&o.trace, "trace", "", "replay this trace file instead of generating one")
	flag.StringVar(&o.schemeName, "scheme", "rollover", "QoS scheme (drive)")
	flag.Int64Var(&o.window, "window", 50_000, "measurement window in cycles per what-if run (drive)")
	flag.BoolVar(&o.scale, "scale56", false, "use the 56-SM configuration (drive)")
	flag.IntVar(&o.mix, "mix", 3, "admitted-mix capacity: the daemon's MaxMix (drive), or the target's -mix (replay)")
	flag.BoolVar(&o.fastPath, "fast-path", true, "tiered decision path (drive)")
	flag.StringVar(&o.journal, "journal", "", "decision journal path (drive)")
	flag.BoolVar(&o.csvOut, "csv", false, "emit the report as CSV instead of JSON")
	flag.StringVar(&o.target, "target", "http://localhost:8715", "daemon base URL (replay)")
	flag.BoolVar(&o.v2, "v2", false, "submit through the fractional-GPU /v2 API (replay)")
	flag.Float64Var(&o.pace, "pace", 0, "wall-clock pacing: 1 = real time, 2 = 2x speed, 0 = back-to-back")
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stream:", err)
		os.Exit(1)
	}
}

// loadOrGenerate resolves the trace: -trace reads a committed file,
// otherwise the generation flags are expanded on the spot.
func loadOrGenerate(o options) (*stream.Trace, error) {
	if o.trace != "" {
		return stream.ReadFile(o.trace)
	}
	tenants := stream.DefaultTenants()
	if o.tenants != "" {
		b, err := os.ReadFile(o.tenants)
		if err != nil {
			return nil, err
		}
		tenants = nil
		if err := json.Unmarshal(b, &tenants); err != nil {
			return nil, fmt.Errorf("%s: %w", o.tenants, err)
		}
	}
	return stream.Generate(stream.GenSpec{
		Process:     o.process,
		RatePerSec:  o.rate,
		DurationMs:  o.duration.Milliseconds(),
		Seed:        o.seed,
		Tenants:     tenants,
		DiurnalAmp:  o.diurnalAmp,
		BurstFactor: o.burstX,
	})
}

func emit(w io.Writer, o options, tr *stream.Trace, rep *stream.Report) error {
	if o.csvOut {
		cw := csv.NewWriter(w)
		if err := cw.Write(stream.CSVHeader()); err != nil {
			return err
		}
		if err := cw.WriteAll(stream.CSVRows(rep, tr.Spec)); err != nil {
			return err
		}
		cw.Flush()
		return cw.Error()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func run(o options, stdout io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch o.mode {
	case "generate":
		tr, err := loadOrGenerate(o)
		if err != nil {
			return err
		}
		if err := tr.WriteFile(o.out); err != nil {
			return err
		}
		hash, err := tr.Hash()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: %d arrivals over %s (%s), sha256 %s\n",
			o.out, len(tr.Events), o.duration, tr.Spec.Process, hash)
		return nil

	case "drive":
		tr, err := loadOrGenerate(o)
		if err != nil {
			return err
		}
		scheme, err := core.ParseScheme(o.schemeName)
		if err != nil {
			return err
		}
		gpu := config.Base()
		if o.scale {
			gpu = config.Scale56()
		}
		runner, err := exp.NewRunner(1, exp.WithSessionOptions(core.WithGPU(gpu), core.WithWindow(o.window)))
		if err != nil {
			return err
		}
		srv, err := server.New(server.Config{
			Runner:      runner,
			Scheme:      scheme,
			MaxMix:      o.mix,
			JournalPath: o.journal,
			FastPath:    o.fastPath,
			EvalTimeout: 2 * time.Minute,
		})
		if err != nil {
			return err
		}
		d := &stream.Driver{
			Backend:  stream.ServerBackend{Server: srv},
			Registry: srv.Registry(),
			Pace:     o.pace,
			MixSlots: o.mix,
		}
		rep, err := d.Run(ctx, tr)
		if err != nil {
			return err
		}
		shCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			return err
		}
		return emit(stdout, o, tr, rep)

	case "replay":
		tr, err := loadOrGenerate(o)
		if err != nil {
			return err
		}
		// MixSlots mirrors the target daemon's -mix so the driver advances
		// virtual time to the next release instead of wedging the serial
		// replay against a full mix.
		d := &stream.Driver{
			Backend:  &stream.HTTPBackend{BaseURL: o.target, V2: o.v2},
			Pace:     o.pace,
			MixSlots: o.mix,
		}
		rep, err := d.Run(ctx, tr)
		if err != nil {
			return err
		}
		return emit(stdout, o, tr, rep)

	default:
		return fmt.Errorf("unknown mode %q (want generate, drive or replay)", o.mode)
	}
}
