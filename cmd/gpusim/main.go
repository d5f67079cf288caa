// Command gpusim runs a single isolated or shared simulation and prints
// detailed per-kernel statistics. It is the low-level inspection tool;
// cmd/qossim regenerates the paper's figures and cmd/sweep produces CSVs.
//
// Usage:
//
//	gpusim -kernels sgemm                        # isolated run (scheme none)
//	gpusim -kernels sgemm:0.8,lbm -scheme rollover
//	gpusim -kernels mri-q:0.5,lbm:0.4,sad -scheme spart -window 400000
//
// Each kernel is NAME[:GOALFRAC]; a goal fraction marks it as a QoS
// kernel with that share of its isolated IPC as the target. A lone kernel
// without a goal runs alone on the device under scheme none, so its IPC is
// its isolated IPC; -trace records that run like any other.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	var (
		kernels  = flag.String("kernels", "sgemm:0.8,lbm", "comma-separated NAME[:GOALFRAC] list")
		scheme   = flag.String("scheme", "rollover", core.SchemeNames("|"))
		window   = flag.Int64("window", 200_000, "measurement window in cycles")
		scale    = flag.Bool("scale56", false, "use the 56-SM configuration (Section 4.6)")
		list     = flag.Bool("list", false, "list available workloads and exit")
		timeout  = flag.Duration("timeout", 0, "wall-clock deadline for the whole run (0 = none)")
		tracePth = flag.String("trace", "", "write an event trace of the co-run to this file")
		traceFmt = flag.String("trace-format", "jsonl", "trace encoding: jsonl|chrome")
	)
	flag.Parse()

	if *list {
		for _, p := range workloads.Profiles() {
			fmt.Printf("%-14s %s\n", p.Name, p.Class)
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if err := run(ctx, os.Stdout, *kernels, *scheme, *window, *scale, *tracePth, *traceFmt); err != nil {
		fmt.Fprintln(os.Stderr, "gpusim:", err)
		os.Exit(1)
	}
}

func parseSpecs(s string) ([]core.KernelSpec, error) {
	var specs []core.KernelSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, goal, hasGoal := strings.Cut(part, ":")
		spec := core.KernelSpec{Workload: name}
		if hasGoal {
			frac, err := strconv.ParseFloat(goal, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: %q", core.ErrBadGoal, part)
			}
			spec.GoalFrac = frac
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no kernels given")
	}
	return specs, nil
}

func run(ctx context.Context, w io.Writer, kernels, schemeName string, window int64, scale bool, tracePath, traceFormat string) error {
	specs, err := parseSpecs(kernels)
	if err != nil {
		return err
	}
	scheme, err := core.ParseScheme(schemeName)
	if err != nil {
		return err
	}
	traceFmtVal, err := trace.ParseFormat(traceFormat)
	if err != nil {
		return err
	}
	cfg := config.Base()
	if scale {
		cfg = config.Scale56()
	}
	session, err := core.NewSession(core.WithGPU(cfg), core.WithWindow(window))
	if err != nil {
		return err
	}

	hasQoS := false
	for _, sp := range specs {
		if sp.GoalFrac > 0 || sp.GoalIPC > 0 {
			hasQoS = true
		}
	}
	if !hasQoS && scheme != core.SchemeNone {
		if len(specs) > 1 {
			return fmt.Errorf("scheme %v needs at least one kernel with a goal (NAME:FRAC)", scheme)
		}
		// A lone kernel without a goal shares the device with nothing.
		scheme = core.SchemeNone
	}

	var tr *trace.Tracer
	if tracePath != "" {
		tr = trace.New(trace.DefaultRingSize)
	}
	res, err := session.RunTraced(ctx, specs, scheme, tr)
	if err != nil {
		return err
	}
	if tracePath != "" {
		var buf bytes.Buffer
		err := trace.Export(&buf, tr, traceFmtVal)
		if err == nil {
			err = journal.WriteFile(tracePath, buf.Bytes())
		}
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events (%d dropped) -> %s\n",
			tr.Len(), tr.Dropped(), tracePath)
	}
	fmt.Fprintf(w, "scheme %v, %d SMs, %d cycles\n\n", res.Scheme, cfg.NumSMs, res.Cycles)
	fmt.Fprintf(w, "%-14s %-5s %10s %10s %10s %8s %9s\n",
		"kernel", "QoS", "IPC", "isolated", "goal", "reached", "norm-tput")
	for _, k := range res.Kernels {
		goal, reached := "-", "-"
		if k.IsQoS {
			goal = fmt.Sprintf("%.1f", k.GoalIPC)
			reached = fmt.Sprint(k.Reached)
		}
		fmt.Fprintf(w, "%-14s %-5v %10.1f %10.1f %10s %8s %8.1f%%\n",
			k.Name, k.IsQoS, k.IPC, k.IsolatedIPC, goal, reached, 100*k.NormThroughput)
	}
	fmt.Fprintf(w, "\nper-kernel detail:\n")
	for _, k := range res.Kernels {
		st := k.Stats
		fmt.Fprintf(w, "  %-14s warps:%d l1miss:%4.1f%% txns:%d TBs:%d/%d preempted:%d launches:%d throttled:%d\n",
			k.Name, st.WarpInstrs, 100*st.L1MissRate(), st.MemTxns,
			st.TBsCompleted, st.TBsDispatched, st.TBsPreempted, st.Launches, st.ThrottledCycles)
	}
	fmt.Fprintf(w, "\ntotal %.1f IPC | %.1f W avg | %.2e instr/J\n",
		res.TotalIPC, res.Power.AvgPowerW, res.Power.InstrPerJoule)
	return nil
}
