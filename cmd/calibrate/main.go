// Command calibrate characterizes the workload suite on the simulated
// GPU: isolated IPC, memory traffic, cache behaviour and TLP sensitivity
// (IPC at fractions of full thread-block residency). It is the tool used
// to keep the synthetic Parboil-like profiles in realistic ranges when
// the workload models are tuned (see DESIGN.md Section 2).
//
// Usage:
//
//	calibrate                 # characterize the whole suite
//	calibrate -w sgemm,lbm    # a subset
//	calibrate -tlp            # add the TLP sensitivity sweep
//	calibrate -fit iso.json   # also write an isolated-IPC qosd model fit
//
// A -fit file carries isolated IPCs only (no pairwise contention data),
// bound to the default device at -window: a qosd loading it can decide
// single-kernel mixes analytically while multi-kernel mixes still
// simulate (use `sweep -fit` for pairwise coverage).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/kern"
	"repro/internal/perfmodel"
	"repro/internal/workloads"
)

func main() {
	var (
		list    = flag.String("w", "", "comma-separated workloads (default: all)")
		window  = flag.Int64("window", 200_000, "measurement window in cycles")
		tlp     = flag.Bool("tlp", false, "include the TLP-sensitivity sweep")
		timeout = flag.Duration("timeout", 0, "wall-clock deadline for the whole run (0 = none)")
		fit     = flag.String("fit", "", "write an isolated-IPC qosd model fit to this path")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if err := run(ctx, *list, *window, *tlp, *fit); err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
}

func selected(list string) ([]string, error) {
	if list == "" {
		return workloads.Names(), nil
	}
	var names []string
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		if _, err := workloads.ByName(n); err != nil {
			return nil, err
		}
		names = append(names, n)
	}
	return names, nil
}

// measure runs the named workload isolated, optionally with a uniform
// per-SM TB cap, and returns the GPU for stat extraction.
func measure(ctx context.Context, name string, window int64, cap int) (*gpu.GPU, error) {
	k, err := workloads.Kernel(name, 0)
	if err != nil {
		return nil, err
	}
	g, err := gpu.New(config.Base(), []*kern.Kernel{k})
	if err != nil {
		return nil, err
	}
	if cap > 0 {
		for _, s := range g.SMs {
			s.SetTBCap(0, cap)
		}
	}
	if err := g.RunCtx(ctx, window); err != nil {
		return nil, err
	}
	return g, nil
}

// writeFit measures each workload's isolated IPC on a fresh session
// (the same device/window/seed a default qosd runs under) and saves a
// pairs-free model fit.
func writeFit(ctx context.Context, names []string, window int64, path string) error {
	sess, err := core.NewSession(core.WithWindow(window))
	if err != nil {
		return err
	}
	cfgHash, err := perfmodel.ConfigHash(sess.Config(), sess.Seed())
	if err != nil {
		return err
	}
	f := &perfmodel.Fit{
		Schema:     perfmodel.FitSchema,
		ConfigHash: cfgHash,
		Isolated:   make(map[string]float64, len(names)),
		Pairs:      map[string][]perfmodel.PairPoint{},
	}
	for _, name := range names {
		ipc, err := sess.IsolatedIPC(ctx, core.KernelSpec{Workload: name})
		if err != nil {
			return err
		}
		f.Isolated[name] = ipc
	}
	if err := f.Save(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "calibrate: wrote model fit %s (version %.12s…, %d workloads)\n",
		path, f.Version, len(f.Isolated))
	return nil
}

func run(ctx context.Context, list string, window int64, tlp bool, fit string) error {
	names, err := selected(list)
	if err != nil {
		return err
	}
	if fit != "" {
		if err := writeFit(ctx, names, window, fit); err != nil {
			return err
		}
	}
	fmt.Printf("%-14s %-3s %9s %10s %8s %8s %9s %8s\n",
		"workload", "cls", "IPC", "lines/cyc", "L1hit", "L2hit", "TBs", "launches")
	for _, name := range names {
		g, err := measure(ctx, name, window, 0)
		if err != nil {
			return err
		}
		p, _ := workloads.ByName(name)
		st := g.Stats[0]
		l2 := g.Mem.L2Stats()
		fmt.Printf("%-14s %-3s %9.1f %10.2f %7.1f%% %7.1f%% %9d %8d\n",
			name, p.Class, g.IPC(0),
			float64(st.MemTxns)/float64(window),
			100*(1-st.L1MissRate()), 100*l2.HitRate(),
			g.TotalResidentTBs(0), st.Launches)
	}

	if !tlp {
		return nil
	}
	fmt.Printf("\nTLP sensitivity (IPC at a per-SM TB cap, normalized to uncapped):\n")
	fmt.Printf("%-14s %8s %8s %8s %8s\n", "workload", "cap=2", "cap=4", "cap=8", "full")
	for _, name := range names {
		full, err := measure(ctx, name, window, 0)
		if err != nil {
			return err
		}
		base := full.IPC(0)
		fmt.Printf("%-14s", name)
		for _, cap := range []int{2, 4, 8} {
			g, err := measure(ctx, name, window, cap)
			if err != nil {
				return err
			}
			fmt.Printf(" %7.2f ", g.IPC(0)/base)
		}
		fmt.Printf(" %7.2f\n", 1.0)
	}
	return nil
}
