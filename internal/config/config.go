// Package config defines the simulated GPU configuration.
//
// The defaults in Base mirror Table 1 of the paper (ISCA'17): 16 SMs with
// four GTO warp schedulers each, 256KB of registers, 96KB of shared memory,
// 2048 threads and 32 thread blocks per SM, and 4 memory controllers each
// with an L2 slice. Scale56 is the 56-SM configuration used in the paper's
// scalability study (Section 4.6).
package config

import (
	"errors"
	"fmt"
)

// Cache describes one set-associative cache.
type Cache struct {
	SizeBytes int // total capacity
	LineBytes int // line (block) size
	Assoc     int // ways per set
}

// Sets returns the number of sets implied by the geometry.
func (c Cache) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Validate reports whether the cache geometry is internally consistent.
func (c Cache) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0:
		return errors.New("config: cache dimensions must be positive")
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("config: line size %d is not a power of two", c.LineBytes)
	case c.SizeBytes%(c.LineBytes*c.Assoc) != 0:
		return fmt.Errorf("config: size %d not divisible by line*assoc", c.SizeBytes)
	case c.Sets()&(c.Sets()-1) != 0:
		return fmt.Errorf("config: set count %d is not a power of two", c.Sets())
	}
	return nil
}

// GPU holds every architectural parameter of the simulated device.
type GPU struct {
	// Core organization (Table 1).
	NumSMs         int // streaming multiprocessors
	WarpSchedulers int // warp schedulers per SM
	WarpSize       int // threads per warp (SIMD width)

	// Per-SM static resources (Table 1).
	RegFileBytes    int // register file per SM (256KB)
	SharedMemBytes  int // shared memory per SM (96KB)
	MaxThreadsPerSM int // thread limit per SM (2048)
	MaxTBsPerSM     int // thread-block slots per SM (32)

	// Clocks, used only to translate between wall time and cycles when
	// converting application QoS goals (Section 3.2).
	CoreClockMHz int
	MemClockMHz  int

	// Memory system.
	NumMemControllers  int   // memory partitions, each with an L2 slice
	L1                 Cache // per-SM L1 data cache
	L2                 Cache // per-partition L2 slice
	L1HitLatency       int64 // cycles from issue to L1 hit data
	L2HitLatency       int64 // additional cycles at the partition for an L2 hit
	InterconnectDelay  int64 // one-way SM <-> partition latency
	DRAMRowHitLatency  int64 // DRAM access, row buffer hit
	DRAMRowMissLatency int64 // DRAM access, row buffer miss (activate+precharge)
	DRAMBanksPerMC     int   // banks per controller (row-buffer interleaving)
	MCServiceInterval  int64 // cycles between requests a controller can accept
	WriteLatency       int64 // latency charged to a warp for a store (posted)
	MSHRsPerSM         int   // max outstanding global-memory misses per SM
	MemPortsPerSM      int   // LD/ST instructions issuable per SM per cycle
	TxnFlightCapPerSM  int   // max in-flight 128B transactions per SM

	// Execution latencies by instruction class.
	ALULatency   int64 // integer/single-precision result latency
	SFULatency   int64 // special function unit result latency
	SharedMemLat int64 // shared-memory (scratchpad) access latency
	BarrierLat   int64 // cycles to release a barrier once all warps arrive
	IssueBackoff int64 // pipeline re-issue interval for independent instrs

	// QoS management (Section 3.3/4.1).
	EpochLength     int64 // quota epoch in cycles (10K in the paper)
	IdleWarpSamples int   // idle-warp samples per epoch (100 in the paper)

	// Preemption engine (partial context switch, Section 3.6/4.8).
	CtxBytesPerThread int   // architectural context per thread (regs + meta)
	CtxSaveBWBytes    int   // bytes/cycle the preemption engine can move
	KernelLaunchDelay int64 // cycles to relaunch a drained kernel

	// Spatial partitioning baseline (Spart).
	SpartDecisionEpochs int   // hill-climbing period, in quota epochs
	SMDrainPenalty      int64 // extra cycles to drain+switch one whole SM
}

// Base returns the paper's Table 1 configuration.
func Base() GPU {
	return GPU{
		NumSMs:         16,
		WarpSchedulers: 4,
		WarpSize:       32,

		RegFileBytes:    256 << 10,
		SharedMemBytes:  96 << 10,
		MaxThreadsPerSM: 2048,
		MaxTBsPerSM:     32,

		CoreClockMHz: 1216,
		MemClockMHz:  7000,

		NumMemControllers:  4,
		L1:                 Cache{SizeBytes: 32 << 10, LineBytes: 128, Assoc: 4},
		L2:                 Cache{SizeBytes: 512 << 10, LineBytes: 128, Assoc: 8},
		L1HitLatency:       28,
		L2HitLatency:       96,
		InterconnectDelay:  16,
		DRAMRowHitLatency:  100,
		DRAMRowMissLatency: 220,
		DRAMBanksPerMC:     16,
		MCServiceInterval:  1,
		WriteLatency:       4,
		MSHRsPerSM:         64,
		MemPortsPerSM:      2,
		TxnFlightCapPerSM:  48,

		ALULatency:   10,
		SFULatency:   20,
		SharedMemLat: 24,
		BarrierLat:   4,
		IssueBackoff: 2,

		EpochLength:     10_000,
		IdleWarpSamples: 100,

		CtxBytesPerThread: 144, // ~32 regs * 4B + predicate/PC metadata
		CtxSaveBWBytes:    128,
		KernelLaunchDelay: 1_500,

		SpartDecisionEpochs: 1,
		SMDrainPenalty:      8_000,
	}
}

// Scale56 returns the Section 4.6 scalability configuration: 56 SMs with
// two warp schedulers each, other parameters unchanged. The memory system
// is widened to 8 controllers so per-SM bandwidth stays in a realistic
// range for a large die (the paper keeps "other parameters the same"; we
// scale controllers with SM count as any real part would and note it in
// EXPERIMENTS.md).
func Scale56() GPU {
	g := Base()
	g.NumSMs = 56
	g.WarpSchedulers = 2
	g.NumMemControllers = 8
	return g
}

// Validate checks the configuration for internal consistency.
func (g GPU) Validate() error {
	switch {
	case g.NumSMs <= 0:
		return errors.New("config: NumSMs must be positive")
	case g.WarpSchedulers <= 0:
		return errors.New("config: WarpSchedulers must be positive")
	case g.WarpSize <= 0 || g.WarpSize > 64:
		return fmt.Errorf("config: WarpSize %d out of range", g.WarpSize)
	case g.MaxThreadsPerSM%g.WarpSize != 0:
		return fmt.Errorf("config: MaxThreadsPerSM %d not a multiple of warp size", g.MaxThreadsPerSM)
	case g.MaxWarpsPerSM() > maxWarpContexts:
		return fmt.Errorf("config: %d warp contexts per SM (MaxThreadsPerSM/WarpSize) exceed the limit of %d",
			g.MaxWarpsPerSM(), maxWarpContexts)
	case g.MaxTBsPerSM <= 0:
		return errors.New("config: MaxTBsPerSM must be positive")
	case g.NumMemControllers <= 0:
		return errors.New("config: NumMemControllers must be positive")
	case g.EpochLength <= 0:
		return errors.New("config: EpochLength must be positive")
	case g.IdleWarpSamples <= 0:
		return errors.New("config: IdleWarpSamples must be positive")
	case g.IdleWarpSamples > int(g.EpochLength):
		return errors.New("config: more idle-warp samples than cycles per epoch")
	case g.MSHRsPerSM <= 0:
		return errors.New("config: MSHRsPerSM must be positive")
	case g.MemPortsPerSM <= 0:
		return errors.New("config: MemPortsPerSM must be positive")
	case g.TxnFlightCapPerSM <= 0:
		return errors.New("config: TxnFlightCapPerSM must be positive")
	case g.RegFileBytes <= 0 || g.SharedMemBytes <= 0:
		return errors.New("config: per-SM resources must be positive")
	case g.CtxSaveBWBytes <= 0:
		return errors.New("config: CtxSaveBWBytes must be positive")
	case g.IssueBackoff < 1 || g.ALULatency < 1 || g.SFULatency < 1 || g.SharedMemLat < 1 ||
		g.BarrierLat < 1 || g.WriteLatency < 1 || g.L1HitLatency < 1:
		// Less would make a warp ready in its own past; internal/sm's
		// decoder also reads a zero delay as "none".
		return errors.New("config: issue backoff and execution, barrier, write and L1-hit latencies must be at least 1")
	}
	if err := g.L1.Validate(); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := g.L2.Validate(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	return nil
}

// maxWarpContexts bounds MaxWarpsPerSM: a warp scheduler (internal/sm)
// keeps its scheduling state as 64-bit masks with one bit per warp
// context, and in the worst case one scheduler holds every warp of its SM.
const maxWarpContexts = 64

// MaxWarpsPerSM returns the warp-context limit implied by the thread limit.
func (g GPU) MaxWarpsPerSM() int { return g.MaxThreadsPerSM / g.WarpSize }

// PeakIssuePerCycle returns the GPU-wide upper bound on warp instructions
// issued per cycle; thread-level IPC is bounded by WarpSize times this.
func (g GPU) PeakIssuePerCycle() int { return g.NumSMs * g.WarpSchedulers }
