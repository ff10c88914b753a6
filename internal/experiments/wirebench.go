package experiments

import (
	"context"
	"fmt"
	"time"

	"ghba"
	"ghba/internal/analysis"
	"ghba/internal/trace"
)

// WireBenchConfig parameterizes the wire-protocol A/B benchmark: one mixed
// workload replayed against two identically built, identically populated
// TCP clusters — one dispatching per op (the baseline, rpcbatch=1), one
// dispatching RPCBatch-op vectors through the batch RPCs. The delta
// isolates the RPC-amortization win.
type WireBenchConfig struct {
	// N is the MDS count; M the group size (0 selects the paper optimum).
	N, M int
	// Files is the total initial namespace size.
	Files uint64
	// Ops is the number of replayed operations per phase.
	Ops int
	// Workers is the replay engine's goroutine count (same in every phase).
	Workers int
	// Mix is the lookup:create:delete weight ratio.
	Mix [3]float64
	// ShipBatch is the coalescing ship queue's drain batch.
	ShipBatch int
	// TIF is the number of sub-traces; 0 selects 4.
	TIF int
	// Seed drives all randomness.
	Seed int64
	// RPCBatch is the ops-per-vector of the batched phase; 0 selects 1024.
	// Per-vector costs are dominated by the per-daemon fan of each level's
	// round, so throughput scales with the window until lane length divides
	// into too few windows to keep the workers busy.
	RPCBatch int
}

// DefaultWireBenchConfig returns the configuration the checked-in
// BENCH_wire.json records.
func DefaultWireBenchConfig() WireBenchConfig {
	return WireBenchConfig{
		N:         12,
		M:         6,
		Files:     5_000,
		Ops:       20_000,
		Workers:   4,
		Mix:       [3]float64{70, 20, 10},
		ShipBatch: 64,
		TIF:       4,
		Seed:      1,
		RPCBatch:  1024,
	}
}

// WirePhase is one dispatch configuration's measured run.
type WirePhase struct {
	// Name labels the phase: "mux" (per-op) or "mux+batch".
	Name string
	// RPCBatch is the ops-per-vector (1 = per-op dispatch).
	RPCBatch int
	// Stats is the replay run.
	Stats ReplayStats
	// RPCs is the number of coordinator RPCs the replay issued; RPCsPerOp
	// divides by the op count.
	RPCs      uint64
	RPCsPerOp float64
	// ByOpcode breaks the RPCs down per message type.
	ByOpcode map[string]uint64
	// Speedup is this phase's ops/sec over the per-op phase's.
	Speedup float64
}

// WireBenchResult carries the two phases plus the headline comparisons.
type WireBenchResult struct {
	Config WireBenchConfig
	// Phases holds mux (per-op) and mux+batch, in that order.
	Phases []WirePhase
	// BatchedSpeedup is batched over per-op ops/sec.
	BatchedSpeedup float64
	// RPCReduction is per-op RPCs-per-op over batched RPCs-per-op.
	RPCReduction float64
}

// wireTraceConfig builds the workload shared by every phase.
func (cfg WireBenchConfig) wireTraceConfig() (trace.Config, error) {
	profile, err := trace.MixProfile(cfg.Mix[0], cfg.Mix[1], cfg.Mix[2])
	if err != nil {
		return trace.Config{}, err
	}
	return trace.Config{
		Profile:          profile,
		TIF:              cfg.TIF,
		FilesPerSubtrace: cfg.Files / uint64(cfg.TIF),
		MeanInterarrival: 2 * time.Millisecond,
		Seed:             cfg.Seed,
	}, nil
}

// runPhase boots one TCP cluster, populates it from the shared generator
// config, replays the workload (batched when rpcBatch > 1), and reads the
// RPC counters back.
func (cfg WireBenchConfig) runPhase(ctx context.Context, tcfg trace.Config, name string, rpcBatch int) (WirePhase, error) {
	phase := WirePhase{Name: name, RPCBatch: rpcBatch}
	gen, err := trace.NewGenerator(tcfg)
	if err != nil {
		return phase, err
	}
	p, err := ghba.StartPrototype(ghba.PrototypeConfig{
		Config: ghba.Config{
			NumMDS:              cfg.N,
			MaxGroupSize:        cfg.M,
			ExpectedFilesPerMDS: gen.InitialFileCount()/uint64(cfg.N)*2 + 16,
			LRUCapacity:         1_024,
			ShipBatch:           cfg.ShipBatch,
			Seed:                cfg.Seed,
		},
	})
	if err != nil {
		return phase, err
	}
	defer p.Close()
	if err := PopulateFromGenerator(p, gen); err != nil {
		return phase, err
	}
	cluster := p.Cluster()
	cluster.ResetMessages()
	cluster.ResetRPCCounts()
	phase.Stats, err = ReplayParallelBatched(ctx, p, tcfg, cfg.Ops, cfg.Workers, rpcBatch)
	if err != nil {
		return phase, fmt.Errorf("experiments: wire bench phase %s: %w", name, err)
	}
	phase.RPCs = cluster.Messages()
	phase.ByOpcode = cluster.RPCCounts()
	if cfg.Ops > 0 {
		phase.RPCsPerOp = float64(phase.RPCs) / float64(cfg.Ops)
	}
	return phase, nil
}

// WireBench runs the two-phase dispatch comparison.
func WireBench(cfg WireBenchConfig) (WireBenchResult, error) {
	ctx := context.Background()
	if cfg.N < 1 || cfg.Ops < 1 {
		return WireBenchResult{}, fmt.Errorf("experiments: bad wire bench config N=%d ops=%d", cfg.N, cfg.Ops)
	}
	if cfg.M == 0 {
		cfg.M = analysis.PaperOptimalM(cfg.N)
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.TIF == 0 {
		cfg.TIF = 4
	}
	if cfg.RPCBatch == 0 {
		cfg.RPCBatch = 1024
	}
	tcfg, err := cfg.wireTraceConfig()
	if err != nil {
		return WireBenchResult{}, err
	}
	out := WireBenchResult{Config: cfg}
	specs := []struct {
		name     string
		rpcBatch int
	}{
		{"mux", 1},
		{"mux+batch", cfg.RPCBatch},
	}
	for _, spec := range specs {
		phase, err := cfg.runPhase(ctx, tcfg, spec.name, spec.rpcBatch)
		if err != nil {
			return out, err
		}
		out.Phases = append(out.Phases, phase)
	}
	perOp, batched := out.Phases[0], out.Phases[1]
	for i := range out.Phases {
		if perOp.Stats.OpsPerSec > 0 {
			out.Phases[i].Speedup = out.Phases[i].Stats.OpsPerSec / perOp.Stats.OpsPerSec
		}
	}
	out.BatchedSpeedup = out.Phases[1].Speedup
	if batched.RPCsPerOp > 0 {
		out.RPCReduction = perOp.RPCsPerOp / batched.RPCsPerOp
	}
	return out, nil
}

// FormatWireBench renders the comparison like the other figure banners.
func FormatWireBench(r WireBenchResult) string {
	var b []byte
	b = fmt.Appendf(b, "Wire protocol — N=%d M=%d files=%d ops=%d workers=%d mix=%.0f:%.0f:%.0f rpcbatch=%d seed=%d\n",
		r.Config.N, r.Config.M, r.Config.Files, r.Config.Ops, r.Config.Workers,
		r.Config.Mix[0], r.Config.Mix[1], r.Config.Mix[2], r.Config.RPCBatch, r.Config.Seed)
	for _, p := range r.Phases {
		b = fmt.Appendf(b, "  %-10s %9.0f ops/sec  (%v)  %8d RPCs  %5.2f RPCs/op  %5.2fx\n",
			p.Name, p.Stats.OpsPerSec, p.Stats.Elapsed.Round(time.Millisecond),
			p.RPCs, p.RPCsPerOp, p.Speedup)
	}
	b = fmt.Appendf(b, "  batched over per-op  %.2fx  (RPCs/op reduced %.1fx)\n",
		r.BatchedSpeedup, r.RPCReduction)
	return string(b)
}
