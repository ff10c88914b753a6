// Command ghbabench regenerates the tables and figures of the paper's
// evaluation. Each -fig/-table selects one experiment; -all runs everything.
//
//	ghbabench -fig 6          # normalized throughput vs group size
//	ghbabench -fig 8 -ops 120000
//	ghbabench -table 5
//	ghbabench -all
//
// Beyond the paper's figures, -throughput measures the concurrent lookup
// engine itself: it populates a cluster and hammers it with parallel lookup
// workers, reporting wall-clock lookups/sec.
//
//	ghbabench -throughput -workers 8 -lookups 200000 -n 30
//
// -replay measures the concurrent *mutation* pipeline: a mixed
// lookup:create:delete workload replays once through the serial engine and
// once through the parallel one, reporting both wall-clock throughputs and
// the speedup.
//
//	ghbabench -replay -mix 70:20:10 -workers 4 -ops 100000 -n 30
//	ghbabench -replay -backend tcp -ops 20000 -n 12   # same workload, real sockets
//
// -wire measures the wire protocol itself: the same mixed workload replays
// against two identically populated TCP clusters — one dispatching per op,
// one dispatching -rpcbatch-op vectors through the batch RPCs — and reports
// each phase's throughput, RPC count and RPCs/op alongside the batched
// speedup over per-op.
//
//	ghbabench -wire -files 5000 -workers 4 -ops 20000
//	ghbabench -wire -files 5000 -workers 4 -rpcbatch 256
//
// -recovery measures the durability subsystem: time-to-recover for a
// crashed daemon as a function of its WAL length and snapshot cadence, and
// the lookup latency percentiles of a cluster that keeps serving while one
// daemon crash-restarts under load.
//
//	ghbabench -recovery
//	ghbabench -recovery -files 8000 -lookups 50000 -workers 4
//
// Output is the textual equivalent of the paper's chart: the same series,
// ready to diff against EXPERIMENTS.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ghba"
	"ghba/internal/analysis"
	"ghba/internal/experiments"
	"ghba/internal/trace"
)

func main() {
	var (
		fig        = flag.Int("fig", 0, "figure number to regenerate (6–15)")
		table      = flag.Int("table", 0, "table number to regenerate (3, 4 or 5)")
		all        = flag.Bool("all", false, "regenerate every figure and table")
		ops        = flag.Int("ops", 0, "override the operation count (0 = driver default)")
		n          = flag.Int("n", 0, "override the MDS count where applicable (0 = default)")
		seed       = flag.Int64("seed", 1, "simulation seed")
		protoN     = flag.Int("proto-n", 20, "prototype daemon count (figs 14–15)")
		throughput = flag.Bool("throughput", false, "measure parallel lookup throughput instead of a figure")
		replay     = flag.Bool("replay", false, "measure mixed-workload replay throughput (serial vs parallel) instead of a figure")
		wire       = flag.Bool("wire", false, "measure wire-protocol replay throughput (per-op vs batched dispatch) instead of a figure")
		recovery   = flag.Bool("recovery", false, "measure WAL recovery time and lookup p99 during a daemon restart instead of a figure")
		walSync    = flag.String("wal-sync", "always", "WAL fsync policy for -recovery: always, interval or never")
		rpcBatch   = flag.Int("rpcbatch", 0, "ops per batch-RPC vector for -wire's batched phase (0 = default)")
		workers    = flag.Int("workers", 1, "worker goroutines for -throughput / -replay")
		blocked    = flag.Bool("blocked", false, "use cache-line-blocked Bloom filters for -throughput")
		lookups    = flag.Int("lookups", 100_000, "lookup count for -throughput")
		files      = flag.Int("files", 20_000, "namespace size for -throughput / -replay")
		mix        = flag.String("mix", "70:20:10", "lookup:create:delete ratio for -replay")
		shipBatch  = flag.Int("shipbatch", 64, "coalescing ship-queue drain batch for -replay (1 = ship at every threshold crossing)")
		jsonOut    = flag.String("json", "auto", `perf-trajectory JSON path; "auto" selects BENCH_lookup.json / BENCH_replay.json per mode, "none" disables`)
		backend    = flag.String("backend", "sim", "replay backend: sim (in-process engine) or tcp (loopback prototype daemons)")
	)
	flag.Parse()

	if *throughput {
		nn := *n
		if nn == 0 {
			nn = 30
		}
		exitIf(runThroughput(nn, *files, *lookups, *workers, *seed, *blocked, jsonPath(*jsonOut, "BENCH_lookup.json")))
		return
	}
	if *replay {
		nn := *n
		if nn == 0 {
			nn = 30
		}
		exitIf(runReplay(*backend, nn, *files, *ops, *workers, *shipBatch, *seed, *mix, jsonPath(*jsonOut, "BENCH_replay.json")))
		return
	}
	if *wire {
		exitIf(runWire(*n, *files, *ops, *workers, *shipBatch, *rpcBatch, *seed, *mix, jsonPath(*jsonOut, "BENCH_wire.json")))
		return
	}
	if *recovery {
		exitIf(runRecovery(*n, *files, *lookups, *workers, *seed, *walSync, jsonPath(*jsonOut, "BENCH_recovery.json")))
		return
	}

	if !*all && *fig == 0 && *table == 0 {
		flag.Usage()
		os.Exit(2)
	}
	run := func(figNo int) bool { return *all || *fig == figNo }
	runTable := func(tableNo int) bool { return *all || *table == tableNo }

	if runTable(3) || runTable(4) {
		out, err := experiments.Tables34(20_000, *seed)
		exitIf(err)
		fmt.Println(out)
	}
	if run(6) {
		for _, nn := range pick(*n, []int{30, 100}) {
			for _, p := range trace.Profiles() {
				cfg := experiments.DefaultFig6Config(p, nn)
				cfg.Seed = *seed
				if *ops > 0 {
					cfg.Ops = *ops
				}
				rows, err := experiments.Fig6(cfg)
				exitIf(err)
				fmt.Println(experiments.FormatFig6(p.Name, nn, rows))
			}
		}
	}
	if run(7) {
		for _, p := range trace.Profiles() {
			cfg := experiments.DefaultFig7Config(p)
			cfg.Seed = *seed
			if *ops > 0 {
				cfg.Ops = *ops
			}
			rows, err := experiments.Fig7(cfg)
			exitIf(err)
			fmt.Println(experiments.FormatFig7(p.Name, rows))
		}
	}
	for figNo := 8; figNo <= 10; figNo++ {
		if !run(figNo) {
			continue
		}
		cfg := experiments.DefaultLatencyFigConfig(figNo)
		cfg.Seed = *seed
		if *ops > 0 {
			cfg.Ops = *ops
			cfg.Interval = *ops / 6
		}
		if *n > 0 {
			cfg.N = *n
			cfg.M = analysis.PaperOptimalM(*n)
		}
		series, err := experiments.LatencyFig(cfg)
		exitIf(err)
		fmt.Println(experiments.FormatLatencyFig(cfg, series))
	}
	if run(11) {
		rows, err := experiments.Fig11([]int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, *seed)
		exitIf(err)
		fmt.Println(experiments.FormatFig11(rows))
	}
	if run(12) {
		var rows []experiments.Fig12Row
		for _, nn := range pick(*n, []int{30, 100}) {
			for _, p := range trace.Profiles() {
				cfg := experiments.DefaultFig12Config(p, nn)
				cfg.Seed = *seed
				r, err := experiments.Fig12(cfg)
				exitIf(err)
				rows = append(rows, r...)
			}
		}
		fmt.Println(experiments.FormatFig12(rows))
	}
	if run(13) {
		cfg := experiments.DefaultFig13Config()
		cfg.Seed = *seed
		if *ops > 0 {
			cfg.Ops = *ops
		}
		rows, err := experiments.Fig13(cfg)
		exitIf(err)
		fmt.Println(experiments.FormatFig13(rows))
	}
	if run(14) {
		cfg := experiments.DefaultFig14Config()
		cfg.N = *protoN
		cfg.Seed = *seed
		if *ops > 0 {
			cfg.Ops = *ops
			cfg.Interval = *ops / 4
		}
		series, err := experiments.Fig14(cfg)
		exitIf(err)
		fmt.Println(experiments.FormatFig14(cfg, series))
	}
	if run(15) {
		m := 7
		rows, err := experiments.Fig15(*protoN, m, 10, *seed)
		exitIf(err)
		fmt.Println(experiments.FormatFig15(*protoN, m, rows))
	}
	if runTable(5) {
		rows, err := experiments.Table5([]int{20, 40, 60, 80, 100}, 2_000, *seed)
		exitIf(err)
		fmt.Println(experiments.FormatTable5(rows))
	}
}

// benchRecord is the perf-trajectory datum -throughput emits: one point of
// (configuration, lookups/sec, ns/op, allocs/op) comparable across PRs.
// CPUs records the machine's parallelism so numbers measured on differently
// sized runners are not compared as like for like.
type benchRecord struct {
	Bench         string  `json:"bench"`
	NumMDS        int     `json:"num_mds"`
	Files         int     `json:"files"`
	Lookups       int     `json:"lookups"`
	Workers       int     `json:"workers"`
	Seed          int64   `json:"seed"`
	Layout        string  `json:"layout"`
	CPUs          int     `json:"cpus"`
	LookupsPerSec float64 `json:"lookups_per_sec"`
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	L1Share       float64 `json:"l1_share"`
	L2Share       float64 `json:"l2_share"`
	L3Share       float64 `json:"l3_share"`
	L4Share       float64 `json:"l4_share"`
}

// runThroughput populates a cluster with files files and resolves lookups
// paths across the given worker count, reporting wall-clock lookups/sec and
// the per-level hit distribution. The path sequence cycles through the
// namespace so the L1 array sees the temporal locality the scheme exploits.
// When jsonOut is non-empty the headline numbers are also written there as
// the perf-trajectory record.
func runThroughput(n, files, lookups, workers int, seed int64, blocked bool, jsonOut string) error {
	sim, err := ghba.New(ghba.Config{
		NumMDS:              n,
		ExpectedFilesPerMDS: uint64(files/n + 1),
		Seed:                seed,
		BlockedFilters:      blocked,
	})
	if err != nil {
		return err
	}
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/bench/dir%d/file%d", i%97, i)
	}
	if err := sim.CreateAll(context.Background(), paths); err != nil {
		return err
	}

	batch := make([]string, lookups)
	for i := range batch {
		batch[i] = paths[i%len(paths)]
	}

	// Warm the scratch pools and L1 before measuring, then bracket the
	// measured run with allocation and level-tally counters so the record
	// carries the allocs/op and per-level shares of the measured lookups
	// only — not warmup or population noise.
	if _, err := ghba.LookupParallel(context.Background(), sim, batch[:min(len(batch), 4_096)], workers); err != nil {
		return err
	}
	levelsBefore := sim.LevelCounts()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	results, err := ghba.LookupParallel(context.Background(), sim, batch, workers)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	levelsAfter := sim.LevelCounts()

	found := 0
	for _, r := range results {
		if r.Found {
			found++
		}
	}
	var frac [5]float64
	for l := 1; l <= 4; l++ {
		frac[l] = float64(levelsAfter[l]-levelsBefore[l]) / float64(len(results))
	}
	fmt.Printf("Parallel lookup throughput — N=%d M(auto) files=%d seed=%d\n",
		n, files, seed)
	fmt.Printf("  workers        %d\n", workers)
	fmt.Printf("  lookups        %d (%d found)\n", len(results), found)
	fmt.Printf("  wall time      %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("  throughput     %.0f lookups/sec\n",
		float64(len(results))/elapsed.Seconds())
	fmt.Printf("  sim latency    %v mean\n", sim.MeanLatency().Round(time.Microsecond))
	fmt.Printf("  level shares   L1=%.3f L2=%.3f L3=%.3f L4=%.3f\n",
		frac[1], frac[2], frac[3], frac[4])

	ops := float64(len(results))
	rec := benchRecord{
		Bench:         "ghbabench-throughput",
		NumMDS:        n,
		Files:         files,
		Lookups:       lookups,
		Workers:       workers,
		Seed:          seed,
		Layout:        layoutName(blocked),
		CPUs:          runtime.NumCPU(),
		LookupsPerSec: ops / elapsed.Seconds(),
		NsPerOp:       float64(elapsed.Nanoseconds()) / ops,
		AllocsPerOp:   float64(after.Mallocs-before.Mallocs) / ops,
		BytesPerOp:    float64(after.TotalAlloc-before.TotalAlloc) / ops,
		L1Share:       frac[1],
		L2Share:       frac[2],
		L3Share:       frac[3],
		L4Share:       frac[4],
	}
	fmt.Printf("  allocs/op      %.3f (%.1f B/op)\n", rec.AllocsPerOp, rec.BytesPerOp)
	if jsonOut == "" {
		return nil
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", jsonOut, err)
	}
	fmt.Printf("  perf record    %s\n", jsonOut)
	return nil
}

// jsonPath resolves the -json flag for one bench mode.
// layoutName names the filter bit layout for the perf record, so blocked and
// classic trajectories are never compared as like for like.
func layoutName(blocked bool) string {
	if blocked {
		return "blocked"
	}
	return "classic"
}

func jsonPath(flagValue, modeDefault string) string {
	switch flagValue {
	case "auto":
		return modeDefault
	case "none", "":
		return ""
	default:
		return flagValue
	}
}

// replayRecord is the perf-trajectory datum -replay emits: serial and
// parallel wall-clock throughput over the same mixed workload, comparable
// across PRs. CPUs records the machine's parallelism so a speedup measured
// on a single-core runner is not misread as a regression.
type replayRecord struct {
	Bench             string  `json:"bench"`
	Backend           string  `json:"backend"`
	NumMDS            int     `json:"num_mds"`
	Files             int     `json:"files"`
	Ops               int     `json:"ops"`
	Workers           int     `json:"workers"`
	Mix               string  `json:"mix"`
	ShipBatch         int     `json:"ship_batch"`
	Seed              int64   `json:"seed"`
	CPUs              int     `json:"cpus"`
	SerialOpsPerSec   float64 `json:"serial_ops_per_sec"`
	ParallelOpsPerSec float64 `json:"parallel_ops_per_sec"`
	Speedup           float64 `json:"speedup"`
	// SerialSimMeanNs is the serial run's simulated mean lookup latency
	// (queue inclusive); the multi-worker run's is not At-ordered and is
	// deliberately omitted.
	SerialSimMeanNs   float64 `json:"serial_sim_mean_ns"`
	Lookups           int     `json:"lookups"`
	Creates           int     `json:"creates"`
	Deletes           int     `json:"deletes"`
	ReplicaUpdateMsgs uint64  `json:"replica_update_msgs"`
	L1Share           float64 `json:"l1_share"`
	L2Share           float64 `json:"l2_share"`
	L3Share           float64 `json:"l3_share"`
	L4Share           float64 `json:"l4_share"`
}

// runReplay drives experiments.ReplayBench and reports serial-versus-
// parallel replay throughput for a mixed workload.
func runReplay(backend string, n, files, ops, workers, shipBatch int, seed int64, mix, jsonOut string) error {
	var l, c, d float64
	if _, err := fmt.Sscanf(mix, "%f:%f:%f", &l, &c, &d); err != nil {
		return fmt.Errorf("parsing -mix %q (want lookup:create:delete, e.g. 70:20:10): %w", mix, err)
	}
	cfg := experiments.DefaultReplayBenchConfig()
	cfg.Backend = backend
	cfg.N = n
	cfg.Files = uint64(files)
	if ops > 0 {
		cfg.Ops = ops
	}
	cfg.Workers = workers
	cfg.Mix = [3]float64{l, c, d}
	cfg.ShipBatch = shipBatch
	cfg.Seed = seed

	res, err := experiments.ReplayBench(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatReplayBench(res))
	if jsonOut == "" {
		return nil
	}
	rec := replayRecord{
		Bench:             "ghbabench-replay",
		Backend:           backend,
		NumMDS:            cfg.N,
		Files:             files,
		Ops:               cfg.Ops,
		Workers:           cfg.Workers,
		Mix:               mix,
		ShipBatch:         cfg.ShipBatch,
		Seed:              seed,
		CPUs:              runtime.NumCPU(),
		SerialOpsPerSec:   res.Serial.OpsPerSec,
		ParallelOpsPerSec: res.Parallel.OpsPerSec,
		Speedup:           res.Speedup,
		SerialSimMeanNs:   float64(res.Serial.MeanLookupLatency.Nanoseconds()),
		Lookups:           res.Parallel.Lookups,
		Creates:           res.Parallel.Creates,
		Deletes:           res.Parallel.Deletes,
		ReplicaUpdateMsgs: res.ReplicaUpdates,
		L1Share:           res.LevelShares[1],
		L2Share:           res.LevelShares[2],
		L3Share:           res.LevelShares[3],
		L4Share:           res.LevelShares[4],
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", jsonOut, err)
	}
	fmt.Printf("  perf record    %s\n", jsonOut)
	return nil
}

// wirePhaseRecord is one dispatch configuration inside a wireRecord.
type wirePhaseRecord struct {
	Name      string            `json:"name"`
	RPCBatch  int               `json:"rpc_batch"`
	OpsPerSec float64           `json:"ops_per_sec"`
	RPCs      uint64            `json:"rpcs"`
	RPCsPerOp float64           `json:"rpcs_per_op"`
	Speedup   float64           `json:"speedup"`
	ByOpcode  map[string]uint64 `json:"by_opcode"`
}

// wireRecord is the perf-trajectory datum -wire emits: the same mixed
// workload replayed per-op and through the batch RPCs, with per-opcode RPC
// counts for each phase.
type wireRecord struct {
	Bench            string            `json:"bench"`
	NumMDS           int               `json:"num_mds"`
	GroupSize        int               `json:"group_size"`
	Files            int               `json:"files"`
	Ops              int               `json:"ops"`
	Workers          int               `json:"workers"`
	Mix              string            `json:"mix"`
	ShipBatch        int               `json:"ship_batch"`
	RPCBatch         int               `json:"rpc_batch"`
	Seed             int64             `json:"seed"`
	CPUs             int               `json:"cpus"`
	MuxOpsPerSec     float64           `json:"mux_ops_per_sec"`
	BatchedOpsPerSec float64           `json:"batched_ops_per_sec"`
	BatchedSpeedup   float64           `json:"batched_speedup"`
	MuxRPCsPerOp     float64           `json:"mux_rpcs_per_op"`
	BatchedRPCsPerOp float64           `json:"batched_rpcs_per_op"`
	RPCReduction     float64           `json:"rpc_reduction"`
	Phases           []wirePhaseRecord `json:"phases"`
}

// runWire drives experiments.WireBench: per-op versus batched dispatch
// over one mixed workload, real sockets in both phases.
func runWire(n, files, ops, workers, shipBatch, rpcBatch int, seed int64, mix, jsonOut string) error {
	var l, c, d float64
	if _, err := fmt.Sscanf(mix, "%f:%f:%f", &l, &c, &d); err != nil {
		return fmt.Errorf("parsing -mix %q (want lookup:create:delete, e.g. 70:20:10): %w", mix, err)
	}
	cfg := experiments.DefaultWireBenchConfig()
	if n > 0 {
		cfg.N = n
		cfg.M = analysis.PaperOptimalM(n)
	}
	cfg.Files = uint64(files)
	if ops > 0 {
		cfg.Ops = ops
	}
	cfg.Workers = workers
	cfg.Mix = [3]float64{l, c, d}
	cfg.ShipBatch = shipBatch
	if rpcBatch > 0 {
		cfg.RPCBatch = rpcBatch
	}
	cfg.Seed = seed

	res, err := experiments.WireBench(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatWireBench(res))
	if jsonOut == "" {
		return nil
	}
	rec := wireRecord{
		Bench:            "ghbabench-wire",
		NumMDS:           res.Config.N,
		GroupSize:        res.Config.M,
		Files:            files,
		Ops:              res.Config.Ops,
		Workers:          res.Config.Workers,
		Mix:              mix,
		ShipBatch:        res.Config.ShipBatch,
		RPCBatch:         res.Config.RPCBatch,
		Seed:             seed,
		CPUs:             runtime.NumCPU(),
		MuxOpsPerSec:     res.Phases[0].Stats.OpsPerSec,
		BatchedOpsPerSec: res.Phases[1].Stats.OpsPerSec,
		BatchedSpeedup:   res.BatchedSpeedup,
		MuxRPCsPerOp:     res.Phases[0].RPCsPerOp,
		BatchedRPCsPerOp: res.Phases[1].RPCsPerOp,
		RPCReduction:     res.RPCReduction,
	}
	for _, p := range res.Phases {
		rec.Phases = append(rec.Phases, wirePhaseRecord{
			Name:      p.Name,
			RPCBatch:  p.RPCBatch,
			OpsPerSec: p.Stats.OpsPerSec,
			RPCs:      p.RPCs,
			RPCsPerOp: p.RPCsPerOp,
			Speedup:   p.Speedup,
			ByOpcode:  p.ByOpcode,
		})
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", jsonOut, err)
	}
	fmt.Printf("  perf record    %s\n", jsonOut)
	return nil
}

// recoveryPointRecord is one (log length, snapshot cadence) → recovery time
// measurement inside a recoveryRecord.
type recoveryPointRecord struct {
	LogRecords    int     `json:"log_records"`
	SnapshotEvery int     `json:"snapshot_every"`
	Replayed      int     `json:"replayed"`
	Files         int     `json:"files"`
	RecoveryNs    float64 `json:"recovery_ns"`
}

// recoveryRecord is the perf-trajectory datum -recovery emits: the
// recovery-time series plus the lookup percentiles of a cluster serving
// through one daemon's crash-restart.
type recoveryRecord struct {
	Bench             string                `json:"bench"`
	NumMDS            int                   `json:"num_mds"`
	Files             int                   `json:"files"`
	Lookups           int                   `json:"lookups"`
	Workers           int                   `json:"workers"`
	WALSync           string                `json:"wal_sync"`
	Seed              int64                 `json:"seed"`
	CPUs              int                   `json:"cpus"`
	Points            []recoveryPointRecord `json:"points"`
	SteadyP50Ns       float64               `json:"steady_p50_ns"`
	SteadyP99Ns       float64               `json:"steady_p99_ns"`
	RestartP99Ns      float64               `json:"restart_p99_ns"`
	RestartWindowNs   float64               `json:"restart_window_ns"`
	RestartRecoveryNs float64               `json:"restart_recovery_ns"`
	LookupErrors      int                   `json:"lookup_errors"`
}

// runRecovery drives experiments.RecoveryBench and reports recovery time
// versus log length and snapshot cadence, plus restart-window lookup p99.
func runRecovery(n, files, lookups, workers int, seed int64, walSync, jsonOut string) error {
	cfg := experiments.DefaultRecoveryBenchConfig()
	if n > 0 {
		cfg.N = n
		cfg.M = analysis.PaperOptimalM(n)
	}
	if files > 0 {
		cfg.Files = files
	}
	if lookups > 0 {
		cfg.Lookups = lookups
	}
	if workers > 0 {
		cfg.Workers = workers
	}
	cfg.WALSync = walSync
	cfg.Seed = seed

	res, err := experiments.RecoveryBench(cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatRecoveryBench(res))
	if jsonOut == "" {
		return nil
	}
	rec := recoveryRecord{
		Bench:             "ghbabench-recovery",
		NumMDS:            cfg.N,
		Files:             cfg.Files,
		Lookups:           res.Lookups,
		Workers:           cfg.Workers,
		WALSync:           walSync,
		Seed:              seed,
		CPUs:              runtime.NumCPU(),
		SteadyP50Ns:       float64(res.SteadyP50.Nanoseconds()),
		SteadyP99Ns:       float64(res.SteadyP99.Nanoseconds()),
		RestartP99Ns:      float64(res.RestartP99.Nanoseconds()),
		RestartWindowNs:   float64(res.RestartWindow.Nanoseconds()),
		RestartRecoveryNs: float64(res.RestartRecovery.Nanoseconds()),
		LookupErrors:      res.LookupErrors,
	}
	for _, p := range res.Points {
		rec.Points = append(rec.Points, recoveryPointRecord{
			LogRecords:    p.LogRecords,
			SnapshotEvery: p.SnapshotEvery,
			Replayed:      p.Replayed,
			Files:         p.Files,
			RecoveryNs:    float64(p.Recovery.Nanoseconds()),
		})
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", jsonOut, err)
	}
	fmt.Printf("  perf record    %s\n", jsonOut)
	return nil
}

// pick returns {override} when the override is set, otherwise the defaults.
func pick(override int, defaults []int) []int {
	if override > 0 {
		return []int{override}
	}
	return defaults
}

func exitIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghbabench:", err)
		os.Exit(1)
	}
}
