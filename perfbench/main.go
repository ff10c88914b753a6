// Command perfbench is the repository's benchmark. It builds one workload
// from a seed, drives it through the public ghba facade with two
// closed-loop clients, checks every result against ground truth, and
// prints its metrics. With -trace 1 it also runs a traced copy of the same
// workload and reports per-layer figures. See README.md.
//
//	go run . -workload sim-hot-mixed -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// endToEnd and perLayer are the metrics the final line carries, in
// BENCHMARK.json's order; every workload emits all of them.
var endToEnd = []string{"ops_per_s", "lookup_p50_us", "lookup_p99_us", "setup_s", "heap_mb"}

var perLayer = append([]string{
	"bloom.digest_ns", "bloomarray.l1_query_ns", "bloomarray.l1_entries",
	"mds.l2_query_ns", "mds.l3_probe_ns_per_lookup", "mds.l4_probe_ns", "metastore.verify_ns",
	"core.self_ns_per_lookup", "core.level_share.l1", "core.level_share.l2", "core.level_share.l3", "core.level_share.l4",
	"core.l1_useful_ratio", "mds.l2_fp_ratio", "simnet.msgs_per_lookup", "shipq.replica_updates_per_kmut",
	"go.allocs_per_op", "go.gc_pause_ms",
	"proto.rpcs_per_op", "proto.level_share.l1", "proto.level_share.l2", "proto.level_share.l3", "proto.level_share.l4",
	"proto.ops_per_batch", "proto.replica_updates_per_kmut",
	"rpcnet.echo_rtt_us", "wal.append_sync_us", "wal.append_sync_batch_us",
	"bloom.fpr_measured", "bloom.fpr_design", "trace_overhead",
}, rpcMetricNames()...)

// opcodes are the prototype's RPC names as proto.Cluster.RPCCounts keys them.
var opcodes = []string{
	"query_entry", "query_member", "verify", "has_local", "add_file", "install_replica", "drop_replica",
	"ship_filter", "observe", "observe_batch", "ping", "create_file", "delete_file", "lookup_batch",
	"query_member_batch", "verify_batch", "has_local_batch", "create_batch", "delete_batch", "heartbeat",
}

func rpcMetricNames() []string {
	out := make([]string, len(opcodes))
	for i, op := range opcodes {
		out[i] = "proto.rpcs_per_op." + op
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before it: every metric that applies to the
// workload, the sample count behind each percentile, and provenance.
type report struct {
	Workload   string            `json:"workload"`
	Trace      bool              `json:"trace"`
	Provenance provenance        `json:"provenance"`
	Metrics    map[string]metric `json:"metrics"`
	Samples    map[string]int64  `json:"samples"`
	Notes      []string          `json:"notes,omitempty"`
}

type provenance struct {
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
}

type options struct {
	seed    int64
	window  time.Duration
	trace   bool
	workDir string // WAL probe log and span files
}

func main() {
	name := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	traceFlag := flag.Int("trace", 0, "1 runs the traced copy and reports per-layer metrics")
	workDir := flag.String("workdir", ".bench_build/perfbench", "scratch directory for the WAL probe and span files")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*traceFlag < 0 || *traceFlag > 1 || *seconds < 1) {
		err = fmt.Errorf("want -trace 0 or 1 and -seconds ≥ 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	opts := options{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1, workDir: *workDir}
	rep, res, err := run(context.Background(), w, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, line := range []any{rep, res} {
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		fmt.Println(string(b))
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload and returns the report and the final line.
func run(ctx context.Context, w workload, opts options) (*report, *result, error) {
	rep := &report{
		Workload: w.name, Trace: opts.trace,
		Provenance: provenance{
			CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), Seed: opts.seed, Clients: clients, Seconds: opts.window.Seconds(),
		},
		Metrics: map[string]metric{}, Samples: map[string]int64{},
	}
	ns := newNamespace(opts.seed, w.files)
	rounds := setupRounds
	if opts.trace {
		rounds = 1
	}
	ref, err := untraced(ctx, w, ns, opts, rounds, rep)
	if err != nil {
		return nil, nil, err
	}
	res := &result{Attempted: ref.attempted, Failed: ref.failed, Metrics: map[string]metric{}}
	firstErr := ref.firstErr
	names := endToEnd
	if opts.trace {
		tr, err := traced(ctx, w, ns, opts, ref, rep)
		if err != nil {
			return nil, nil, err
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		firstErr = errors.Join(firstErr, tr.firstErr)
		names = perLayer
	}
	res.Correct = res.Failed == 0
	if !res.Correct {
		rep.Notes = append(rep.Notes, fmt.Sprintf("%d of %d ops failed or returned a wrong result: %v", res.Failed, res.Attempted, firstErr))
	}
	rep.put("error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio", res.Attempted)
	for _, n := range names {
		m, ok := rep.Metrics[n]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not measured", n)
		}
		res.Metrics[n] = m
	}
	return rep, res, nil
}

// phase sums what one measured phase checked.
type phase struct {
	attempted, failed int64
	firstErr          error
	opsPerS           float64
	levels            [5]float64 // lookup share per level
}

// untraced builds the cluster rounds times (setup_s is the median), runs
// the timed window on the last build and records the end-to-end metrics.
func untraced(ctx context.Context, w workload, ns *namespace, opts options, rounds int, rep *report) (phase, error) {
	var e *env
	var setups, setupsWall []int64
	var ph phase
	for i := 0; i < rounds; i++ {
		if e != nil {
			t := e.totals()
			ph.attempted += t.attempted
			ph.failed += t.failed
			e.close()
			e = nil
			runtime.GC()
		}
		t0, cpu0 := time.Now(), readHostCPU()
		var err error
		e, err = setup(ctx, w, ns, opts.seed, false)
		if err != nil {
			return ph, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(t0)
		setupsWall = append(setupsWall, d.Nanoseconds())
		setups = append(setups, int64(float64(d)*(1-stolenShare(cpu0, readHostCPU()))))
	}
	defer e.close()
	// The live heap is read after set-up, a fixed amount of work: after the
	// window it would grow with the ops completed, and so with speed.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := readHostCPU()
	window := e.measureWindow(ctx, opts.window)
	cpu1 := readHostCPU()
	t := e.totals()
	e.dropSamples()
	ph.attempted += t.attempted
	ph.failed += t.failed
	ph.firstErr = t.firstErr
	ph.opsPerS = e.opsPerSlice(t.slices, true)
	put := rep.put
	put("ops_per_s", ph.opsPerS, "1/s", t.ops)
	put("ops_per_s_wall", e.opsPerSlice(t.slices, false), "1/s", t.ops)
	put("ops_per_s_whole_window", float64(t.ops)/window.Seconds(), "1/s", t.ops)
	put("host_steal_share", stolenShare(cpu0, cpu1), "ratio", int64(len(t.slices)))
	put("setup_s", median(setups)/1e9, "s", int64(len(setups)))
	put("setup_s_wall", median(setupsWall)/1e9, "s", int64(len(setups)))
	latencies(rep, "lookup", t.slices, func(s sample) []uint32 { return s.lookupNs })
	if w.mixed {
		latencies(rep, "mutate", t.slices, func(s sample) []uint32 { return s.mutateNs })
	}
	if w.batch > 0 {
		batches := func(s sample) []uint32 { return s.batchNs }
		put("batch_p50_ms", sliced(t.slices, batches, 0.50)/1e3, "ms", count(t.slices, batches))
		put("batch_p99_ms", sliced(t.slices, batches, 0.99)/1e3, "ms", count(t.slices, batches))
	}
	if !w.tcp {
		put("modeled_lookup_us", float64(t.modeled.Nanoseconds())/float64(max(t.lookups, 1))/1e3, "us", t.lookups)
	}
	ph.levels = shares(t.levels, t.lookups)
	for l := 1; l <= 4; l++ {
		put(fmt.Sprintf("level_share.l%d", l), ph.levels[l], "ratio", t.lookups)
	}
	ops := t.ops
	t = stats{}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	put("heap_mb", float64(m0.HeapAlloc)/1e6, "MB", 1)
	put("heap_mb_after_run", float64(m1.HeapAlloc)/1e6, "MB", 1)
	put("go.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(max(ops, 1)), "count", ops)
	put("go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms", int64(m1.NumGC-m0.NumGC))
	runtime.KeepAlive(e)
	return ph, nil
}

func latencies(rep *report, kind string, ss []sample, f func(sample) []uint32) {
	n := count(ss, f)
	rep.put(kind+"_p50_us", sliced(ss, f, 0.50), "us", n)
	rep.put(kind+"_p99_us", sliced(ss, f, 0.99), "us", n)
}

// sliced returns the median over the window's slices of each slice's
// q-quantile of the latencies f picks, in µs.
func sliced(ss []sample, f func(sample) []uint32, q float64) float64 {
	var per []float64
	for _, s := range ss {
		if xs := f(s); len(xs) > 0 {
			per = append(per, quantile(xs, q)/1e3)
		}
	}
	return quantile(per, 0.5)
}

func count(ss []sample, f func(sample) []uint32) int64 {
	var n int64
	for _, s := range ss {
		n += int64(len(f(s)))
	}
	return n
}

func shares(levels [5]int64, lookups int64) [5]float64 {
	var out [5]float64
	for l := 1; l <= 4; l++ {
		out[l] = float64(levels[l]) / float64(max(lookups, 1))
	}
	return out
}

func (r *report) put(name string, v float64, unit string, samples int64) {
	r.Metrics[name] = metric{v, unit}
	r.Samples[name] = samples
}

// commit names the source revision when the build could stamp one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
