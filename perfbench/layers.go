package main

import (
	"context"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"ghba/internal/simnet"
)

// traced builds a fresh copy of the workload with tracing on, runs the
// same timed window on the same inputs, and records the per-layer metrics.
// ref is the untraced phase the same process just ran.
func traced(ctx context.Context, w workload, ns *namespace, opts options, ref phase, rep *report) (phase, error) {
	var ph phase
	put := rep.put
	dir, err := scratchDir(opts.workDir, w.name)
	if err != nil {
		return ph, fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)
	echo, err := echoRTT(ns.names[0])
	if err != nil {
		return ph, err
	}
	put("rpcnet.echo_rtt_us", echo, "us", echoCalls)
	one, vec, err := walAppendSync(dir, ns.names[0])
	if err != nil {
		return ph, err
	}
	put("wal.append_sync_us", one, "us", walAppends)
	put("wal.append_sync_batch_us", vec, "us", walAppends)

	e, err := setup(ctx, w, ns, opts.seed, true)
	if err != nil {
		return ph, fmt.Errorf("%s traced set-up: %w", w.name, err)
	}
	defer e.close()

	msgs := e.engine.Messages()
	var rpc0 map[string]uint64
	var ships0 uint64
	var stopHB func() ([]int64, error)
	if e.proto != nil {
		rpc0 = e.proto.Cluster().RPCCounts()
		ships0 = e.proto.ReplicaUpdates()
		stopHB = e.startHeartbeats(ctx)
	}
	queries0 := msgs.Get(simnet.MsgQueryUnicast) + msgs.Get(simnet.MsgQueryMulticast)
	updates0 := msgs.Get(simnet.MsgReplicaUpdate)

	e.measureWindow(ctx, opts.window)

	var hb []int64
	if stopHB != nil {
		if hb, err = stopHB(); err != nil {
			return ph, err
		}
	}
	t := e.totals()
	e.dropSamples()
	ph.attempted, ph.failed, ph.firstErr = t.attempted, t.failed, t.firstErr
	ph.opsPerS = e.opsPerSlice(t.slices, true)
	ph.levels = shares(t.levels, t.lookups)
	flushStart := time.Now()
	if e.b != nil {
		err = e.b.Flush(ctx)
	} else {
		e.engine.Flush()
	}
	flush := time.Since(flushStart)
	if err != nil {
		return ph, fmt.Errorf("flush: %w", err)
	}

	lt := e.tr.fold(e)
	put("bloom.digest_ns", lt.typical(spDigest), "ns", lt.count(spDigest))
	put("bloomarray.l1_query_ns", lt.typical(spL1), "ns", lt.count(spL1))
	put("bloomarray.l1_entries", float64(e.tr.shadow.Entries()), "count", 1)
	put("mds.l2_query_ns", lt.typical(spL2), "ns", lt.count(spL2))
	put("mds.l3_probe_ns_per_lookup", lt.perLookup(spL3), "ns", lt.lookups)
	put("mds.l4_probe_ns", lt.typical(spL4, spL4Off), "ns", lt.count(spL4)+lt.count(spL4Off))
	put("metastore.verify_ns", lt.typical(spVerify), "ns", lt.count(spVerify))
	put("core.self_ns_per_lookup", float64(lt.selfNs)/float64(max(lt.lookups, 1)), "ns", lt.lookups)

	var l1p, l1u, l2p, l2f int64
	for _, cl := range e.clients {
		l1p += cl.tc.l1Probes
		l1u += cl.tc.l1Useful
		l2p += cl.tc.l2Probes
		l2f += cl.tc.l2FP
	}
	put("core.l1_useful_ratio", ratio(l1u, l1p), "ratio", l1p)
	put("mds.l2_fp_ratio", ratio(l2f, l2p), "ratio", l2p)

	// Level shares go under the layer that walked the hierarchy; the other
	// backend's shares are 0 by definition.
	sim, tcp := ph.levels, [5]float64{}
	if w.tcp {
		sim, tcp = tcp, sim
	}
	var maxDiff float64
	for l := 1; l <= 4; l++ {
		put(fmt.Sprintf("core.level_share.l%d", l), sim[l], "ratio", t.lookups)
		put(fmt.Sprintf("proto.level_share.l%d", l), tcp[l], "ratio", t.lookups)
		maxDiff = math.Max(maxDiff, math.Abs(ph.levels[l]-ref.levels[l]))
	}
	put("level_share_max_diff_vs_untraced", maxDiff, "ratio", t.lookups)

	var queries, updates uint64
	if !w.tcp {
		queries = msgs.Get(simnet.MsgQueryUnicast) + msgs.Get(simnet.MsgQueryMulticast) - queries0
		updates = msgs.Get(simnet.MsgReplicaUpdate) - updates0
	}
	put("simnet.msgs_per_lookup", ratio(int64(queries), t.lookups), "count", t.lookups)
	put("shipq.replica_updates_per_kmut", 1000*ratio(int64(updates), t.mutations), "count", t.mutations)

	var rpcs, batchRPCs uint64
	var protoShips uint64
	rpc1 := map[string]uint64{}
	if e.proto != nil {
		rpc1 = e.proto.Cluster().RPCCounts()
		protoShips = e.proto.ReplicaUpdates() - ships0
	}
	for _, op := range opcodes {
		n := rpc1[op] - rpc0[op]
		rpcs += n
		if strings.HasSuffix(op, "_batch") {
			batchRPCs += n
		}
		put("proto.rpcs_per_op."+op, ratio(int64(n), t.ops), "count", t.ops)
	}
	for op := range maps.Keys(rpc1) {
		if !slices.Contains(opcodes, op) {
			rep.Notes = append(rep.Notes, "RPC opcode "+op+" is not broken out")
		}
	}
	put("proto.rpcs_per_op", ratio(int64(rpcs), t.ops), "count", t.ops)
	opsInBatches := int64(0)
	if w.batch > 0 {
		opsInBatches = t.ops
	}
	put("proto.ops_per_batch", ratio(opsInBatches, int64(batchRPCs)), "count", int64(batchRPCs))
	put("proto.replica_updates_per_kmut", 1000*ratio(int64(protoShips), t.mutations), "count", t.mutations)

	measured, probes, design := e.tr.fpr(ns)
	put("bloom.fpr_measured", measured, "ratio", int64(probes))
	put("bloom.fpr_design", design, "ratio", 1)
	put("trace_overhead", ref.opsPerS/ph.opsPerS-1, "ratio", t.ops)
	put("traced_ops_per_s", ph.opsPerS, "1/s", t.ops)

	// Metrics that exist only on some workloads go to the report alone.
	if w.mixed && !w.tcp {
		put("core.create_ns", lt.typical(spCreate), "ns", lt.count(spCreate))
		put("core.delete_ns", lt.typical(spDelete), "ns", lt.count(spDelete))
		put("core.flush_ms", float64(flush.Nanoseconds())/1e6, "ms", 1)
	}
	if w.tcp {
		n := int64(len(hb))
		p50 := quantile(hb, 0.50) / 1e3
		put("proto.heartbeat_rtt_us_p50", p50, "us", n)
		put("proto.heartbeat_rtt_us_p99", quantile(hb, 0.99)/1e3, "us", n)
		put("proto.daemon_wait_us", p50-echo, "us", n)
	}
	if w.batch > 0 {
		put("proto.batch_call_ms", lt.typical(spBatch)/1e6, "ms", lt.count(spBatch))
	}
	file, err := e.tr.writeSpans(e, opts.workDir+"/traces", fmt.Sprintf("%s-seed%d", w.name, opts.seed))
	if err != nil {
		return ph, fmt.Errorf("write spans: %w", err)
	}
	rep.Notes = append(rep.Notes, "spans: "+file)
	return ph, nil
}

func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
