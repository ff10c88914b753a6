package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ghba"
	"ghba/internal/bloom"
	"ghba/internal/bloomarray"
	"ghba/internal/mds"
)

// Span names. Roots are the calls into the system under test; the rest
// are the benchmark's own calls into one layer's public functions, made
// right after the root returns and replaying the steps the root's lookup
// took (the level it reports says how far the walk went).
const (
	spLookup uint8 = iota
	spCreate
	spDelete
	spBatch
	spDigest // bloom.NewDigestString
	spL1     // bloomarray.LRUArray.QueryDigest on the shadow L1
	spL2     // mds.Node.QueryL2Digest at the entry
	spL3     // QueryL2Digest at every other member of the entry's group
	spL4     // mds.Node.LocalPositiveDigest at every server
	spVerify // mds.Node.HasFile at the home (metastore)
	// spL4Off is the L4 probe timed after a lookup that stopped at L3. No
	// workload's walk reaches L4 often enough to time it otherwise, so this
	// span is not part of the walk and does not count against self time.
	spL4Off
)

var spanNames = [...]string{"lookup", "create", "delete", "batch", "bloom.digest", "bloomarray.l1_query", "mds.l2_query", "mds.l3_probe", "mds.l4_probe", "metastore.verify", "mds.l4_probe.off_walk"}

// span is one timed call. Spans stay in memory until the run ends.
type span struct {
	req        uint64
	parent     int32 // index of the root span in the same client log; -1 for a root
	name       uint8
	start, end int64 // ns since the tracer's base
	ops        int32 // lookups carried by a root
}

// tracer owns what the traced run probes: the engine's nodes and groups
// (the system itself in sim runs, the in-process twin in tcp runs) and a
// shadow L1 array with the engine's geometry, fed every found lookup
// exactly as core feeds its private one.
type tracer struct {
	base    time.Time
	shadow  *bloomarray.LRUArray
	nodes   map[int]*mds.Node
	members map[int][]int
	twin    bool // probes run on a twin, so the probe truth is the twin's home
}

type clientTrace struct {
	spans    []span
	rng      *rand.Rand // entry draws for twin probes
	buf      []int
	calls    uint64
	l1Probes int64
	l1Useful int64
	l2Probes int64
	l2FP     int64
}

func newTracer(e *env) (*tracer, error) {
	ncfg := engineConfig(e.w, 0).Node
	shadow, err := bloomarray.NewLRUArrayLayout(ncfg.LRUCapacity, ncfg.LRUBitsPerFile, ncfg.Layout)
	if err != nil {
		return nil, fmt.Errorf("shadow L1: %w", err)
	}
	t := &tracer{base: time.Now(), shadow: shadow, nodes: map[int]*mds.Node{}, members: map[int][]int{}, twin: e.w.tcp}
	for _, id := range e.engine.MDSIDs() {
		t.nodes[id] = e.engine.Node(id)
		t.members[id] = e.engine.GroupOf(id).Members()
	}
	return t, nil
}

func (t *tracer) newClient(seed int64, id int) *clientTrace {
	return &clientTrace{rng: rand.New(rand.NewSource(subSeed(seed, seedProbes, id))), buf: make([]int, 0, 16)}
}

func (t *tracer) now() int64 { return time.Since(t.base).Nanoseconds() }

// record replays the call's found lookups on the shadow L1 and, when
// sampled, records the root span plus a replay of each lookup's steps.
// The shadow is queried for every lookup, as core's L1 is, so that its
// cache footprint, and so the timed query, matches core's.
func (t *tracer) record(e *env, cl *client, results []ghba.Result, entry int, t0, t1 time.Time, sampled bool) {
	tc := cl.tc
	root := int32(-1)
	req := uint64(cl.id)<<48 | tc.calls
	tc.calls++
	if sampled {
		name := spBatch
		if e.w.batch == 0 {
			name = [...]uint8{spLookup, spCreate, spDelete}[cl.items[0].op.Kind]
		}
		root = int32(len(tc.spans))
		tc.spans = append(tc.spans, span{req: req, parent: -1, name: name,
			start: t0.Sub(t.base).Nanoseconds(), end: t1.Sub(t.base).Nanoseconds()})
	}
	for i, it := range cl.items {
		r := results[i]
		if it.op.Kind != ghba.OpLookup || !r.Found {
			continue
		}
		if !sampled {
			d := bloom.NewDigestString(it.op.Path)
			tc.buf = t.shadow.QueryDigest(&d, tc.buf).Hits
			t.shadow.ObserveDigest(&d, r.Home)
			continue
		}
		tc.spans[root].ops++
		t.replay(e, tc, root, req, it, r, entry)
	}
}

// replay re-issues, layer by layer, the calls the lookup's walk made. It
// runs right after the walk, so the engine's own arrays are as warm in
// cache as the walk left them: the replayed times read somewhat lower
// than the walk's, and the root's self time somewhat higher.
func (t *tracer) replay(e *env, tc *clientTrace, root int32, req uint64, it item, r ghba.Result, entry int) {
	path := it.op.Path
	sp := func(name uint8, start int64) {
		tc.spans = append(tc.spans, span{req: req, parent: root, name: name, start: start, end: t.now()})
	}
	s := t.now()
	d := bloom.NewDigestString(path)
	sp(spDigest, s)

	truth := int(e.homes[it.idx])
	s = t.now()
	l1 := t.shadow.QueryDigest(&d, tc.buf)
	sp(spL1, s)
	tc.buf = l1.Hits
	tc.l1Probes++
	if h, ok := l1.Unique(); ok && h == truth {
		tc.l1Useful++
	}

	probeHome := truth
	if t.twin {
		probeHome = e.engine.HomeOf(path)
		entry = e.ids[tc.rng.Intn(len(e.ids))]
	}
	if r.Level >= 2 {
		s = t.now()
		l2 := t.nodes[entry].QueryL2Digest(&d, tc.buf)
		sp(spL2, s)
		tc.buf = l2.Hits
		tc.l2Probes++
		for _, h := range l2.Hits {
			if h != probeHome {
				tc.l2FP++
				break
			}
		}
	}
	if r.Level >= 3 {
		s = t.now()
		for _, m := range t.members[entry] {
			if m != entry {
				tc.buf = t.nodes[m].QueryL2Digest(&d, tc.buf).Hits
			}
		}
		sp(spL3, s)
	}
	if n := t.nodes[probeHome]; n != nil {
		s = t.now()
		n.HasFile(path)
		sp(spVerify, s)
	}
	if r.Level >= 3 {
		s = t.now()
		for _, n := range t.nodes {
			n.LocalPositiveDigest(&d)
		}
		sp([...]uint8{3: spL4Off, 4: spL4}[r.Level], s)
	}
	t.shadow.ObserveDigest(&d, r.Home)
}

// layerTimes folds the clients' spans into per-layer figures.
type layerTimes struct {
	durs [len(spanNames)][]int64
	sum  [len(spanNames)]int64
	// selfNs is root time minus child time over the roots that carried
	// lookups; lookups counts those lookups.
	selfNs, lookups int64
}

func (t *tracer) fold(e *env) layerTimes {
	var lt layerTimes
	for _, cl := range e.clients {
		spans := cl.tc.spans
		child := make(map[int32]int64)
		for _, s := range spans {
			d := s.end - s.start
			lt.durs[s.name] = append(lt.durs[s.name], d)
			lt.sum[s.name] += d
			if s.parent >= 0 && s.name != spL4Off {
				child[s.parent] += d
			}
		}
		for i, s := range spans {
			if s.parent < 0 && s.ops > 0 {
				lt.selfNs += s.end - s.start - child[int32(i)]
				lt.lookups += int64(s.ops)
			}
		}
	}
	return lt
}

// typical is the typical duration of one call of the named spans.
func (lt layerTimes) typical(names ...uint8) float64 {
	var ds []int64
	for _, n := range names {
		ds = append(ds, lt.durs[n]...)
	}
	return typical(ds)
}

func (lt layerTimes) count(name uint8) int64 { return int64(len(lt.durs[name])) }

// perLookup spreads a layer's total time over every traced lookup.
func (lt layerTimes) perLookup(name uint8) float64 {
	if lt.lookups == 0 {
		return 0
	}
	return float64(lt.sum[name]) / float64(lt.lookups)
}

// writeSpans writes every span once, at the end of the run, as
// tab-separated req, index, parent, name, start_ns, end_ns.
func (t *tracer) writeSpans(e *env, dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req\tspan\tparent\tname\tstart_ns\tend_ns")
	for _, cl := range e.clients {
		for i, s := range cl.tc.spans {
			fmt.Fprintf(w, "%x\t%d\t%d\t%s\t%d\t%d\n", s.req, i, s.parent, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
