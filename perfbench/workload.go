package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"ghba"
)

// workload is one input set the benchmark drives through the facade. The
// README explains why each exists and which layers it loads.
type workload struct {
	name    string
	tcp     bool // Prototype (TCP daemons) instead of the in-process Simulation
	servers int
	files   int
	// mixed selects the 70:20:10 lookup:create:delete mix; otherwise
	// every op is a lookup.
	mixed bool
	// zipf skews lookups towards a seed-shuffled hot set; otherwise they
	// are uniform over the namespace.
	zipf bool
	// arrivals stamps ops with Poisson At offsets from a shared arrival
	// clock, driving the simulation's queue model.
	arrivals  bool
	shipBatch int
	// lru is the L1 generation size per home server (README.md says why
	// each workload sets one below the facade's default).
	lru   uint64
	batch int // ops per ApplyBatch vector; 0 dispatches one op per call
	// warm is how many calls each client makes, unmeasured, at the end of
	// set-up: enough for the L1 array to reach its steady state.
	warm int
	// traceEvery: the traced run records spans for one call in traceEvery.
	traceEvery int
}

const (
	clients     = 2 // closed-loop clients, one per CPU of the reference box
	setupRounds = 3 // set-ups per untraced run; setup_s is their median
	zipfS       = 1.1
	// meanArrivalGap is the mean gap of the shared Poisson arrival clock:
	// 100k modeled arrivals/s over 30 servers keeps the queue model busy
	// without a backlog that grows with run length.
	meanArrivalGap = 10 * time.Microsecond
)

// workloads are the benchmark's inputs; README.md says why each exists.
var workloads = []workload{
	{name: "sim-cold-read", servers: 30, files: 200_000, lru: 256, warm: 50_000, traceEvery: 64},
	{name: "sim-hot-mixed", servers: 30, files: 200_000, lru: 1024, mixed: true, zipf: true, arrivals: true, shipBatch: 64, warm: 100_000, traceEvery: 64},
	{name: "tcp-batch-mixed", tcp: true, servers: 12, files: 50_000, lru: 512, mixed: true, zipf: true, shipBatch: 64, batch: 256, warm: 40, traceEvery: 8},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// subSeed derives an independent seed for one purpose and one client
// (splitmix64 finalizer), so every random stream is a function of the
// workload seed alone.
func subSeed(seed int64, purpose, client int) int64 {
	z := uint64(seed) + uint64(purpose)*0x9e3779b97f4a7c15 + uint64(client+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Purposes passed to subSeed.
const (
	seedNamespace = iota
	seedStream
	seedEntries
	seedArrivals
	seedProbes
)

// namespace is the populated file set: names[i] is created at set-up and
// never deleted, so its home never changes during a run.
type namespace struct {
	tag   uint32
	names []string
	hot   []int32 // popularity rank → name index
}

func newNamespace(seed int64, files int) *namespace {
	rng := rand.New(rand.NewSource(subSeed(seed, seedNamespace, 0)))
	ns := &namespace{tag: rng.Uint32() & 0xffff, names: make([]string, files)}
	for i := range ns.names {
		ns.names[i] = fmt.Sprintf("/vol%04x/d%03d/f%07d", ns.tag, i%512, i)
	}
	ns.hot = make([]int32, files)
	for i, j := range rng.Perm(files) {
		ns.hot[i] = int32(j)
	}
	return ns
}

// absent returns the i-th path that no workload ever creates.
func (ns *namespace) absent(i int) string {
	return fmt.Sprintf("/vol%04x/absent/a%07d", ns.tag, i)
}

// owned is one file a client created; home is filled in from the create's
// result and checked against the delete's.
type owned struct {
	path string
	home int
}

// item is one generated op plus what the oracle needs to check it.
type item struct {
	op  ghba.Op
	idx int32  // namespace index of a lookup
	own *owned // file a create makes or a delete removes
}

// stream is one client's op generator. The sequence of kinds and paths is
// a pure function of (workload, seed, client); results never feed back.
type stream struct {
	ns     *namespace
	rng    *rand.Rand
	zipf   *rand.Zipf
	mixed  bool
	client int
	made   int
	live   []*owned
}

func newStream(w workload, ns *namespace, seed int64, client int) *stream {
	s := &stream{
		ns:     ns,
		rng:    rand.New(rand.NewSource(subSeed(seed, seedStream, client))),
		mixed:  w.mixed,
		client: client,
	}
	if w.zipf {
		s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(len(ns.names)-1))
	}
	return s
}

func (s *stream) next() item {
	kind := ghba.OpLookup
	if s.mixed {
		switch u := s.rng.Intn(10); {
		case u == 9 && len(s.live) > 0:
			kind = ghba.OpDelete
		case u >= 7:
			kind = ghba.OpCreate
		}
	}
	switch kind {
	case ghba.OpCreate:
		own := &owned{path: fmt.Sprintf("/vol%04x/c%d/n%08d", s.ns.tag, s.client, s.made), home: -1}
		s.made++
		s.live = append(s.live, own)
		return item{op: ghba.Op{Kind: ghba.OpCreate, Path: own.path}, own: own}
	case ghba.OpDelete:
		j := s.rng.Intn(len(s.live))
		own := s.live[j]
		last := len(s.live) - 1
		s.live[j] = s.live[last]
		s.live = s.live[:last]
		return item{op: ghba.Op{Kind: ghba.OpDelete, Path: own.path}, own: own}
	}
	var idx int
	if s.zipf != nil {
		idx = int(s.ns.hot[s.zipf.Uint64()])
	} else {
		idx = s.rng.Intn(len(s.ns.names))
	}
	return item{op: ghba.Op{Kind: ghba.OpLookup, Path: s.ns.names[idx]}, idx: int32(idx)}
}

// arrivalClock hands out Poisson arrival offsets in dispatch order, shared
// by all clients. Per-client clocks would drift apart with the clients'
// progress, and the queue model would charge the lagging client the skew.
// The offsets are a pure function of the seed and the dispatch index.
type arrivalClock struct {
	n      atomic.Uint64
	cum    []time.Duration // offsets within one period
	period time.Duration
}

func newArrivalClock(seed int64) *arrivalClock {
	rng := rand.New(rand.NewSource(subSeed(seed, seedArrivals, 0)))
	a := &arrivalClock{cum: make([]time.Duration, 4096)}
	var t float64
	for i := range a.cum {
		a.cum[i] = time.Duration(t)
		t += -math.Log(1-rng.Float64()) * float64(meanArrivalGap)
	}
	a.period = time.Duration(t)
	return a
}

func (a *arrivalClock) at(i uint64) time.Duration {
	n := uint64(len(a.cum))
	return time.Duration(i/n)*a.period + a.cum[i%n]
}

func (a *arrivalClock) next() time.Duration { return a.at(a.n.Add(1) - 1) }
