package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"ghba"
	"ghba/internal/core"
	"ghba/internal/trace"
)

// env is one built cluster plus the clients that drive it.
type env struct {
	w     workload
	homes []int32 // ground-truth home of each namespace name

	b     ghba.Backend // facade backend; nil when a traced sim run drives engine
	proto *ghba.Prototype
	// engine is the core cluster a traced sim run drives directly (to reach
	// its nodes and groups), or the in-process twin a traced tcp run probes.
	engine *core.Cluster
	ids    []int
	clock  *arrivalClock

	clients []*client
	tr      *tracer // nil in untraced runs

	start  time.Time     // of the timed window
	slice  time.Duration // the window is cut into windowSlices slices of this length
	stolen []float64     // per slice: share of the host's CPU time stolen
}

// windowSlices is how many equal slices the timed window is cut into. Each
// end-to-end figure is the median of its per-slice values, so a burst of
// CPU steal on the shared host moves a few slices, not the figure.
const windowSlices = 30

// client is one closed-loop caller: it sends its next call only after the
// previous one returned.
type client struct {
	id    int
	s     *stream
	rng   *rand.Rand // system-side draws: entry servers and create homes
	items []item
	st    stats
	tc    *clientTrace // nil in untraced runs
}

// sample is what one slice of the timed window recorded.
type sample struct {
	ops                         float64 // completed ops, spread over the calls' spans
	lookupNs, mutateNs, batchNs []uint32
}

// stats is one client's record of the timed window.
type stats struct {
	slices                  []sample
	levels                  [5]int64
	modeled                 time.Duration // sum of simulated lookup latencies
	ops, lookups, mutations int64
	attempted, failed       int64 // every checked op, warm-up included
	firstErr                error
	end                     time.Time
}

// engineConfig mirrors the core configuration ghba.New derives from
// ghba.Config{NumMDS, ShipBatch, LRUCapacity, Seed} with every other field at its
// default; TestEngineMatchesFacade pins the two together.
func engineConfig(w workload, seed int64) core.Config {
	cfg := core.DefaultConfig(w.servers, ghba.RecommendedGroupSize(w.servers))
	cfg.Node.ExpectedFiles = 50_000
	cfg.Node.BitsPerFile = 16
	cfg.Node.LRUCapacity = w.lru
	cfg.Node.LRUBitsPerFile = 16
	cfg.ShipBatch = w.shipBatch
	cfg.Seed = seed
	return cfg
}

func facadeConfig(w workload, seed int64) ghba.Config {
	return ghba.Config{NumMDS: w.servers, ShipBatch: w.shipBatch, LRUCapacity: w.lru, Seed: seed}
}

// setup builds the cluster, populates it, records ground truth and warms
// it up with the workload's own clients.
func setup(ctx context.Context, w workload, ns *namespace, seed int64, traced bool) (*env, error) {
	e := &env{w: w}
	var homeOf func(string) int
	switch {
	case w.tcp:
		cfg := ghba.PrototypeConfig{Config: facadeConfig(w, seed), Transport: "mux"}
		p, err := ghba.StartPrototype(cfg)
		if err != nil {
			return nil, fmt.Errorf("start prototype: %w", err)
		}
		e.b, e.proto, homeOf = p, p, p.HomeOf
	case traced:
		c, err := core.New(engineConfig(w, seed))
		if err != nil {
			return nil, fmt.Errorf("build engine: %w", err)
		}
		e.engine, homeOf = c, c.HomeOf
	default:
		s, err := ghba.New(facadeConfig(w, seed))
		if err != nil {
			return nil, fmt.Errorf("build simulation: %w", err)
		}
		e.b, homeOf = s, s.HomeOf
	}
	if e.b != nil {
		if err := e.b.CreateAll(ctx, ns.names); err != nil {
			e.close()
			return nil, fmt.Errorf("populate: %w", err)
		}
		e.ids = e.b.MDSIDs()
	} else {
		e.engine.Populate(eachName(ns.names))
		e.ids = e.engine.MDSIDs()
	}
	e.homes = make([]int32, len(ns.names))
	for i, p := range ns.names {
		e.homes[i] = int32(homeOf(p))
	}
	if traced {
		if w.tcp {
			twin, err := core.New(engineConfig(w, seed))
			if err != nil {
				e.close()
				return nil, fmt.Errorf("build twin engine: %w", err)
			}
			twin.Populate(eachName(ns.names))
			e.engine = twin
		}
		tr, err := newTracer(e)
		if err != nil {
			e.close()
			return nil, err
		}
		e.tr = tr
	}
	if w.arrivals {
		e.clock = newArrivalClock(seed)
	}
	for i := 0; i < clients; i++ {
		cl := &client{
			id:  i,
			s:   newStream(w, ns, seed, i),
			rng: rand.New(rand.NewSource(subSeed(seed, seedEntries, i))),
		}
		if e.tr != nil {
			cl.tc = e.tr.newClient(seed, i)
		}
		e.clients = append(e.clients, cl)
	}
	e.runClients(ctx, func(_ time.Time, calls int) bool { return calls >= w.warm }, false)
	return e, nil
}

func eachName(names []string) func(func(string) bool) {
	return func(fn func(string) bool) {
		for _, p := range names {
			if !fn(p) {
				return
			}
		}
	}
}

func (e *env) close() {
	if e.b != nil {
		_ = e.b.Close() // the simulation's Close is a no-op; daemon shutdown errors change nothing here
	}
}

// runClients drives every client concurrently until stop says so. measure
// selects the timed window: only then are latencies recorded and spans
// taken; results are checked in both cases.
func (e *env) runClients(ctx context.Context, stop func(now time.Time, calls int) bool, measure bool) {
	var wg sync.WaitGroup
	for _, cl := range e.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			e.drive(ctx, cl, stop, measure)
		}(cl)
	}
	wg.Wait()
}

func (e *env) drive(ctx context.Context, cl *client, stop func(time.Time, int) bool, measure bool) {
	n := 1
	if e.w.batch > 0 {
		n = e.w.batch
	}
	results := make([]ghba.Result, n)
	for calls := 0; ; {
		cl.items = cl.items[:0]
		for i := 0; i < n; i++ {
			it := cl.s.next()
			if e.clock != nil {
				it.op.At = e.clock.next()
			}
			cl.items = append(cl.items, it)
		}
		t0 := time.Now()
		entry, err := e.call(ctx, cl, results)
		t1 := time.Now()
		calls++
		if err != nil {
			cl.st.attempted += int64(n)
			cl.st.failed += int64(n)
			if cl.st.firstErr == nil {
				cl.st.firstErr = err
			}
		} else {
			e.account(cl, results, t1.Sub(t0), t1, measure)
			if cl.tc != nil {
				e.tr.record(e, cl, results, entry, t0, t1, measure && calls%e.w.traceEvery == 0)
			}
		}
		if stop(t1, calls) {
			cl.st.end = t1
			return
		}
	}
}

// call dispatches cl.items through the system under test and returns the
// entry server when the caller chose it (traced sim runs), else -1.
func (e *env) call(ctx context.Context, cl *client, out []ghba.Result) (int, error) {
	if e.w.batch > 0 {
		ops := make([]ghba.Op, len(cl.items))
		for i, it := range cl.items {
			ops[i] = it.op
		}
		res, err := e.proto.ApplyBatch(ctx, cl.rng, ops)
		if err != nil {
			return -1, err
		}
		if len(res) != len(ops) {
			return -1, fmt.Errorf("ApplyBatch returned %d results for %d ops", len(res), len(ops))
		}
		copy(out, res)
		return -1, nil
	}
	op := cl.items[0].op
	if e.b == nil {
		return e.callEngine(cl, op, out), nil
	}
	var err error
	if e.w.mixed || e.w.arrivals {
		out[0], err = e.b.ApplyWith(ctx, cl.rng, op)
	} else {
		out[0], err = e.b.LookupWith(ctx, cl.rng, op.Path)
	}
	return -1, err
}

// callEngine is call for a traced sim run: the same engine calls, with the
// same RNG draws, that the facade makes for LookupWith and ApplyWith, but
// with the entry drawn here so the trace can probe the entry's arrays.
func (e *env) callEngine(cl *client, op ghba.Op, out []ghba.Result) int {
	var res core.LookupResult
	entry := -1
	switch op.Kind {
	case ghba.OpLookup:
		entry = e.ids[cl.rng.Intn(len(e.ids))]
		if e.w.mixed || e.w.arrivals {
			res = e.engine.LookupAt(op.Path, entry, op.At)
		} else {
			res = e.engine.LookupWith(cl.rng, op.Path, entry)
		}
	case ghba.OpCreate:
		res = e.engine.ApplyWith(cl.rng, trace.Record{Op: trace.OpCreate, Path: op.Path, At: op.At})
	default:
		res = e.engine.ApplyWith(cl.rng, trace.Record{Op: trace.OpDelete, Path: op.Path, At: op.At})
	}
	out[0] = ghba.Result{Path: op.Path, Home: res.Home, Found: res.Found, Level: res.Level, Latency: res.Latency}
	return entry
}

// account checks every result against ground truth and, in the timed
// window, records latencies in the slice the call ended in: a call's wall
// time is charged to each op it carried, so a lookup in a batch waits for
// its whole vector. Calls that end after the window are counted, not timed.
func (e *env) account(cl *client, results []ghba.Result, d time.Duration, end time.Time, measure bool) {
	ns := uint32(min(d.Nanoseconds(), math.MaxUint32))
	st := &cl.st
	var sl *sample
	if measure {
		e.spreadOps(st.slices, end.Add(-d), end, float64(len(cl.items)))
		if k := int(end.Sub(e.start) / e.slice); k < len(st.slices) {
			sl = &st.slices[k]
			if e.w.batch > 0 {
				sl.batchNs = append(sl.batchNs, ns)
			}
		}
	}
	for i, it := range cl.items {
		r := results[i]
		st.attempted++
		if !e.check(it, r) {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = fmt.Errorf("wrong result for %v %q: %+v", it.op.Kind, it.op.Path, r)
			}
		}
		if !measure {
			continue
		}
		st.ops++
		if it.op.Kind == ghba.OpLookup {
			st.lookups++
			if sl != nil {
				sl.lookupNs = append(sl.lookupNs, ns)
			}
			if r.Level >= 1 && r.Level <= 4 {
				st.levels[r.Level]++
			}
			st.modeled += r.Latency
		} else {
			st.mutations++
			if sl != nil {
				sl.mutateNs = append(sl.mutateNs, ns)
			}
		}
	}
}

// spreadOps credits a call's n ops to the slices its span [from, to]
// overlaps, in proportion, so a slice's rate does not jump by a whole
// 256-op vector when one ends just past its edge.
func (e *env) spreadOps(slices []sample, from, to time.Time, n float64) {
	a, b := from.Sub(e.start), to.Sub(e.start)
	for k := int(a / e.slice); k < len(slices); k++ {
		lo, hi := time.Duration(k)*e.slice, time.Duration(k+1)*e.slice
		if lo >= b {
			return
		}
		if b <= a {
			slices[k].ops += n
			return
		}
		slices[k].ops += n * float64(min(hi, b)-max(lo, a)) / float64(b-a)
	}
}

// check is the oracle. A populated path must be found at its ground-truth
// home; a client's create must home its fresh path (a pure mutation,
// Level 0); its delete must find the file where that create put it.
func (e *env) check(it item, r ghba.Result) bool {
	switch it.op.Kind {
	case ghba.OpLookup:
		return r.Found && r.Home == int(e.homes[it.idx]) && r.Level >= 1 && r.Level <= 4
	case ghba.OpCreate:
		it.own.home = r.Home
		return r.Found && r.Level == 0 && r.Home >= 0
	default:
		return r.Found && r.Level == 0 && r.Home == it.own.home
	}
}

// measureWindow runs the timed window and returns its wall-clock length.
func (e *env) measureWindow(ctx context.Context, d time.Duration) time.Duration {
	for _, cl := range e.clients {
		cl.st.slices = make([]sample, windowSlices)
	}
	e.slice = d / windowSlices
	e.stolen = make([]float64, windowSlices)
	e.start = time.Now()
	deadline := e.start.Add(d)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := readHostCPU()
		for k := range e.stolen {
			select {
			case <-stop:
				return
			case <-time.After(time.Until(e.start.Add(time.Duration(k+1) * e.slice))):
			}
			cur := readHostCPU()
			e.stolen[k] = stolenShare(prev, cur)
			prev = cur
		}
	}()
	e.runClients(ctx, func(now time.Time, _ int) bool { return !now.Before(deadline) }, true)
	close(stop)
	wg.Wait()
	var end time.Time
	for _, cl := range e.clients {
		if cl.st.end.After(end) {
			end = cl.st.end
		}
	}
	return end.Sub(e.start)
}

// totals merges the clients' stats.
func (e *env) totals() stats {
	var t stats
	for _, cl := range e.clients {
		s := &cl.st
		if t.slices == nil {
			t.slices = make([]sample, len(s.slices))
		}
		for k, sl := range s.slices {
			m := &t.slices[k]
			m.ops += sl.ops
			m.lookupNs = append(m.lookupNs, sl.lookupNs...)
			m.mutateNs = append(m.mutateNs, sl.mutateNs...)
			m.batchNs = append(m.batchNs, sl.batchNs...)
		}
		for l := range t.levels {
			t.levels[l] += s.levels[l]
		}
		t.modeled += s.modeled
		t.ops += s.ops
		t.lookups += s.lookups
		t.mutations += s.mutations
		t.attempted += s.attempted
		t.failed += s.failed
		t.firstErr = errors.Join(t.firstErr, s.firstErr)
	}
	return t
}

// dropSamples releases the latency samples so they do not count in the
// live heap the run reports.
func (e *env) dropSamples() {
	for _, cl := range e.clients {
		cl.st.slices = nil
	}
}

// opsPerSlice is the median over the window's slices of each slice's
// rate. With unstolen set, a slice's rate is per second of CPU time the
// hypervisor left the benchmark: ops / (slice × (1 − stolen share)).
func (e *env) opsPerSlice(ss []sample, unstolen bool) float64 {
	per := make([]float64, len(ss))
	for i, s := range ss {
		per[i] = s.ops / e.slice.Seconds()
		if unstolen {
			per[i] /= 1 - min(e.stolen[i], 0.9)
		}
	}
	return quantile(per, 0.5)
}

// scratchDir makes a fresh directory for the WAL probe.
func scratchDir(base, name string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}
