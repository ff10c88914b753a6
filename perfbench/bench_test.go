package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"ghba"
	"ghba/internal/core"
)

func firstItems(w workload, seed int64, client, n int) []ghba.Op {
	s := newStream(w, newNamespace(seed, 2000), seed, client)
	out := make([]ghba.Op, n)
	for i := range out {
		out[i] = s.next().op
	}
	return out
}

func TestStreamIsPureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		for c := 0; c < clients; c++ {
			a, b := firstItems(w, 7, c, 5000), firstItems(w, 7, c, 5000)
			if !slices.Equal(a, b) {
				t.Errorf("%s client %d: same seed gave different streams", w.name, c)
			}
			if slices.Equal(a, firstItems(w, 8, c, 5000)) {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same stream", w.name, c)
			}
		}
	}
	a, b, c := newArrivalClock(7), newArrivalClock(7), newArrivalClock(8)
	for _, i := range []uint64{0, 1, 4095, 4096, 123456} {
		if a.at(i) != b.at(i) {
			t.Errorf("arrival %d differs for the same seed", i)
		}
	}
	if a.at(1) == c.at(1) || a.at(5000) <= a.at(4999) {
		t.Error("arrival clock ignores its seed or is not increasing")
	}
}

func TestClientPathsDisjoint(t *testing.T) {
	w, _ := findWorkload("sim-hot-mixed")
	ns := newNamespace(3, 2000)
	owner := map[string]int{}
	for _, p := range ns.names {
		owner[p] = -1
	}
	for c := 0; c < clients; c++ {
		s := newStream(w, ns, 3, c)
		creates, deletes := 0, 0
		for i := 0; i < 20000; i++ {
			op := s.next().op
			switch op.Kind {
			case ghba.OpCreate:
				creates++
				if o, ok := owner[op.Path]; ok {
					t.Fatalf("client %d creates %q, already owned by %d", c, op.Path, o)
				}
				owner[op.Path] = c
			case ghba.OpDelete:
				deletes++
				if owner[op.Path] != c {
					t.Fatalf("client %d deletes %q, owned by %d", c, op.Path, owner[op.Path])
				}
			}
		}
		if creates < 3600 || creates > 4400 || deletes < 1700 || deletes > 2300 {
			t.Errorf("client %d: %d creates, %d deletes in 20000 ops; want about 20%% and 10%%", c, creates, deletes)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func names(xs []struct{ Name, Unit, Better string }) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.Name
	}
	return out
}

func TestBenchmarkFileMatchesCommand(t *testing.T) {
	bf := readBenchmarkFile(t)
	var ws []string
	for _, w := range bf.Workloads {
		ws = append(ws, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(ws, ours) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", ws, ours)
	}
	if got := names(bf.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, command emits %v", got, endToEnd)
	}
	if got := names(bf.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, command emits %v", got, perLayer)
	}
	for _, n := range append(append(append([]string{}, ws...), endToEnd...), perLayer...) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+ of at most 64", n)
		}
	}
}

// TestEngineMatchesFacade pins engineConfig to the configuration ghba.New
// derives: the traced sim run drives that engine in the facade's place.
func TestEngineMatchesFacade(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"sim-cold-read", "sim-hot-mixed"} {
		w, _ := findWorkload(name)
		ns := newNamespace(5, 20000)
		sim, err := ghba.New(facadeConfig(w, 5))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.New(engineConfig(w, 5))
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.CreateAll(ctx, ns.names); err != nil {
			t.Fatal(err)
		}
		eng.Populate(eachName(ns.names))
		r1, r2 := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
		ids := eng.MDSIDs()
		for i := 0; i < 20000; i++ {
			p := ns.names[(i*7919)%len(ns.names)]
			if sim.HomeOf(p) != eng.HomeOf(p) {
				t.Fatalf("%s: %q homed at %d by the facade, %d by the engine", name, p, sim.HomeOf(p), eng.HomeOf(p))
			}
			a, err := sim.LookupWith(ctx, r1, p)
			if err != nil {
				t.Fatal(err)
			}
			b := eng.LookupWith(r2, p, ids[r2.Intn(len(ids))])
			if a.Home != b.Home || a.Level != b.Level || a.Latency != b.Latency {
				t.Fatalf("%s: lookup %d of %q: facade %+v, engine %+v", name, i, p, a, b)
			}
		}
	}
}

// tiny shrinks a workload so that a run takes well under a second.
func tiny(w workload) workload {
	w.files = 3000
	w.warm = min(w.warm, 200)
	if w.batch > 0 {
		w.batch, w.warm = 32, 5
	}
	return w
}

func TestTinyRunsAreCorrect(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opts := options{seed: 11, window: 300 * time.Millisecond, trace: traced, workDir: t.TempDir()}
			rep, res, err := run(context.Background(), tiny(w), opts)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || rep.Metrics["error_rate"].Value != 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", w.name, traced, res.Failed, res.Attempted, rep.Notes)
			}
			want := names(bf.EndToEnd)
			if traced {
				want = names(bf.PerLayer)
			}
			var got []string
			for n := range res.Metrics {
				got = append(got, n)
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: emitted %v, BENCHMARK.json declares %v", w.name, traced, got, want)
			}
			if !traced && res.Metrics["ops_per_s"].Value <= 0 {
				t.Errorf("%s: ops_per_s %v", w.name, res.Metrics["ops_per_s"].Value)
			}
			if traced && !strings.HasPrefix(rep.Notes[len(rep.Notes)-1], "spans: ") {
				t.Errorf("%s: no span file in notes %v", w.name, rep.Notes)
			}
		}
	}
}
