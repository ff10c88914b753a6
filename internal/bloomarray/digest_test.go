package bloomarray

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"ghba/internal/bloom"
)

// TestArrayQueryDigestEquivalence is the array-level property test: for
// random replica sets and random keys, QueryDigest with a reused buffer must
// return exactly the hits Query does, in the same (ascending) order.
func TestArrayQueryDigestEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		a := NewArray()
		replicas := 1 + rng.Intn(24)
		var paths []string
		for r := 0; r < replicas; r++ {
			f, err := bloom.NewForCapacity(256, 16)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 50; j++ {
				p := fmt.Sprintf("/t%d/r%d/f%d", trial, r, j)
				f.AddString(p)
				paths = append(paths, p)
			}
			a.Put(rng.Intn(1000), f) // random, possibly colliding IDs
		}
		buf := make([]int, 0, 4)
		for i := 0; i < 400; i++ {
			p := paths[rng.Intn(len(paths))]
			if i%5 == 0 {
				p = "/absent/" + strconv.Itoa(i)
			}
			want := a.QueryString(p)
			d := bloom.NewDigestString(p)
			got := a.QueryDigest(&d, buf)
			buf = got.Hits
			if !slices.Equal(got.Hits, want.Hits) {
				t.Fatalf("trial %d path %s: QueryDigest=%v Query=%v", trial, p, got.Hits, want.Hits)
			}
			if !slices.IsSorted(got.Hits) {
				t.Fatalf("trial %d path %s: hits not ascending: %v", trial, p, got.Hits)
			}
		}
	}
}

// TestLRUQueryDigestEquivalence checks the LRU array the same way, across
// generation rotations driven through the digest-based Observe.
func TestLRUQueryDigestEquivalence(t *testing.T) {
	l, err := NewLRUArray(32, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	var paths []string
	for i := 0; i < 400; i++ {
		p := "/lru/f" + strconv.Itoa(i)
		paths = append(paths, p)
		d := bloom.NewDigestString(p)
		l.ObserveDigest(&d, rng.Intn(8))
	}
	buf := make([]int, 0, 4)
	for i := 0; i < 600; i++ {
		p := paths[rng.Intn(len(paths))]
		if i%4 == 0 {
			p = "/lru/absent" + strconv.Itoa(i)
		}
		want := l.QueryString(p)
		d := bloom.NewDigestString(p)
		got := l.QueryDigest(&d, buf)
		buf = got.Hits
		if !slices.Equal(got.Hits, want.Hits) {
			t.Fatalf("path %s: QueryDigest=%v Query=%v", p, got.Hits, want.Hits)
		}
	}
}

// TestObserveDigestMatchesObserve checks that the digest-based Observe path
// leaves the array in exactly the state the key-based path would: same hits
// for every key, same rotation points.
func TestObserveDigestMatchesObserve(t *testing.T) {
	byKey, err := NewLRUArray(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	byDigest, err := NewLRUArray(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		p := "/obs/f" + strconv.Itoa(rng.Intn(100))
		home := rng.Intn(5)
		byKey.ObserveString(p, home)
		d := bloom.NewDigestString(p)
		byDigest.ObserveDigest(&d, home)
	}
	for i := 0; i < 100; i++ {
		p := "/obs/f" + strconv.Itoa(i)
		a, b := byKey.QueryString(p), byDigest.QueryString(p)
		if !slices.Equal(a.Hits, b.Hits) {
			t.Fatalf("path %s: key-observed=%v digest-observed=%v", p, a.Hits, b.Hits)
		}
	}
}

// TestIDBFALocateDigestEquivalence checks the replica-location array.
func TestIDBFALocateDigestEquivalence(t *testing.T) {
	a := NewDefaultIDBFA()
	for m := 0; m < 7; m++ {
		if err := a.AddMember(m); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 60; i++ {
		if err := a.Grant(rng.Intn(7), rng.Intn(40)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]int, 0, 4)
	for origin := 0; origin < 40; origin++ {
		want := a.Locate(origin)
		d := bloom.NewDigestString(strconv.Itoa(origin))
		got := a.LocateDigest(&d, buf)
		buf = got
		if !slices.Equal(got, want) {
			t.Fatalf("origin %d: LocateDigest=%v Locate=%v", origin, got, want)
		}
	}
}

// slotFixture is one array type after a random interleaving of its
// structural writes, paired with a brute-force reference: for every live
// ID, a predicate probing filters kept independently of the array.
type slotFixture struct {
	query func(d *bloom.Digest, buf []int) []int // the array's probe
	ids   []int                                  // the array's IDs
	ref   map[int]func(d *bloom.Digest) bool
	keys  []string // probe keys: hits, multi-hits and misses
}

// want is the brute-force answer: every live ID, in ascending order, whose
// reference predicate accepts d.
func (f slotFixture) want(d *bloom.Digest) []int {
	var hits []int
	for _, id := range slices.Sorted(maps.Keys(f.ref)) {
		if f.ref[id](d) {
			hits = append(hits, id)
		}
	}
	return hits
}

// slotCases builds each slot-slice array — the L2 Array, the L1 LRUArray
// and the IDBFA — through its own structural writes.
var slotCases = []struct {
	name  string
	build func(t *testing.T, rng *rand.Rand) slotFixture
}{
	{"array", func(t *testing.T, rng *rand.Rand) slotFixture {
		// Interleaved Put/Remove over 64 IDs.
		a := NewArray()
		live := map[int]*bloom.Filter{}
		for i := 0; i < 500; i++ {
			id := rng.Intn(64)
			if live[id] != nil && rng.Intn(2) == 0 {
				if a.Remove(id) != live[id] {
					t.Fatalf("Remove(%d) did not return the live replica", id)
				}
				delete(live, id)
				continue
			}
			f, err := bloom.NewForCapacity(64, 8)
			if err != nil {
				t.Fatal(err)
			}
			f.AddString("/slice/" + strconv.Itoa(id))
			a.Put(id, f)
			live[id] = f
		}
		fx := slotFixture{ids: a.IDs(), ref: map[int]func(*bloom.Digest) bool{}}
		fx.query = func(d *bloom.Digest, buf []int) []int { return a.QueryDigest(d, buf).Hits }
		for id, f := range live {
			fx.ref[id] = f.ContainsDigest
		}
		for id := 0; id < 64; id++ {
			fx.keys = append(fx.keys, "/slice/"+strconv.Itoa(id))
		}
		return fx
	}},
	{"l1", func(t *testing.T, rng *rand.Rand) slotFixture {
		// 30 homes, interleaved ObserveDigest and Forget. Generations hold
		// 16 keys, so homes rotate; files are shared across homes, so
		// multi-hits occur. The reference is one single-home array per
		// home, rebuilt from scratch after a Forget.
		const capacity = 16
		newLRU := func() *LRUArray {
			l, err := NewLRUArray(capacity, 16)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		l, shadow := newLRU(), map[int]*LRUArray{}
		for i := 0; i < 3000; i++ {
			home := rng.Intn(30)
			if rng.Intn(25) == 0 {
				l.Forget(home)
				delete(shadow, home)
				continue
			}
			if shadow[home] == nil {
				shadow[home] = newLRU()
			}
			d := bloom.NewDigestString("/l1/f" + strconv.Itoa(rng.Intn(200)))
			l.ObserveDigest(&d, home)
			shadow[home].ObserveDigest(&d, home)
		}
		rotated := 0
		for _, e := range l.snapshot() {
			if e.v.aged != nil {
				rotated++
			}
		}
		if rotated == 0 {
			t.Fatal("no home rotated its generations")
		}
		fx := slotFixture{ids: ids(l.snapshot()), ref: map[int]func(*bloom.Digest) bool{}}
		fx.query = func(d *bloom.Digest, buf []int) []int { return l.QueryDigest(d, buf).Hits }
		for home, one := range shadow {
			fx.ref[home] = func(d *bloom.Digest) bool { return !one.QueryDigest(d, nil).Miss() }
		}
		for f := 0; f < 220; f++ {
			fx.keys = append(fx.keys, "/l1/f"+strconv.Itoa(f))
		}
		return fx
	}},
	{"idbfa", func(t *testing.T, rng *rand.Rand) slotFixture {
		// Interleaved AddMember/RemoveMember/Grant over 20 members and 50
		// origins, mirrored onto standalone counting filters.
		a, live := NewDefaultIDBFA(), map[int]*bloom.CountingFilter{}
		for i := 0; i < 600; i++ {
			m := rng.Intn(20)
			switch {
			case live[m] == nil:
				if err := a.AddMember(m); err != nil {
					t.Fatal(err)
				}
				cf, err := bloom.NewCounting(DefaultIDBFABits, DefaultIDBFAHashes)
				if err != nil {
					t.Fatal(err)
				}
				live[m] = cf
			case rng.Intn(6) == 0:
				a.RemoveMember(m)
				delete(live, m)
			default:
				o := rng.Intn(50)
				if err := a.Grant(m, o); err != nil {
					t.Fatal(err)
				}
				live[m].Add(originKey(o))
			}
		}
		fx := slotFixture{ids: a.Members(), ref: map[int]func(*bloom.Digest) bool{}}
		fx.query = a.LocateDigest
		for m, cf := range live {
			fx.ref[m] = cf.ContainsDigest
		}
		for o := 0; o < 60; o++ {
			fx.keys = append(fx.keys, strconv.Itoa(o))
		}
		return fx
	}},
}

// TestArrayQueryDigestZeroAlloc pins the allocation contract of every
// slot-slice probe: with a reused buffer, a query allocates nothing.
func TestArrayQueryDigestZeroAlloc(t *testing.T) {
	for _, c := range slotCases {
		t.Run(c.name, func(t *testing.T) {
			fx := c.build(t, rand.New(rand.NewSource(16)))
			buf := make([]int, 0, 64)
			for _, k := range fx.keys {
				d := bloom.NewDigestString(k)
				if allocs := testing.AllocsPerRun(100, func() {
					buf = fx.query(&d, buf)
				}); allocs != 0 {
					t.Fatalf("query(%s) allocates %.1f objects/op, want 0", k, allocs)
				}
			}
		})
	}
}

// TestArraySliceStorage exercises the sorted-slice mutations around the
// query path: after interleaved structural writes, IDs stay ordered and
// every query is exactly the brute-force answer, hits ascending.
func TestArraySliceStorage(t *testing.T) {
	for _, c := range slotCases {
		t.Run(c.name, func(t *testing.T) {
			fx := c.build(t, rand.New(rand.NewSource(15)))
			if want := slices.Sorted(maps.Keys(fx.ref)); !slices.Equal(fx.ids, want) {
				t.Fatalf("IDs = %v, want %v", fx.ids, want)
			}
			buf, hits := make([]int, 0, 4), 0
			for _, k := range fx.keys {
				d := bloom.NewDigestString(k)
				buf = fx.query(&d, buf)
				if want := fx.want(&d); !slices.Equal(buf, want) {
					t.Fatalf("query(%s) = %v, brute force %v", k, buf, want)
				}
				if !slices.IsSorted(buf) {
					t.Fatalf("query(%s) hits not ascending: %v", k, buf)
				}
				hits += len(buf)
			}
			if hits == 0 {
				t.Fatal("no probe key hit: the fixture is vacuous")
			}
		})
	}
}
