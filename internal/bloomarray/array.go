// Package bloomarray builds the three array structures G-HBA layers on top
// of plain Bloom filters:
//
//   - Array: an ordered set of (MDS id, filter) entries queried with the
//     paper's unique-hit semantics — an answer counts only when exactly one
//     filter responds positively; zero or multiple hits escalate the lookup
//     to the next level of the hierarchy.
//   - LRUArray (lru.go): the L1 structure capturing temporal locality with
//     per-MDS aging filters.
//   - IDBFA (idbfa.go): the counting-filter array each MDS keeps to locate
//     which group member currently stores which Bloom-filter replica.
//
// All three share one representation (slots.go): an immutable slice of
// (MDS id, value) slots sorted by ID, which writers replace rather than
// modify. Scans therefore yield hits in ascending ID order without sorting,
// point lookups are binary searches, and the two lock-free arrays publish
// each new slice through an atomic pointer.
package bloomarray

import (
	"fmt"
	"iter"
	"slices"
	"sync"
	"sync/atomic"

	"ghba/internal/bloom"
)

// Result is the outcome of querying an array: the IDs of all filters that
// answered positively, in ascending order.
//
// Hits may alias a caller-provided scratch buffer (see QueryDigest); it is
// valid until that buffer's next reuse.
type Result struct {
	// Hits lists the MDS IDs whose filters responded positively.
	Hits []int
}

// Unique returns the single hit and true when exactly one filter responded,
// which is the only case the G-HBA query path treats as an answer. On a miss
// or a multi-hit it returns -1 — never a valid MDS ID — so a caller that
// drops the bool cannot silently route to MDS 0.
func (r Result) Unique() (int, bool) {
	if len(r.Hits) == 1 {
		return r.Hits[0], true
	}
	return -1, false
}

// InsertSorted inserts v into ascending xs unless present, preserving order
// and uniqueness — the shared primitive for folding an MDS ID into a sorted
// hit list (mds.QueryL2's own-ID insert, core's L3 hit union) without
// re-sorting.
//
//ghbavet:hotpath
func InsertSorted(xs []int, v int) []int {
	for i, x := range xs {
		if x == v {
			return xs
		}
		if x > v {
			xs = append(xs, 0)
			copy(xs[i+1:], xs[i:])
			xs[i] = v
			return xs
		}
	}
	return append(xs, v)
}

// Miss reports whether no filter responded.
func (r Result) Miss() bool { return len(r.Hits) == 0 }

// Multiple reports whether more than one filter responded, which forces the
// same escalation as a miss (the array cannot disambiguate).
func (r Result) Multiple() bool { return len(r.Hits) > 1 }

// Array is a collection of Bloom-filter replicas keyed by the ID of the MDS
// whose file set each filter summarizes. It is the representation of the L2
// segment array and, in the HBA baseline, of the full global replica array.
//
// Storage is the package's sorted slot slice, published through an atomic
// pointer (copy-on-write): queries load the current snapshot with no lock
// acquisition and scan it — a cache-friendly linear pass that yields hits
// already in ascending order (no per-query sort, no map iteration), which is
// what lets QueryDigest run allocation- and lock-free. Writers (replica
// refreshes from coalescing shippers, reconfiguration moves) serialize on an
// internal mutex, build a new slice, and swap it in; a reader that loaded the
// previous snapshot finishes against it, which is indistinguishable from the
// reader having run just before the write.
//
// Filters handed to Put are stored by reference and must not be mutated
// afterwards; refreshes replace the pointer wholesale. That immutability is
// what makes the published snapshot safe to probe without synchronization.
type Array struct {
	mu    sync.Mutex // serializes writers; readers never take it
	slots atomic.Pointer[[]slot[*bloom.Filter]]
}

// NewArray returns an empty array.
func NewArray() *Array {
	a := &Array{}
	a.slots.Store(&[]slot[*bloom.Filter]{})
	return a
}

// snapshot returns the current published slot slice. The slice is immutable;
// callers may scan it freely but must not modify it.
func (a *Array) snapshot() []slot[*bloom.Filter] {
	return *a.slots.Load()
}

// Put installs or replaces the replica for the given MDS ID.
func (a *Array) Put(mdsID int, f *bloom.Filter) {
	a.mu.Lock()
	defer a.mu.Unlock()
	next := with(a.snapshot(), mdsID, f)
	a.slots.Store(&next)
}

// Get returns the replica for mdsID, or nil if absent.
func (a *Array) Get(mdsID int) *bloom.Filter {
	s := a.snapshot()
	if i, ok := find(s, mdsID); ok {
		return s[i].v
	}
	return nil
}

// Remove deletes the replica for mdsID, returning it (nil if absent).
func (a *Array) Remove(mdsID int) *bloom.Filter {
	a.mu.Lock()
	defer a.mu.Unlock()
	next, f, ok := without(a.snapshot(), mdsID)
	if ok {
		a.slots.Store(&next)
	}
	return f
}

// Has reports whether the array holds a replica for mdsID.
func (a *Array) Has(mdsID int) bool {
	_, ok := find(a.snapshot(), mdsID)
	return ok
}

// Len returns the number of replicas held.
func (a *Array) Len() int {
	return len(a.snapshot())
}

// IDs returns the MDS IDs of all held replicas in ascending order.
func (a *Array) IDs() []int {
	return ids(a.snapshot())
}

// Query checks key against every filter and returns all positive responders.
func (a *Array) Query(key []byte) Result {
	d := bloom.NewDigest(key)
	return a.QueryDigest(&d, nil)
}

// QueryString checks a string key against every filter.
func (a *Array) QueryString(key string) Result {
	d := bloom.NewDigestString(key)
	return a.QueryDigest(&d, nil)
}

// QueryDigest checks a pre-hashed key against every filter: one atomic
// snapshot load, then a scan over the sorted slots at k word loads per
// filter (one cache line per filter for blocked layouts), hits appended into
// buf (which may be nil). Hits come out in ascending ID order by
// construction. Passing a reused buffer makes the query allocation-free; no
// lock is taken at any point.
//
//ghbavet:hotpath
func (a *Array) QueryDigest(d *bloom.Digest, buf []int) Result {
	s := a.snapshot()
	hits := buf[:0]
	for i := range s {
		if s[i].v.ContainsDigest(d) {
			hits = append(hits, s[i].id)
		}
	}
	return Result{Hits: hits}
}

// SizeBytes returns the total in-memory footprint of all held replicas; the
// memory model charges this against the per-MDS RAM budget.
func (a *Array) SizeBytes() uint64 {
	var total uint64
	for _, e := range a.snapshot() {
		total += e.v.SizeBytes()
	}
	return total
}

// Clone returns a deep copy of the array (each filter is cloned).
func (a *Array) Clone() *Array {
	next := slices.Clone(a.snapshot())
	for i := range next {
		next[i].v = next[i].v.Clone()
	}
	c := &Array{}
	c.slots.Store(&next)
	return c
}

// PopRandom removes count replicas and yields them in deterministic
// ascending-ID order, used when a group member offloads replicas to a newly
// joined MDS. The paper offloads "randomly"; a deterministic order preserves
// the same balance property while keeping simulations reproducible. It
// yields fewer than count entries when the array is smaller.
func (a *Array) PopRandom(count int) iter.Seq2[int, *bloom.Filter] {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.snapshot()
	count = min(max(count, 0), len(s))
	next := s[count:] // published slices are immutable, so the tail can be shared
	a.slots.Store(&next)
	popped := s[:count]
	return func(yield func(int, *bloom.Filter) bool) {
		for _, e := range popped {
			if !yield(e.id, e.v) {
				return
			}
		}
	}
}

// MergeFrom moves every replica of src into a, failing on duplicate IDs so
// that the "each replica resides exclusively on one MDS" invariant is caught
// at the point of violation. Merging only happens during reconfiguration,
// which holds the cluster-exclusive lock, so the fixed a-then-src lock order
// cannot deadlock against a concurrent merge of the reverse pair.
func (a *Array) MergeFrom(src *Array) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	src.mu.Lock()
	defer src.mu.Unlock()
	merged := a.snapshot()
	for _, e := range src.snapshot() {
		if _, ok := find(merged, e.id); ok {
			return fmt.Errorf("bloomarray: duplicate replica for MDS %d during merge", e.id)
		}
		merged = with(merged, e.id, e.v)
	}
	a.slots.Store(&merged)
	src.slots.Store(&[]slot[*bloom.Filter]{})
	return nil
}
