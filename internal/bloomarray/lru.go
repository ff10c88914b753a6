package bloomarray

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ghba/internal/bloom"
)

// LRUArray is the L1 structure of G-HBA: one small Bloom filter per MDS
// recording the files recently confirmed to be homed at that MDS. Because a
// plain Bloom filter cannot evict, recency is approximated with the standard
// two-generation aging scheme: each entry keeps an active and an aged
// filter; inserts go to the active one, lookups consult both, and when the
// active filter has absorbed its capacity the generations rotate (the aged
// one is discarded). The effect is a sliding window covering between one and
// two capacities of the most recent insertions, which is exactly the "hot
// data" set the paper wants L1 to capture.
//
// Concurrency follows the epoch-snapshot idiom of the rest of the read
// path: one generation pair per MDS in a sorted slot slice published
// through an atomic pointer. Queries (and the Observe fast path for
// already-recorded hot keys) load the snapshot and probe filters with
// atomic word reads — no lock, ever. Structural writes — a new MDS entry, a
// generation rotation, Forget, Reset — serialize on an internal mutex and
// swap in a new slice; a published pair is never modified, only replaced.
// Non-structural inserts (AddDigest into a published active filter) also
// run under the mutex and are safe against concurrent readers because
// filter bit-sets synchronize word-wise.
type LRUArray struct {
	mu          sync.Mutex // serializes writers; readers never take it
	capacity    uint64     // insertions per generation, per MDS
	bitsPerItem float64    // filter ratio for each generation
	layout      bloom.Layout
	slots       atomic.Pointer[[]slot[agingFilter]]
}

// agingFilter is a two-generation filter pair for one MDS. Published pairs
// are immutable: rotation and entry creation replace the whole slot.
type agingFilter struct {
	active *bloom.Filter
	aged   *bloom.Filter
}

// NewLRUArray creates an LRU array whose per-MDS generations hold capacity
// recent files at the given bits-per-item ratio, using the classic filter
// layout.
func NewLRUArray(capacity uint64, bitsPerItem float64) (*LRUArray, error) {
	return NewLRUArrayLayout(capacity, bitsPerItem, bloom.LayoutClassic)
}

// NewLRUArrayLayout is NewLRUArray with an explicit filter layout; blocked
// generations answer each probe from a single cache line.
func NewLRUArrayLayout(capacity uint64, bitsPerItem float64, layout bloom.Layout) (*LRUArray, error) {
	if capacity == 0 || bitsPerItem <= 0 {
		return nil, fmt.Errorf("%w: capacity=%d bits/item=%f",
			bloom.ErrInvalidGeometry, capacity, bitsPerItem)
	}
	l := &LRUArray{
		capacity:    capacity,
		bitsPerItem: bitsPerItem,
		layout:      layout,
	}
	l.slots.Store(&[]slot[agingFilter]{})
	return l, nil
}

// snapshot returns the current published slot slice. The slice is
// immutable; callers may scan it freely but must not modify it.
func (l *LRUArray) snapshot() []slot[agingFilter] {
	return *l.slots.Load()
}

func (l *LRUArray) newGeneration() *bloom.Filter {
	f, err := bloom.NewForCapacityLayout(l.capacity, l.bitsPerItem, l.layout)
	if err != nil {
		// Geometry was validated in the constructor; reaching here means
		// internal corruption, not caller error.
		panic(fmt.Sprintf("bloomarray: invalid LRU generation geometry: %v", err))
	}
	return f
}

// Observe records that key was confirmed to live at homeMDS, rotating that
// MDS's generations if the active filter is full.
func (l *LRUArray) Observe(key []byte, homeMDS int) {
	d := bloom.NewDigest(key)
	l.ObserveDigest(&d, homeMDS)
}

// ObserveString records a string key.
func (l *LRUArray) ObserveString(key string, homeMDS int) {
	d := bloom.NewDigestString(key)
	l.ObserveDigest(&d, homeMDS)
}

// ObserveDigest records a pre-hashed confirmed (key → homeMDS) mapping. The
// key is hashed exactly once: the lock-free fast path and the write-path
// insert both consume the caller's digest.
//
// The hot case — re-observing a key already in the current generation — is
// answered from the published snapshot without any lock, so parallel lookup
// workers hammering the same hot files do not serialize. Skipping the re-add
// leaves the filter bits unchanged but also leaves the generation's
// insertion counter where it was, so rotation is driven by (approximately)
// distinct recent files rather than raw observation count: a hot set smaller
// than capacity stays resident instead of being aged out by its own
// repetitions, which is the window the paper wants L1 to capture. Only new
// keys (and rotations) take the write lock.
func (l *LRUArray) ObserveDigest(d *bloom.Digest, homeMDS int) {
	s := l.snapshot()
	if i, ok := find(s, homeMDS); ok &&
		s[i].v.active.Count() < l.capacity && s[i].v.active.ContainsDigest(d) {
		return
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	s = l.snapshot()
	i, ok := find(s, homeMDS)
	if ok && s[i].v.active.Count() < l.capacity {
		// In-place insert into the published active generation: word-wise
		// atomic, safe against lock-free probes.
		s[i].v.active.AddDigest(d)
		return
	}
	// A first observation or a rotation publishes a new pair with the key
	// already inserted, so no reader sees an empty active filter about to
	// change shape; the replaced pair stays intact for in-flight readers.
	next := agingFilter{active: l.newGeneration()}
	if ok {
		next.aged = s[i].v.active
	}
	next.active.AddDigest(d)
	published := with(s, homeMDS, next)
	l.slots.Store(&published)
}

// Query returns every MDS whose recent-file window may contain key, with the
// same unique-hit contract as Array.Query.
func (l *LRUArray) Query(key []byte) Result {
	d := bloom.NewDigest(key)
	return l.QueryDigest(&d, nil)
}

// QueryString checks a string key.
func (l *LRUArray) QueryString(key string) Result {
	d := bloom.NewDigestString(key)
	return l.QueryDigest(&d, nil)
}

// QueryDigest checks a pre-hashed key against every entry of the current
// snapshot, appending hits into buf (which may be nil). Both generations of
// an entry share the digest's cached probe positions, so each entry costs at
// most 2k word loads; with a reused buffer the query neither allocates nor
// locks.
//
//ghbavet:hotpath
func (l *LRUArray) QueryDigest(d *bloom.Digest, buf []int) Result {
	s := l.snapshot()
	hits := buf[:0]
	for i := range s {
		if s[i].v.active.ContainsDigest(d) || (s[i].v.aged != nil && s[i].v.aged.ContainsDigest(d)) {
			hits = append(hits, s[i].id)
		}
	}
	return Result{Hits: hits}
}

// Forget drops the entry for an MDS, used when that MDS leaves the system so
// stale L1 hits cannot route requests to a dead server.
func (l *LRUArray) Forget(mdsID int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if next, _, ok := without(l.snapshot(), mdsID); ok {
		l.slots.Store(&next)
	}
}

// Reset clears every entry.
func (l *LRUArray) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.slots.Store(&[]slot[agingFilter]{})
}

// Entries returns the number of MDSs currently tracked.
func (l *LRUArray) Entries() int {
	return len(l.snapshot())
}

// SizeBytes returns the memory footprint of all generations.
func (l *LRUArray) SizeBytes() uint64 {
	var total uint64
	for _, e := range l.snapshot() {
		total += e.v.active.SizeBytes()
		if e.v.aged != nil {
			total += e.v.aged.SizeBytes()
		}
	}
	return total
}
