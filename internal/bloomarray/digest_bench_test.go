package bloomarray

import (
	"fmt"
	"sort"
	"testing"

	"ghba/internal/bloom"
)

// benchArray builds a 16-replica segment array — the paper-scale L2 array a
// G-HBA server holds at N≈100, M≈6 — with every filter populated.
func benchArray(b *testing.B) (*Array, []string) {
	b.Helper()
	a := NewArray()
	var paths []string
	for r := 0; r < 16; r++ {
		f, err := bloom.NewForCapacity(10_000, 16)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 2_000; j++ {
			p := fmt.Sprintf("/bench/r%d/dir%d/file%d", r, j%37, j)
			f.AddString(p)
			if j%200 == 0 {
				paths = append(paths, p)
			}
		}
		a.Put(r, f)
	}
	return a, paths
}

// benchLRU builds a 30-home L1 array at the default generation size in
// which every home has rotated once, so both generations are populated.
func benchLRU(b *testing.B) (*LRUArray, []string) {
	b.Helper()
	const capacity = 2_048
	l, err := NewLRUArray(capacity, 16)
	if err != nil {
		b.Fatal(err)
	}
	var paths []string
	for home := 0; home < 30; home++ {
		for j := 0; j < capacity*3/2; j++ {
			p := fmt.Sprintf("/bench/l1/h%d/file%d", home, j)
			d := bloom.NewDigestString(p)
			l.ObserveDigest(&d, home)
			if j%300 == 0 {
				paths = append(paths, p)
			}
		}
	}
	return l, paths
}

// BenchmarkArrayQuery compares the hash-once probe against the seed
// implementation's cost model on a 16-replica array. The "perprobe-rehash"
// case replicates what Array.QueryString did before the digest pipeline:
// one []byte conversion per query, a full key hash plus k mod reductions
// per filter, a fresh hits slice, and a per-query sort. The "digest" case
// is the shipped path: hash once, k positions once, 16×k word loads, hits
// appended into a reused buffer in order. The "l1-digest" case runs the
// same probe over a 30-home L1 array.
func BenchmarkArrayQuery(b *testing.B) {
	a, paths := benchArray(b)

	b.Run("perprobe-rehash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			key := []byte(paths[i%len(paths)])
			var hits []int
			for _, e := range a.snapshot() {
				if e.v.Contains(key) {
					hits = append(hits, e.id)
				}
			}
			sort.Ints(hits)
			if len(hits) == 0 {
				b.Fatal("populated key missed")
			}
		}
	})

	b.Run("digest", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]int, 0, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := bloom.NewDigestString(paths[i%len(paths)])
			r := a.QueryDigest(&d, buf)
			buf = r.Hits
			if len(r.Hits) == 0 {
				b.Fatal("populated key missed")
			}
		}
	})

	b.Run("l1-digest", func(b *testing.B) {
		// The L1 probe over the same slot representation: 30 homes, each
		// with an aged and an active generation, both probed on a miss.
		l, paths := benchLRU(b)
		buf := make([]int, 0, 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := bloom.NewDigestString(paths[i%len(paths)])
			r := l.QueryDigest(&d, buf)
			buf = r.Hits
			if len(r.Hits) == 0 {
				b.Fatal("observed key missed")
			}
		}
	})

	b.Run("query-string", func(b *testing.B) {
		// The compatibility entry point, now digest-backed internally.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if a.QueryString(paths[i%len(paths)]).Miss() {
				b.Fatal("populated key missed")
			}
		}
	})
}

// BenchmarkFilterContainsDigest isolates one replica probe: the digest case
// is k word loads against cached positions.
func BenchmarkFilterContainsDigest(b *testing.B) {
	f, err := bloom.NewForCapacity(50_000, 16)
	if err != nil {
		b.Fatal(err)
	}
	const key = "/bench/one/replica/probe.dat"
	f.AddString(key)

	b.Run("contains-rehash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !f.ContainsString(key) {
				b.Fatal("miss")
			}
		}
	})
	b.Run("digest", func(b *testing.B) {
		b.ReportAllocs()
		d := bloom.NewDigestString(key)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !f.ContainsDigest(&d) {
				b.Fatal("miss")
			}
		}
	})
}
