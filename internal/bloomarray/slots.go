package bloomarray

import "slices"

// slot pairs an MDS ID with the value an array holds for it. Slot slices
// are sorted by ID and never modified once built; with/without copy.
type slot[V any] struct {
	id int
	v  V
}

// find returns the position of id in the sorted slots and whether it is
// present.
func find[V any](s []slot[V], id int) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s) && s[lo].id == id
}

// with returns a fresh sorted slice equal to s with id's value installed or
// replaced.
func with[V any](s []slot[V], id int, v V) []slot[V] {
	i, ok := find(s, id)
	if !ok {
		return slices.Concat(s[:i], []slot[V]{{id: id, v: v}}, s[i:])
	}
	out := slices.Clone(s)
	out[i].v = v
	return out
}

// without returns a fresh slice equal to s minus id, plus the removed value
// and whether id was present (s itself when it was not).
func without[V any](s []slot[V], id int) ([]slot[V], V, bool) {
	i, ok := find(s, id)
	if !ok {
		var zero V
		return s, zero, false
	}
	return slices.Concat(s[:i], s[i+1:]), s[i].v, true
}

// ids returns the IDs of s in ascending order.
func ids[V any](s []slot[V]) []int {
	out := make([]int, len(s))
	for i, e := range s {
		out[i] = e.id
	}
	return out
}
