package shard

import "testing"

func TestRangePartition(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{0, 1}, {1, 1}, {7, 1}, {7, 2}, {7, 7}, {60, 7}, {100, 16}, {5, 5},
	} {
		prev := 0
		for s := 0; s < tc.k; s++ {
			lo, hi := Range(tc.n, tc.k, s)
			if lo != prev {
				t.Fatalf("n=%d k=%d: shard %d starts at %d, want %d (gap or overlap)", tc.n, tc.k, s, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d k=%d: shard %d has negative range [%d,%d)", tc.n, tc.k, s, lo, hi)
			}
			if size := hi - lo; size > tc.n/tc.k+1 || size < tc.n/tc.k {
				t.Fatalf("n=%d k=%d: shard %d size %d not balanced", tc.n, tc.k, s, size)
			}
			prev = hi
		}
		if prev != tc.n {
			t.Fatalf("n=%d k=%d: partition covers [0,%d), want [0,%d)", tc.n, tc.k, prev, tc.n)
		}
	}
}
