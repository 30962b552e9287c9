package svm

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestKernelCacheMatchesDirect(t *testing.T) {
	p := overlappingBlobs(40)
	dist := SqDistMatrix(p.X)
	c := NewKernelCache(dist, 2)
	for _, gamma := range []float64{1e-5, 0.1, 1} {
		got := c.Matrix(gamma)
		for i := range dist {
			for j := range dist[i] {
				want := math.Exp(-gamma * dist[i][j])
				if math.Float64bits(got[i][j]) != math.Float64bits(want) {
					t.Fatalf("γ=%v K[%d][%d] = %v, want %v", gamma, i, j, got[i][j], want)
				}
			}
		}
	}
}

func TestKernelCacheHitsAndEviction(t *testing.T) {
	p := overlappingBlobs(20)
	c := NewKernelCache(SqDistMatrix(p.X), 2)

	a := c.Matrix(0.5)
	if b := c.Matrix(0.5); &b[0][0] != &a[0][0] {
		t.Fatal("second request recomputed the matrix")
	}
	c.Matrix(1.0)
	c.Matrix(2.0) // capacity 2: evicts the LRU entry (γ=0.5)
	st := c.Stats()
	if st.Misses != 3 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 3 misses / 1 hit", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v, want at least one eviction", st)
	}
	if b := c.Matrix(0.5); &b[0][0] == &a[0][0] {
		t.Fatal("evicted entry was still served from cache")
	}
}

// TestKernelCacheConcurrent hammers one γ from many goroutines: the
// matrix must be computed once and shared (run under -race this also
// checks the publication discipline).
func TestKernelCacheConcurrent(t *testing.T) {
	p := overlappingBlobs(30)
	c := NewKernelCache(SqDistMatrix(p.X), 2)
	const goroutines = 16
	rows := make([][][]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rows[g] = c.Matrix(0.25)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if &rows[g][0][0] != &rows[0][0][0] {
			t.Fatal("concurrent requesters got distinct matrices")
		}
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
}

// TestCrossValidateKernelMatchesReference locks the bit-exact
// equivalence between the kernel-lookup CV path and the dist-based
// reference path, including with class weights.
func TestCrossValidateKernelMatchesReference(t *testing.T) {
	p := overlappingBlobs(75)
	dist := SqDistMatrix(p.X)
	cache := NewKernelCache(dist, 2)
	for _, params := range []Params{
		{C: 10, Gamma: 0.5},
		{C: 1e4, Gamma: 1e-3, WeightPos: 3, WeightNeg: 0.6},
		{C: 1, Gamma: 1},
	} {
		want, err := CrossValidate(p, params, dist, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CrossValidateContext(context.Background(), p, params, cache.Matrix(params.Gamma), 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cvBits(got), cvBits(want)) {
			t.Fatalf("params %+v: kernel path %+v != reference %+v", params, got, want)
		}
	}
}

func cvBits(r CVResult) [5]uint64 {
	return [5]uint64{
		math.Float64bits(r.Acc1),
		math.Float64bits(r.Acc2),
		math.Float64bits(r.FScore),
		math.Float64bits(r.PredictedPos),
		uint64(r.CappedFolds),
	}
}
