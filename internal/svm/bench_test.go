package svm

import (
	"context"
	"fmt"
	"testing"
)

// benchProblem is the training set workflow-is unit 0 trains on at
// benchmark seed 1: IS, 100 samples collected at seed 1,000,003,
// scaled, IPAS labels (testdata/train-IS.json). Its 100 rows hold 36
// distinct feature vectors, some with both labels, and 26 of the 48
// quick-grid points stop at the iteration cap on every fold.
func benchProblem(b *testing.B) *Problem { return loadProblem(b, "IS", false) }

// BenchmarkGridSearch measures the quick 48-point (C, γ) search with
// class weights at the default iteration cap, as the workflow runs it.
// serial-baseline is the pre-pipeline implementation (one goroutine,
// per-fold kernel exponentiation, rbf predictions); the workers-N
// variants run the pooled search with the per-γ kernel cache. All
// variants produce bit-identical rankings.
func BenchmarkGridSearch(b *testing.B) {
	p := benchProblem(b)
	spec := QuickGrid()
	spec.WeightByClassFreq = true

	b.Run("serial-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := serialReferenceSearch(p, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, w := range []int{1, 8} {
		// key=value naming, not workers-8: a trailing -digits group
		// would be indistinguishable from go test's -GOMAXPROCS name
		// suffix, which benchdiff strips to compare across machines.
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := GridSearchContext(context.Background(), p, spec, SearchOptions{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolve times one full-set solve at a grid point that stops at
// the default cap (C ≈ 3728, γ = 0.01: 10,000 iterations): flat is the
// row-at-a-time oracle, grouped the solver, which also groups the rows
// and reads its kernel from the same cached matrix. Both return
// bit-identical models.
func BenchmarkSolve(b *testing.B) {
	p := benchProblem(b)
	wPos, wNeg := classWeights(p)
	spec := QuickGrid()
	params := Params{C: spec.Cs[5], Gamma: spec.Gammas[3], WeightPos: wPos, WeightNeg: wNeg}
	kernel := kernelMatrix(SqDistMatrix(p.X), params.Gamma)
	ctx := context.Background()
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if m, _, err := solveFlat(ctx, p, params, kernel); err != nil || !m.Capped {
				b.Fatal("solve did not stop at the cap", err)
			}
		}
	})
	b.Run("grouped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if m, _, err := trainKernel(ctx, p, params, kernel, nil); err != nil || !m.Capped {
				b.Fatal("solve did not stop at the cap", err)
			}
		}
	})
}

// BenchmarkKernelCache isolates the cache's unit of work: producing the
// kernel matrix for one γ. miss exponentiates the distance matrix;
// hit returns the memoized rows (the state all but 1 of the 40
// same-γ requests on the quick grid are served from).
func BenchmarkKernelCache(b *testing.B) {
	p := benchProblem(b)
	dist := SqDistMatrix(p.X)

	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := NewKernelCache(dist, 1)
			if rows := c.Matrix(0.1); len(rows) != len(dist) {
				b.Fatal("bad matrix")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		c := NewKernelCache(dist, 1)
		c.Matrix(0.1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rows := c.Matrix(0.1); len(rows) != len(dist) {
				b.Fatal("bad matrix")
			}
		}
	})
}
