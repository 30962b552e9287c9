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
// serial-baseline is the test oracle (one goroutine, one TrainContext
// per fold, rbf predictions); the workers-N variants run the pooled
// search, which exponentiates one kernel table over the distinct
// feature vectors per grid point. All variants produce bit-identical
// rankings.
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
// row-at-a-time oracle on the dense row kernel, grouped the solver,
// which also groups the rows and fills its group kernel from the
// vector table. Both return bit-identical models.
func BenchmarkSolve(b *testing.B) {
	p := benchProblem(b)
	wPos, wNeg := classWeights(p)
	spec := QuickGrid()
	params := Params{C: spec.Cs[5], Gamma: spec.Gammas[3], WeightPos: wPos, WeightNeg: wNeg}
	vs := newVectors(p.X)
	kt := vs.kernel(params.Gamma, nil)
	dense := denseKernel(p.X, params.Gamma)
	ctx := context.Background()
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if m, _, err := solveFlat(ctx, p, params, dense); err != nil || !m.Capped {
				b.Fatal("solve did not stop at the cap", err)
			}
		}
	})
	b.Run("grouped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if m, _, err := solve(ctx, p, params, vs.of, kt); err != nil || !m.Capped {
				b.Fatal("solve did not stop at the cap", err)
			}
		}
	})
}
