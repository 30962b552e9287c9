package svm

import "testing"

// TestCrossValidateMoreFoldsThanSamples covers k > n: stratified folds
// come out empty or degenerate and must be skipped, not crash.
func TestCrossValidateMoreFoldsThanSamples(t *testing.T) {
	p := &Problem{
		X: [][]float64{{0, 0}, {0.1, 0}, {1, 1}, {1.1, 1}, {0, 0.2}, {1, 0.9}},
		Y: []int{-1, -1, 1, 1, -1, 1},
	}
	res, err := CrossValidate(p, Params{C: 10, Gamma: 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.PredictedPos < 0 || res.PredictedPos > 1 {
		t.Fatalf("PredictedPos = %v", res.PredictedPos)
	}
	ref, err := referenceCV(p, Params{C: 10, Gamma: 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res != ref {
		t.Fatalf("CrossValidate %+v != reference %+v with k > n", res, ref)
	}
}

// TestCrossValidateSingleClassFold covers a lone positive sample: the
// fold holding it in the test half trains on one class only, is marked
// degenerate, and must be skipped without failing the other folds.
func TestCrossValidateSingleClassFold(t *testing.T) {
	p := &Problem{}
	r := lcg(3)
	p.X = append(p.X, []float64{2, 2})
	p.Y = append(p.Y, 1)
	for i := 0; i < 9; i++ {
		p.X = append(p.X, []float64{r.next() - 0.5, r.next() - 0.5})
		p.Y = append(p.Y, -1)
	}
	res, err := CrossValidate(p, Params{C: 10, Gamma: 0.5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The positive sample only ever appears in the degenerate fold's
	// test half, so class-1 recall is never measured.
	if res.Acc1 != 0 || res.FScore != 0 {
		t.Fatalf("expected zero class-1 recall, got %+v", res)
	}
	if res.Acc2 == 0 {
		t.Fatalf("negative folds were not evaluated: %+v", res)
	}

	splits := makeFoldSplits(p, newVectors(p.X).of, 5)
	degenerate := 0
	for _, sp := range splits {
		if sp.degenerate {
			degenerate++
		}
	}
	if degenerate != 1 {
		t.Fatalf("%d degenerate folds, want 1", degenerate)
	}
}

// TestCrossValidateCountsCappedFolds pins CappedFolds on the IS
// training set under IPAS labels: at C ≈ 3728, γ = 0.01 every fold's
// solve stops at the default cap (26 of the 48 quick-grid points cap
// on all five folds), while C = 1, γ = 1 converges on every fold.
func TestCrossValidateCountsCappedFolds(t *testing.T) {
	p := loadProblem(t, "IS", false)
	wPos, wNeg := classWeights(p)
	spec := QuickGrid()
	for _, tc := range []struct {
		c, gamma float64
		capped   int
	}{
		{spec.Cs[5], spec.Gammas[3], 5},
		{spec.Cs[0], spec.Gammas[5], 0},
	} {
		params := Params{C: tc.c, Gamma: tc.gamma, WeightPos: wPos, WeightNeg: wNeg}
		res, err := CrossValidate(p, params, 5)
		if err != nil {
			t.Fatal(err)
		}
		if res.CappedFolds != tc.capped {
			t.Fatalf("C=%g γ=%g: %d capped folds, want %d", tc.c, tc.gamma, res.CappedFolds, tc.capped)
		}
	}
}
