package svm

import "context"

// FScore computes the paper's Eq. 1 from the two per-class accuracies:
// 2·A1·A2/(A1+A2), where A1 is the fraction of class-1 (SOC-generating)
// examples classified correctly and A2 the fraction of class-2.
func FScore(acc1, acc2 float64) float64 {
	if acc1+acc2 == 0 {
		return 0
	}
	return 2 * acc1 * acc2 / (acc1 + acc2)
}

// StratifiedFolds deterministically partitions sample indices into k
// folds preserving the class ratio: samples of each class are dealt
// round-robin across folds in index order.
func StratifiedFolds(y []int, k int) [][]int {
	if k < 2 {
		k = 2
	}
	folds := make([][]int, k)
	cnt := map[int]int{}
	for i, yi := range y {
		f := cnt[yi] % k
		folds[f] = append(folds[f], i)
		cnt[yi]++
	}
	return folds
}

// CVResult aggregates cross-validation outcomes for one configuration.
type CVResult struct {
	Acc1   float64 // recall on class +1 (SOC-generating)
	Acc2   float64 // recall on class -1
	FScore float64
	// PredictedPos is the fraction of all held-out samples predicted
	// positive, an overhead proxy used in reporting.
	PredictedPos float64
	// CappedFolds counts the folds whose training solve stopped at
	// Params.MaxIter (Model.Capped). The ranking ignores it.
	CappedFolds int
}

// foldSplit is one precomputed train/test partition: grid search
// evaluates every (C, γ) on the same folds, so the index bookkeeping
// and the training sub-problem are built once per search, not once per
// configuration.
type foldSplit struct {
	test     []int
	trainIdx []int
	sub      *Problem
	// degenerate marks folds whose training half contains one class
	// only; they are skipped, matching the serial path.
	degenerate bool
}

// makeFoldSplits precomputes the k stratified train/test partitions.
func makeFoldSplits(p *Problem, k int) []foldSplit {
	folds := StratifiedFolds(p.Y, k)
	splits := make([]foldSplit, len(folds))
	for fi := range folds {
		test := folds[fi]
		inTest := map[int]bool{}
		for _, i := range test {
			inTest[i] = true
		}
		sp := foldSplit{test: test}
		sub := &Problem{}
		for i := range p.X {
			if !inTest[i] {
				sp.trainIdx = append(sp.trainIdx, i)
				sub.X = append(sub.X, p.X[i])
				sub.Y = append(sub.Y, p.Y[i])
			}
		}
		sp.sub = sub
		if pos, neg := sub.Count(); pos == 0 || neg == 0 {
			sp.degenerate = true
		}
		splits[fi] = sp
	}
	return splits
}

// CrossValidate evaluates params with k-fold stratified CV. dist must
// be the squared-distance matrix of p.X (see SqDistMatrix); it is
// shared across folds and configurations.
//
// This is the reference (serial) path: each fold exponentiates its own
// sub-kernel and scores held-out samples through Model.Predict. The
// kernel-cached path (CrossValidateContext) is test-asserted to be
// bit-identical to it.
func CrossValidate(p *Problem, params Params, dist [][]float64, k int) (CVResult, error) {
	var agg cvAccum
	for _, sp := range makeFoldSplits(p, k) {
		if sp.degenerate {
			continue
		}
		model, err := TrainWithDist(sp.sub, params, dist, sp.trainIdx)
		if err != nil {
			return CVResult{}, err
		}
		agg.fold(model)
		for _, i := range sp.test {
			agg.add(p.Y[i], model.Predict(p.X[i]))
		}
	}
	return agg.result(), nil
}

// CrossValidateContext evaluates params with k-fold stratified CV using
// a precomputed kernel matrix for params.Gamma over all of p.X (see
// KernelCache.Matrix). Training selects sub-kernels by lookup and
// held-out samples are scored from the same matrix rows, so no
// exp(-γ·d) is recomputed; results are bit-identical to CrossValidate
// because the kernel entries and the accumulation order are the same.
func CrossValidateContext(ctx context.Context, p *Problem, params Params, kernel [][]float64, k int) (CVResult, error) {
	return crossValidateKernel(ctx, p, params, kernel, makeFoldSplits(p, k))
}

// crossValidateKernel is CrossValidateContext over pre-built splits
// (the grid search shares one split set across all configurations).
func crossValidateKernel(ctx context.Context, p *Problem, params Params, kernel [][]float64, splits []foldSplit) (CVResult, error) {
	var agg cvAccum
	for _, sp := range splits {
		if sp.degenerate {
			continue
		}
		if err := ctx.Err(); err != nil {
			return CVResult{}, err
		}
		model, svIdx, err := trainKernel(ctx, sp.sub, params, kernel, sp.trainIdx)
		if err != nil {
			return CVResult{}, err
		}
		agg.fold(model)
		for _, i := range sp.test {
			// Decision by kernel lookup: kernel[sv][i] carries the
			// identical bits rbf(SV, x) would produce, in the same
			// summation order as Model.Decision.
			s := model.B
			for c, g := range svIdx {
				s += model.Coef[c] * kernel[g][i]
			}
			pred := -1
			if s >= 0 {
				pred = 1
			}
			agg.add(p.Y[i], pred)
		}
	}
	return agg.result(), nil
}

// cvAccum tallies per-class hit counts and capped solves across folds.
type cvAccum struct {
	ok1, n1, ok2, n2, predPos, total int
	capped                           int
}

func (a *cvAccum) fold(m *Model) {
	if m.Capped {
		a.capped++
	}
}

func (a *cvAccum) add(label, pred int) {
	a.total++
	if pred == 1 {
		a.predPos++
	}
	if label == 1 {
		a.n1++
		if pred == 1 {
			a.ok1++
		}
	} else {
		a.n2++
		if pred == -1 {
			a.ok2++
		}
	}
}

func (a *cvAccum) result() CVResult {
	res := CVResult{CappedFolds: a.capped}
	if a.n1 > 0 {
		res.Acc1 = float64(a.ok1) / float64(a.n1)
	}
	if a.n2 > 0 {
		res.Acc2 = float64(a.ok2) / float64(a.n2)
	}
	if a.total > 0 {
		res.PredictedPos = float64(a.predPos) / float64(a.total)
	}
	res.FScore = FScore(res.Acc1, res.Acc2)
	return res
}
