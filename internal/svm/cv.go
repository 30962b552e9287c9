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
	test []int
	sub  *Problem
	vec  []int // the vector of each row of sub
	// degenerate marks folds whose training half contains one class
	// only; they are skipped.
	degenerate bool
}

// makeFoldSplits precomputes the k stratified train/test partitions of
// p, whose rows have the vectors vec.
func makeFoldSplits(p *Problem, vec []int, k int) []foldSplit {
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
				sp.vec = append(sp.vec, vec[i])
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

// CrossValidate evaluates params with k-fold stratified CV.
func CrossValidate(p *Problem, params Params, k int) (CVResult, error) {
	if err := p.Validate(); err != nil {
		return CVResult{}, err
	}
	vs := newVectors(p.X)
	splits := makeFoldSplits(p, vs.of, k)
	return crossValidate(context.Background(), p, params, vs.of, vs.kernel(params.Gamma, nil), splits)
}

// crossValidate is CrossValidate over pre-built splits of p, whose rows
// have the vectors vec in the kernel table kt (the grid search shares
// one split set across all configurations). Every fold trains from kt,
// and a held-out row is scored from it too: the lookups are the bits
// rbf(SV, x) would give, summed in Model.Decision's order, so the
// prediction is Model.Predict's.
func crossValidate(ctx context.Context, p *Problem, params Params, vec []int, kt table, splits []foldSplit) (CVResult, error) {
	var agg cvAccum
	for _, sp := range splits {
		if sp.degenerate {
			continue
		}
		if err := ctx.Err(); err != nil {
			return CVResult{}, err
		}
		model, sv, err := solve(ctx, sp.sub, params, sp.vec, kt)
		if err != nil {
			return CVResult{}, err
		}
		agg.fold(model)
		for _, i := range sp.test {
			s := model.B
			for c, r := range sv {
				s += model.Coef[c] * kt.at(sp.vec[r], vec[i])
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
