package svm

import (
	"context"
	"math"
)

// solveFlat is the row-at-a-time SMO loop that solve replaced: three
// O(n) sweeps per iteration over the dense n×n kernel matrix K. It is
// kept as the bit-identity oracle for the grouped solver and its
// vector table (TestSolveMatchesFlat, FuzzSolve) and as the baseline
// of BenchmarkSolve.
func solveFlat(ctx context.Context, p *Problem, params Params, K [][]float64) (*Model, []int, error) {
	n := len(p.X)
	params = params.withDefaults(n)

	y := make([]float64, n)
	cN := make([]float64, n) // per-sample penalty
	for i, yi := range p.Y {
		y[i] = float64(yi)
		if yi == 1 {
			cN[i] = params.C * params.WeightPos
		} else {
			cN[i] = params.C * params.WeightNeg
		}
	}

	alpha := make([]float64, n)
	G := make([]float64, n)
	for i := range G {
		G[i] = -1
	}

	iter := 0
	for ; iter < params.MaxIter; iter++ {
		if iter%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		// Select the maximal violating pair (i, j).
		i, j := -1, -1
		gmax, gmin := math.Inf(-1), math.Inf(1)
		for t := 0; t < n; t++ {
			if (y[t] > 0 && alpha[t] < cN[t]) || (y[t] < 0 && alpha[t] > 0) {
				if v := -y[t] * G[t]; v > gmax {
					gmax = v
					i = t
				}
			}
		}
		if i < 0 {
			break
		}
		// Second-order selection (LIBSVM WSS2): among violating j,
		// pick the one with the largest decrease of the objective.
		objMin := math.Inf(1)
		for t := 0; t < n; t++ {
			if (y[t] > 0 && alpha[t] > 0) || (y[t] < 0 && alpha[t] < cN[t]) {
				gt := -y[t] * G[t]
				if gt < gmin {
					gmin = gt
				}
				diff := gmax - gt
				if diff > 0 {
					quad := K[i][i] + K[t][t] - 2*y[i]*y[t]*K[i][t]
					if quad <= 0 {
						quad = 1e-12
					}
					if obj := -diff * diff / quad; obj < objMin {
						objMin = obj
						j = t
					}
				}
			}
		}
		if gmax-gmin < params.Eps || j < 0 {
			break
		}

		// Analytic update of the pair.
		quad := K[i][i] + K[j][j] - 2*y[i]*y[j]*K[i][j]
		if quad <= 0 {
			quad = 1e-12
		}
		delta := (-y[i]*G[i] + y[j]*G[j]) / quad
		oldAi, oldAj := alpha[i], alpha[j]
		alpha[i] += y[i] * delta
		alpha[j] -= y[j] * delta

		// Clip to the feasible box keeping yᵀα constant.
		sum := y[i]*oldAi + y[j]*oldAj
		alpha[i] = clamp(alpha[i], 0, cN[i])
		alpha[j] = y[j] * (sum - y[i]*alpha[i])
		alpha[j] = clamp(alpha[j], 0, cN[j])
		alpha[i] = y[i] * (sum - y[j]*alpha[j])
		alpha[i] = clamp(alpha[i], 0, cN[i])

		dAi, dAj := alpha[i]-oldAi, alpha[j]-oldAj
		if dAi == 0 && dAj == 0 {
			break
		}
		for t := 0; t < n; t++ {
			G[t] += y[t] * (y[i]*K[i][t]*dAi + y[j]*K[j][t]*dAj)
		}
	}

	// Bias: average -y_t G_t over free vectors, or the KKT midpoint.
	var bSum float64
	nFree := 0
	lb, ub := math.Inf(-1), math.Inf(1)
	for t := 0; t < n; t++ {
		v := -y[t] * G[t]
		if alpha[t] > 0 && alpha[t] < cN[t] {
			bSum += v
			nFree++
		} else if (y[t] > 0 && alpha[t] == 0) || (y[t] < 0 && alpha[t] == cN[t]) {
			if v > lb {
				lb = v
			}
		} else {
			if v < ub {
				ub = v
			}
		}
	}
	var b float64
	if nFree > 0 {
		b = bSum / float64(nFree)
	} else if !math.IsInf(lb, -1) && !math.IsInf(ub, 1) {
		b = (lb + ub) / 2
	}

	m := &Model{Gamma: params.Gamma, B: b, Iters: iter, Capped: iter == params.MaxIter}
	var sv []int
	for t := 0; t < n; t++ {
		if alpha[t] > 0 {
			m.SV = append(m.SV, p.X[t])
			m.Coef = append(m.Coef, alpha[t]*y[t])
			sv = append(sv, t)
		}
	}
	return m, sv, nil
}

// denseKernel is the row-by-row RBF kernel of X that solveFlat takes,
// every entry computed from its own two rows. A row's distance to
// itself is 0, also when it holds a non-finite feature.
func denseKernel(X [][]float64, gamma float64) [][]float64 {
	K := make([][]float64, len(X))
	for i := range X {
		K[i] = make([]float64, len(X))
		for j := range X {
			if i == j {
				K[i][j] = math.Exp(-gamma * 0)
			} else {
				K[i][j] = rbf(X[i], X[j], gamma)
			}
		}
	}
	return K
}
