// Package svm implements a C-support-vector classifier with an RBF
// kernel, trained by sequential minimal optimization with maximal-
// violating-pair working-set selection (the algorithm family behind
// LIBSVM, which the paper uses via Chang & Lin's C-SVM). It supports
// per-class penalty weights for the class-imbalanced data the paper
// highlights (3–10 % SOC-generating samples), k-fold cross validation,
// and (C, γ) grid search ranked by the paper's F-score metric (Eq. 1).
package svm

import (
	"errors"
	"fmt"
	"math"
)

// Problem is a binary classification dataset. Labels are +1 / -1.
type Problem struct {
	X [][]float64
	Y []int
}

// Validate checks dataset consistency.
func (p *Problem) Validate() error {
	if len(p.X) != len(p.Y) {
		return errors.New("svm: len(X) != len(Y)")
	}
	if len(p.X) == 0 {
		return errors.New("svm: empty problem")
	}
	dim := len(p.X[0])
	for i, x := range p.X {
		if len(x) != dim {
			return fmt.Errorf("svm: sample %d has dimension %d, want %d", i, len(x), dim)
		}
	}
	for i, y := range p.Y {
		if y != 1 && y != -1 {
			return fmt.Errorf("svm: label %d is %d, want ±1", i, y)
		}
	}
	return nil
}

// Count returns the number of positive and negative samples.
func (p *Problem) Count() (pos, neg int) {
	for _, y := range p.Y {
		if y == 1 {
			pos++
		} else {
			neg++
		}
	}
	return
}

// Params configures training.
type Params struct {
	// C is the penalty factor (the paper sweeps 1..100,000).
	C float64
	// Gamma is the RBF kernel coefficient (the paper sweeps 1e-5..1).
	Gamma float64
	// ClassWeights scales C per class to counter imbalance; 0 values
	// default to 1. The IPAS pipeline sets them inversely proportional
	// to class frequency.
	WeightPos float64
	WeightNeg float64
	// Eps is the KKT-violation stopping tolerance (default 1e-3).
	Eps float64
	// MaxIter bounds SMO iterations (default 100 * n, min 10,000).
	MaxIter int
}

func (p Params) withDefaults(n int) Params {
	if p.WeightPos <= 0 {
		p.WeightPos = 1
	}
	if p.WeightNeg <= 0 {
		p.WeightNeg = 1
	}
	if p.Eps <= 0 {
		p.Eps = 1e-3
	}
	if p.MaxIter <= 0 {
		p.MaxIter = 100 * n
		if p.MaxIter < 10000 {
			p.MaxIter = 10000
		}
	}
	return p
}

// Model is a trained classifier.
type Model struct {
	Gamma float64
	// SV are the support vectors with their dual coefficients
	// (alpha_i * y_i) and the bias term B.
	SV   [][]float64
	Coef []float64
	B    float64
	// Iters reports SMO iterations used in training.
	Iters int
	// Capped reports that SMO stopped at Params.MaxIter instead of
	// meeting the KKT tolerance: the model is an unconverged solve.
	// Like Iters, it is not serialized.
	Capped bool
}

// Decision returns the decision value f(x); the predicted class is its
// sign.
func (m *Model) Decision(x []float64) float64 {
	s := m.B
	for i, sv := range m.SV {
		s += m.Coef[i] * rbf(sv, x, m.Gamma)
	}
	return s
}

// Predict returns +1 or -1 for x.
func (m *Model) Predict(x []float64) int {
	if m.Decision(x) >= 0 {
		return 1
	}
	return -1
}

// rbf is the radial basis kernel exp(-gamma * ||a-b||^2).
func rbf(a, b []float64, gamma float64) float64 {
	var d float64
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return math.Exp(-gamma * d)
}

// SqDistMatrix precomputes pairwise squared distances so a (C, γ) grid
// search can derive each kernel matrix with just an exponential, as
// K_ij = exp(-γ D_ij).
func SqDistMatrix(X [][]float64) [][]float64 {
	n := len(X)
	d := make([][]float64, n)
	buf := make([]float64, n*n)
	for i := range d {
		d[i] = buf[i*n : (i+1)*n]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var s float64
			xi, xj := X[i], X[j]
			for k := range xi {
				diff := xi[k] - xj[k]
				s += diff * diff
			}
			d[i][j] = s
			d[j][i] = s
		}
	}
	return d
}
