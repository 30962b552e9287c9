// Package svm implements a C-support-vector classifier with an RBF
// kernel, trained by sequential minimal optimization with maximal-
// violating-pair working-set selection (the algorithm family behind
// LIBSVM, which the paper uses via Chang & Lin's C-SVM). It supports
// per-class penalty weights for the class-imbalanced data the paper
// highlights (3–10 % SOC-generating samples), k-fold cross validation,
// and (C, γ) grid search ranked by the paper's F-score metric (Eq. 1).
package svm

import (
	"encoding/binary"
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
	return math.Exp(-gamma * sqDist(a, b))
}

func sqDist(a, b []float64) float64 {
	var d float64
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return d
}

// vectors numbers the distinct feature vectors of a problem's rows and
// holds their pairwise squared distances, from which every kernel
// entry of training and cross validation is exponentiated. Features
// describe the static instruction a fault hit, so a training set is
// mostly repeats (100 IS rows hold 36 vectors), and one γ costs
// n(n+1)/2 exp calls for n vectors. Vectors are keyed on their bits;
// one with a non-finite feature stays alone, as its distance to an
// equal vector is NaN, not the 0 of its distance to itself.
type vectors struct {
	of   []int     // each row's vector, numbered in order of first appearance
	n    int       // distinct vectors
	dist []float64 // n×n squared distances, row-major, 0 on the diagonal
}

func newVectors(X [][]float64) *vectors {
	vs := &vectors{of: make([]int, len(X))}
	index := make(map[string]int)
	var reps [][]float64
	var key []byte
	for t, x := range X {
		key = key[:0]
		finite := true
		for _, v := range x {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				finite = false
				break
			}
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
		}
		a, ok := index[string(key)]
		if !finite || !ok {
			a = len(reps)
			reps = append(reps, x)
			if finite {
				index[string(key)] = a
			}
		}
		vs.of[t] = a
	}
	n := len(reps)
	vs.n, vs.dist = n, make([]float64, n*n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			// The same terms in the same order as rbf, and
			// (a-b)² ≡ (b-a)², so an entry has the bits rbf sums.
			d := sqDist(reps[a], reps[b])
			vs.dist[a*n+b], vs.dist[b*n+a] = d, d
		}
	}
	return vs
}

// table is the RBF kernel of one γ over numbered vectors.
type table struct {
	k []float64 // k[a*n+b] for vectors a and b
	n int
}

func (t table) at(a, b int) float64 { return t.k[a*t.n+b] }

// kernel exponentiates the distances for gamma into buf (allocated when
// nil). Each of the n(n+1)/2 distinct entries is computed once; its
// mirror gets the same bits, as exp of the same input would.
func (vs *vectors) kernel(gamma float64, buf []float64) table {
	n := vs.n
	if buf == nil {
		buf = make([]float64, n*n)
	}
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			v := math.Exp(-gamma * vs.dist[a*n+b])
			buf[a*n+b], buf[b*n+a] = v, v
		}
	}
	return table{buf, n}
}
