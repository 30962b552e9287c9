package svm

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
)

// TestSMOKKTConditions verifies the solver's optimality certificate on
// a small problem: for every training point, the KKT conditions of the
// C-SVC dual must hold within the solver tolerance:
//
//	alpha_i = 0    =>  y_i f(x_i) >= 1 - eps
//	alpha_i = C_i  =>  y_i f(x_i) <= 1 + eps
//	0 < a_i < C_i  =>  |y_i f(x_i) - 1| <= eps
func TestSMOKKTConditions(t *testing.T) {
	p := blobs(100, 1.2)
	params := Params{C: 5, Gamma: 0.7, Eps: 1e-4}
	m, err := Train(p, params)
	if err != nil {
		t.Fatal(err)
	}
	// Recover alphas: coef_i = alpha_i * y_i for support vectors; non-SV
	// points have alpha 0. Rebuild per-sample alpha by matching rows.
	alpha := make([]float64, len(p.X))
	svIdx := 0
	for i := range p.X {
		if svIdx < len(m.SV) && sameVec(p.X[i], m.SV[svIdx]) {
			alpha[i] = math.Abs(m.Coef[svIdx])
			svIdx++
		}
	}
	if svIdx != len(m.SV) {
		t.Fatalf("could not align %d support vectors (got %d)", len(m.SV), svIdx)
	}
	const slack = 1e-2 // solver eps plus numerical headroom
	violations := 0
	for i := range p.X {
		yf := float64(p.Y[i]) * m.Decision(p.X[i])
		switch {
		case alpha[i] <= 1e-12:
			if yf < 1-slack {
				violations++
			}
		case alpha[i] >= params.C-1e-9:
			if yf > 1+slack {
				violations++
			}
		default:
			if math.Abs(yf-1) > slack {
				violations++
			}
		}
	}
	if violations > len(p.X)/50 {
		t.Fatalf("%d/%d KKT violations", violations, len(p.X))
	}
	// Dual feasibility: sum alpha_i y_i = 0.
	var s float64
	for _, c := range m.Coef {
		s += c
	}
	if math.Abs(s) > 1e-6 {
		t.Fatalf("sum(alpha*y) = %v, want 0", s)
	}
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTrainDeterministic(t *testing.T) {
	p := blobs(80, 1.0)
	m1, err := Train(p, Params{C: 10, Gamma: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(p, Params{C: 10, Gamma: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if m1.B != m2.B || len(m1.SV) != len(m2.SV) || m1.Iters != m2.Iters {
		t.Fatal("training is not deterministic")
	}
	for i := range m1.Coef {
		if m1.Coef[i] != m2.Coef[i] {
			t.Fatal("coefficients differ between runs")
		}
	}
}

func TestTrainBoundedIterations(t *testing.T) {
	p := blobs(60, 0.05) // heavily overlapping: hard problem
	m, err := Train(p, Params{C: 1e5, Gamma: 10, MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if m.Iters > 500 {
		t.Fatalf("solver ran %d iterations past its budget", m.Iters)
	}
}

func TestTrainRejectsBadProblems(t *testing.T) {
	if _, err := Train(&Problem{}, Params{C: 1, Gamma: 1}); err == nil {
		t.Fatal("empty problem accepted")
	}
	if _, err := Train(&Problem{X: [][]float64{{1}}, Y: []int{2}}, Params{C: 1, Gamma: 1}); err == nil {
		t.Fatal("bad label accepted")
	}
	if _, err := Train(&Problem{X: [][]float64{{1}, {1, 2}}, Y: []int{1, -1}}, Params{C: 1, Gamma: 1}); err == nil {
		t.Fatal("ragged features accepted")
	}
}

func TestModelJSONRoundtrip(t *testing.T) {
	p := blobs(60, 1.5)
	m, err := Train(p, Params{C: 10, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var m2 Model
	if err := m2.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	for i := range p.X {
		if m.Decision(p.X[i]) != m2.Decision(p.X[i]) {
			t.Fatal("decision changed after JSON roundtrip")
		}
	}
	if err := m2.UnmarshalJSON([]byte(`{"coef_bits":[1],"sv_bits":[]}`)); err == nil {
		t.Fatal("inconsistent model accepted")
	}
}

// checkSolve trains p, whose rows have the vectors vec in the kernel
// table kt, with the grouped solver, and with the flat oracle on p's
// dense row-by-row kernel. It fails unless the two models agree bit
// for bit: B, every coefficient and support vector, the support
// vectors' row indices, the iteration count and the cap.
func checkSolve(t *testing.T, what string, p *Problem, params Params, vec []int, kt table) {
	t.Helper()
	ctx := context.Background()
	got, gotSV, err := solve(ctx, p, params, vec, kt)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, wantSV, err := solveFlat(ctx, p, params, denseKernel(p.X, params.Gamma))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	switch {
	case got.Iters != want.Iters || got.Capped != want.Capped:
		t.Fatalf("%s: %d iterations (capped %v), flat %d (capped %v)", what, got.Iters, got.Capped, want.Iters, want.Capped)
	case math.Float64bits(got.B) != math.Float64bits(want.B):
		t.Fatalf("%s: b = %v, flat %v", what, got.B, want.B)
	case !slices.Equal(gotSV, wantSV):
		t.Fatalf("%s: support vector rows %v, flat %v", what, gotSV, wantSV)
	}
	for k := range want.Coef {
		if math.Float64bits(got.Coef[k]) != math.Float64bits(want.Coef[k]) {
			t.Fatalf("%s: coef[%d] = %v, flat %v", what, k, got.Coef[k], want.Coef[k])
		}
		for d := range want.SV[k] {
			if math.Float64bits(got.SV[k][d]) != math.Float64bits(want.SV[k][d]) {
				t.Fatalf("%s: sv[%d][%d] = %v, flat %v", what, k, d, got.SV[k][d], want.SV[k][d])
			}
		}
	}
}

// TestSolveMatchesFlat pins the grouped solver to the row-at-a-time
// oracle: on the IS, FFT and CoMD training sets under both labelings,
// at every quick-grid point with class weights, for the full set (the
// final fit) and for one cross-validation fold; and on hand-built
// problems whose duplicates stress the group bookkeeping.
func TestSolveMatchesFlat(t *testing.T) {
	spec := QuickGrid()
	for _, name := range trainingSetNames {
		for _, baseline := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/baseline=%v", name, baseline), func(t *testing.T) {
				p := loadProblem(t, name, baseline)
				wPos, wNeg := classWeights(p)
				vs := newVectors(p.X)
				fold := makeFoldSplits(p, vs.of, 5)[0]
				for _, g := range spec.Gammas {
					kt := vs.kernel(g, nil)
					for _, c := range spec.Cs {
						params := Params{C: c, Gamma: g, WeightPos: wPos, WeightNeg: wNeg}
						what := fmt.Sprintf("C=%g γ=%g", c, g)
						checkSolve(t, what, p, params, vs.of, kt)
						checkSolve(t, what+" fold 0", fold.sub, params, fold.vec, kt)
					}
				}
			})
		}
	}

	for _, hc := range handBuiltProblems() {
		t.Run(hc.name, func(t *testing.T) {
			vs := newVectors(hc.p.X)
			for _, g := range []float64{0.1, 1, 10, 1e4} {
				kt := vs.kernel(g, nil)
				for _, c := range []float64{0.05, 0.3, 1, 10, 1e3} {
					for _, w := range [][2]float64{{0, 0}, {0.7, 1.9}} {
						for _, maxIter := range []int{0, 7, 50} {
							params := Params{C: c, Gamma: g, WeightPos: w[0], WeightNeg: w[1], MaxIter: maxIter}
							checkSolve(t, fmt.Sprintf("%+v", params), hc.p, params, vs.of, kt)
						}
					}
				}
			}
		})
	}
}

type handBuilt struct {
	name string
	p    *Problem
}

// handBuiltProblems are small problems shaped to reach the corners of
// the group bookkeeping. At γ = 1e4 every kernel entry between distinct
// points underflows to 0, so groups of equal size and label evolve in
// lockstep and tie exactly, in −y·G and in the WSS2 objective.
func handBuiltProblems() []handBuilt {
	a, b, c, d := []float64{0.2, 0.4}, []float64{0.8, 0.1}, []float64{0.5, 0.9}, []float64{0.1, 0.1}
	rows := func(spec ...any) *Problem {
		p := &Problem{}
		for k := 0; k < len(spec); k += 2 {
			p.X = append(p.X, append([]float64(nil), spec[k].([]float64)...))
			p.Y = append(p.Y, spec[k+1].(int))
		}
		return p
	}
	// Conflicting labels: one x carries both labels, several times.
	conflicting := rows(a, 1, a, -1, a, 1, b, -1, a, -1, c, 1, b, 1, a, 1, c, -1, b, -1, a, -1, d, 1)
	// One group holds most rows; a few others of both labels between.
	dominant := &Problem{}
	for k := 0; k < 48; k++ {
		x, y := []float64{0.5, 0.5}, 1
		switch k % 8 {
		case 3:
			x, y = []float64{0.1*float64(k%5) + 0.05, 0.9}, -1
		case 6:
			x, y = []float64{0.9, 0.1 * float64(k%3)}, 1-2*(k/8%2)
		}
		dominant.X = append(dominant.X, x)
		dominant.Y = append(dominant.Y, y)
	}
	// Interleaved groups: rows A B B A per label, so group order (by
	// first row) differs from the order of the rows the scans pick.
	interleaved := rows(a, 1, b, 1, b, 1, a, 1, c, -1, d, -1, d, -1, c, -1,
		a, 1, b, 1, b, 1, a, 1, d, -1, c, -1, c, -1, d, -1)
	// Tied groups: equal-sized groups per label, interleaved.
	tied := rows(a, 1, b, 1, c, -1, d, -1, b, 1, a, 1, d, -1, c, -1, a, 1, b, 1, d, -1, c, -1)
	// Repeated non-finite rows must stay apart: their distance to each
	// other is NaN, not 0.
	inf, nan := []float64{math.Inf(1), 0.5}, []float64{0.3, math.NaN()}
	nonFinite := rows(a, 1, inf, 1, c, -1, inf, 1, b, -1, nan, -1, d, 1, nan, -1, inf, 1, a, -1)
	// Signed zeros: +0 and −0 are distinct vectors at distance 0, so
	// their groups carry equal kernel rows and tie.
	pz, nz := []float64{0, 0.5}, []float64{math.Copysign(0, -1), 0.5}
	signedZero := rows(pz, 1, nz, 1, c, -1, nz, -1, pz, 1, b, -1, nz, 1, pz, -1, d, 1, nz, -1)
	return []handBuilt{{"conflicting", conflicting}, {"dominant", dominant}, {"interleaved", interleaved}, {"tied", tied}, {"non-finite", nonFinite}, {"signed-zero", signedZero}}
}

// FuzzSolve checks the grouped solver against the flat oracle on small
// generated problems whose rows repeat a few base vectors (forced
// duplicates, conflicting labels included), at random C, γ and class
// weights and a small iteration cap.
func FuzzSolve(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(3), int8(0), int8(0), uint8(0), uint16(100))
	f.Add(uint64(2), uint8(30), uint8(2), int8(4), int8(3), uint8(7), uint16(300))
	f.Add(uint64(3), uint8(9), uint8(9), int8(-2), int8(-2), uint8(12), uint16(5))
	f.Fuzz(func(t *testing.T, seed uint64, n, distinct uint8, logC, logGamma int8, weights uint8, maxIter uint16) {
		rows := int(n%40) + 1
		base := int(distinct%8) + 1
		r := lcg(seed)
		vecs := make([][]float64, base)
		for k := range vecs {
			vecs[k] = []float64{float64(int(r.next()*4)) / 4, r.next()}
		}
		p := &Problem{}
		for k := 0; k < rows; k++ {
			y := 1
			if r.next() < 0.4 {
				y = -1
			}
			p.X = append(p.X, append([]float64(nil), vecs[int(r.next()*float64(base))]...))
			p.Y = append(p.Y, y)
		}
		ws := []float64{0, 0.5, 1, 2.5}
		params := Params{
			C:         math.Pow(10, float64(logC%6)),
			Gamma:     math.Pow(10, float64(logGamma%5)),
			WeightPos: ws[weights%4],
			WeightNeg: ws[(weights/4)%4],
			MaxIter:   int(maxIter%500) + 1,
		}
		vs := newVectors(p.X)
		checkSolve(t, fmt.Sprintf("%+v", params), p, params, vs.of, vs.kernel(params.Gamma, nil))
	})
}
