package svm

import (
	"context"
	"math"
)

// Train fits a C-SVC model on the problem.
func Train(p *Problem, params Params) (*Model, error) {
	return TrainContext(context.Background(), p, params)
}

// TrainContext is Train with cancellation: the SMO loop polls ctx
// periodically and aborts with its error. Cancellation never alters
// results — a run that completes is bit-identical to one trained
// without a context.
func TrainContext(ctx context.Context, p *Problem, params Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	vs := newVectors(p.X)
	m, _, err := solve(ctx, p, params, vs.of, vs.kernel(params.Gamma, nil))
	return m, err
}

// ctxCheckInterval is how many SMO iterations run between cancellation
// polls; cheap enough to be invisible, frequent enough that training
// honours a cancel within microseconds.
const ctxCheckInterval = 1024

// solve runs SMO with maximal-violating-pair selection and assembles
// the model. vec numbers each row's feature vector in kt, the kernel
// table the entries are read from. It returns the problem-row indices
// of the support vectors alongside.
//
// We solve: min 1/2 αᵀQα - eᵀα, 0 ≤ α_i ≤ C_i, yᵀα = 0,
// where Q_ij = y_i y_j K_ij. G is the gradient Qα - e.
//
// Rows with bitwise-identical (x, y) have identical kernel rows, so
// they keep bitwise-identical gradients for the whole solve: G, the
// labels, the penalties and the kernel are held once per such group
// (dupGroups), while α stays per row. Each scan visits a group through
// its first member that may move, and exact ties between groups go to
// the lowest row, so every iteration picks the pair the row-at-a-time
// loop would and the model is bit-identical to it (DESIGN.md §8,
// "Duplicate rows").
func solve(ctx context.Context, p *Problem, params Params, vec []int, kt table) (*Model, []int, error) {
	n := len(p.X)
	params = params.withDefaults(n)

	of, members := dupGroups(p.Y, vec, kt.n)
	ng := len(members)
	gy := make([]float64, ng) // label
	gc := make([]float64, ng) // penalty
	G := make([]float64, ng)
	up := make([]int, ng)  // first member in I_up, or -1
	low := make([]int, ng) // first member in I_low, or -1
	states := make([]boundRuns, ng)
	K := make([]float64, ng*ng) // K[a*ng+b]: kernel of groups a and b
	for g, rows := range members {
		G[g] = -1
		if p.Y[rows[0]] == 1 {
			gy[g], gc[g] = 1, params.C*params.WeightPos
		} else {
			gy[g], gc[g] = -1, params.C*params.WeightNeg
		}
		for h, other := range members {
			K[g*ng+h] = kt.at(vec[rows[0]], vec[other[0]])
		}
	}
	// refresh re-derives a group's scan representatives from its α
	// states: the first member below C and the first above 0, which
	// are I_up and I_low for y = +1 and the other way round for -1.
	refresh := func(g int) {
		below, above := states[g].first(atUpper), states[g].first(atLower)
		if gy[g] < 0 {
			below, above = above, below
		}
		up[g], low[g] = -1, -1
		if below >= 0 {
			up[g] = members[g][below]
		}
		if above >= 0 {
			low[g] = members[g][above]
		}
	}
	runs := make([]boundRun, n) // a group never has more runs than members
	for g, rows := range members {
		if 0 < gc[g] {
			states[g] = append(runs[:0:len(rows)], boundRun{atLower, int32(len(rows))})
			runs = runs[len(rows):]
			refresh(g)
		} else {
			// No α of the group can leave 0 (a non-positive or NaN
			// penalty), so none is ever selected.
			up[g], low[g] = -1, -1
		}
	}

	alpha := make([]float64, n)
	// Select i, the maximal violator: the largest -y·G over I_up.
	i, gi := -1, -1
	gmax := math.Inf(-1)
	for g := 0; g < ng; g++ {
		if r := up[g]; r >= 0 {
			if v := -gy[g] * G[g]; v > gmax || (v == gmax && r < i) {
				gmax, i, gi = v, r, g
			}
		}
	}

	iter := 0
	for ; iter < params.MaxIter; iter++ {
		if iter%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		if i < 0 {
			break
		}
		// Second-order selection (LIBSVM WSS2): among violating j,
		// pick the one with the largest decrease of the objective.
		j, gj := -1, -1
		gmin, objMin := math.Inf(1), math.Inf(1)
		ki := K[gi*ng : gi*ng+ng]
		yi := gy[gi]
		for g := 0; g < ng; g++ {
			r := low[g]
			if r < 0 {
				continue
			}
			gt := -gy[g] * G[g]
			if gt < gmin {
				gmin = gt
			}
			diff := gmax - gt
			if diff > 0 {
				quad := ki[gi] + K[g*ng+g] - 2*yi*gy[g]*ki[g]
				if quad <= 0 {
					quad = 1e-12
				}
				if obj := -diff * diff / quad; obj < objMin || (obj == objMin && r < j) {
					objMin, j, gj = obj, r, g
				}
			}
		}
		if gmax-gmin < params.Eps || j < 0 {
			break
		}

		// Analytic update of the pair.
		yj := gy[gj]
		quad := ki[gi] + K[gj*ng+gj] - 2*yi*yj*ki[gj]
		if quad <= 0 {
			quad = 1e-12
		}
		delta := (-yi*G[gi] + yj*G[gj]) / quad
		oldAi, oldAj := alpha[i], alpha[j]

		// Clip to the feasible box keeping yᵀα constant.
		sum := yi*oldAi + yj*oldAj
		ai := clamp(oldAi+yi*delta, 0, gc[gi])
		aj := clamp(yj*(sum-yi*ai), 0, gc[gj])
		ai = clamp(yi*(sum-yj*aj), 0, gc[gi])
		alpha[i], alpha[j] = ai, aj

		dAi, dAj := ai-oldAi, aj-oldAj
		if dAi == 0 && dAj == 0 {
			break
		}
		// i and j were their groups' representatives, so they sit at
		// the positions refresh found them at.
		states[gi].set(members[gi], i, boundOf(ai, gc[gi]))
		states[gj].set(members[gj], j, boundOf(aj, gc[gj]))
		refresh(gi)
		refresh(gj)

		// Gradient update, fused with the next iteration's i-scan.
		kj := K[gj*ng : gj*ng+ng]
		i, gi, gmax = -1, -1, math.Inf(-1)
		for g := 0; g < ng; g++ {
			G[g] += gy[g] * (yi*ki[g]*dAi + yj*kj[g]*dAj)
			if r := up[g]; r >= 0 {
				if v := -gy[g] * G[g]; v > gmax || (v == gmax && r < i) {
					gmax, i, gi = v, r, g
				}
			}
		}
	}

	// Bias: average -y_t G_t over free vectors, or the KKT midpoint.
	// Summed per row, in row order, as the bits depend on the order.
	var bSum float64
	nFree := 0
	lb, ub := math.Inf(-1), math.Inf(1)
	for t := 0; t < n; t++ {
		g := of[t]
		yt, ct := gy[g], gc[g]
		v := -yt * G[g]
		if alpha[t] > 0 && alpha[t] < ct {
			bSum += v
			nFree++
		} else if (yt > 0 && alpha[t] == 0) || (yt < 0 && alpha[t] == ct) {
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
			m.Coef = append(m.Coef, alpha[t]*gy[of[t]])
			sv = append(sv, t)
		}
	}
	return m, sv, nil
}

// dupGroups partitions rows into groups of equal (vector, label):
// rows with bitwise-identical (x, y), as vectors numbers them, so a
// row with a non-finite feature stays alone. Groups are numbered in
// order of first appearance; it returns each row's group and each
// group's rows in ascending order. nv is the number of vectors.
func dupGroups(y, vec []int, nv int) (of []int, members [][]int) {
	of = make([]int, len(y))
	index := make([]int, 2*nv) // group+1 of (vector, label), 0 for none yet
	for t, v := range vec {
		key := 2 * v
		if y[t] == 1 {
			key++
		}
		if index[key] == 0 {
			members = append(members, nil)
			index[key] = len(members)
		}
		g := index[key] - 1
		of[t] = g
		members[g] = append(members[g], t)
	}
	return of, members
}

// The bound state of one α, as the working-set tests see it.
const (
	atLower uint8 = iota // α ≤ 0
	atUpper              // α ≥ C
	free                 // 0 < α < C
)

func boundOf(a, c float64) uint8 {
	switch above, below := a > 0, a < c; {
	case above && !below:
		return atUpper
	case below && !above:
		return atLower
	}
	// Free, or a NaN α: then every gradient is NaN as well, and the
	// next i-scan ends the solve whatever the states say.
	return free
}

// boundRuns holds the α states of one group's members in row order as
// maximal runs of members at the same bound (a free member is a run of
// its own), stored back to front: the last run starts at the group's
// first member. A scan only ever picks a group's first member below C
// or its first member above 0, and one of the two is the first member,
// so every α change lands at the start of the first or the second run
// and costs O(1): at most one run is split and two are merged.
type boundRuns []boundRun

type boundRun struct {
	state uint8
	n     int32
}

// first returns the position of the first member whose state is not
// s, or -1 if every member's is.
func (r boundRuns) first(s uint8) int {
	top := r[len(r)-1]
	switch {
	case top.state != s:
		return 0
	case len(r) == 1:
		return -1
	}
	return int(top.n)
}

// set moves member row, at position 0 or at the start of the second
// run, to state s.
func (r *boundRuns) set(members []int, row int, s uint8) {
	if members[0] == row {
		r.setHead(s)
		return
	}
	rs := *r
	top := rs[len(rs)-1]
	*r = rs[:len(rs)-1]
	r.setHead(s)
	r.push(top)
}

func (r *boundRuns) setHead(s uint8) {
	rs := *r
	last := len(rs) - 1
	if rs[last].state == s && s != free {
		return
	}
	if rs[last].n == 1 {
		*r = rs[:last]
	} else {
		rs[last].n--
	}
	r.push(boundRun{s, 1})
}

func (r *boundRuns) push(b boundRun) {
	rs := *r
	if k := len(rs); k > 0 && b.state != free && rs[k-1].state == b.state {
		rs[k-1].n += b.n
		return
	}
	*r = append(rs, b)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
