package svm

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// overlappingBlobs builds a two-class problem with enough overlap that
// different (C, γ) points rank differently, exercising the sort.
func overlappingBlobs(n int) *Problem {
	r := lcg(7)
	p := &Problem{}
	for i := 0; i < n; i++ {
		y := 1
		c := 0.6
		if i%3 == 0 {
			y = -1
			c = -0.6
		}
		p.X = append(p.X, []float64{c + 1.5*(r.next()-0.5), c + 1.5*(r.next()-0.5)})
		p.Y = append(p.Y, y)
	}
	return p
}

// serialReferenceSearch is the bit-exactness oracle for the pooled
// search (and the baseline of BenchmarkGridSearch): one goroutine,
// C-major order, a fold loop of its own that trains each fold with
// TrainContext and scores held-out rows with Model.Predict, so every
// kernel entry of the scoring comes from rbf, and a stable sort.
func serialReferenceSearch(p *Problem, spec GridSpec) ([]Config, error) {
	folds := spec.Folds
	if folds <= 0 {
		folds = 5
	}
	var wPos, wNeg float64
	if spec.WeightByClassFreq {
		pos, neg := p.Count()
		if pos > 0 && neg > 0 {
			n := float64(pos + neg)
			wPos = n / (2 * float64(pos))
			wNeg = n / (2 * float64(neg))
		}
	}
	var out []Config
	for _, c := range spec.Cs {
		for _, g := range spec.Gammas {
			params := Params{C: c, Gamma: g, WeightPos: wPos, WeightNeg: wNeg, MaxIter: spec.MaxIter}
			cv, err := referenceCV(p, params, folds)
			if err != nil {
				return nil, err
			}
			out = append(out, Config{Params: params, CV: cv})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.CV.FScore != b.CV.FScore {
			return a.CV.FScore > b.CV.FScore
		}
		if a.CV.PredictedPos != b.CV.PredictedPos {
			return a.CV.PredictedPos < b.CV.PredictedPos
		}
		if a.Params.C != b.Params.C {
			return a.Params.C < b.Params.C
		}
		return a.Params.Gamma < b.Params.Gamma
	})
	return out, nil
}

// referenceCV is k-fold stratified cross validation the plain way:
// each fold's training half is a fresh problem trained by TrainContext,
// a fold whose training half holds one class is skipped, and every
// held-out row is classified by Model.Predict.
func referenceCV(p *Problem, params Params, k int) (CVResult, error) {
	var ok1, n1, ok2, n2, predPos, capped int
	for _, test := range StratifiedFolds(p.Y, k) {
		held := map[int]bool{}
		for _, i := range test {
			held[i] = true
		}
		train := &Problem{}
		for i := range p.X {
			if !held[i] {
				train.X = append(train.X, p.X[i])
				train.Y = append(train.Y, p.Y[i])
			}
		}
		if pos, neg := train.Count(); pos == 0 || neg == 0 {
			continue
		}
		m, err := TrainContext(context.Background(), train, params)
		if err != nil {
			return CVResult{}, err
		}
		if m.Capped {
			capped++
		}
		for _, i := range test {
			pred := m.Predict(p.X[i])
			if pred == 1 {
				predPos++
			}
			if p.Y[i] == 1 {
				n1++
				if pred == 1 {
					ok1++
				}
			} else {
				n2++
				if pred == -1 {
					ok2++
				}
			}
		}
	}
	res := CVResult{CappedFolds: capped}
	if n1 > 0 {
		res.Acc1 = float64(ok1) / float64(n1)
	}
	if n2 > 0 {
		res.Acc2 = float64(ok2) / float64(n2)
	}
	if n1+n2 > 0 {
		res.PredictedPos = float64(predPos) / float64(n1+n2)
	}
	res.FScore = FScore(res.Acc1, res.Acc2)
	return res, nil
}

func testSpec() GridSpec {
	s := LogGrid(1, 1e4, 5, 1e-4, 1, 4)
	s.WeightByClassFreq = true
	return s
}

// TestGridSearchMatchesSerialReference pins the pipeline's core
// invariant: the pooled search, which scores held-out rows by kernel
// table lookup, returns bit-identical rankings to the serial oracle,
// which scores them by rbf prediction.
func TestGridSearchMatchesSerialReference(t *testing.T) {
	p := overlappingBlobs(90)
	spec := testSpec()
	want, err := serialReferenceSearch(p, spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GridSearchContext(context.Background(), p, spec, SearchOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flattenConfigs(got), flattenConfigs(want)) {
		t.Fatal("pooled search diverges from the serial reference")
	}
}

// TestGridSearchDeterministicAcrossWorkers asserts bit-identical output
// for workers ∈ {1, 4, GOMAXPROCS} (the acceptance invariant: worker
// count and scheduling must not leak into the ranking).
func TestGridSearchDeterministicAcrossWorkers(t *testing.T) {
	p := overlappingBlobs(90)
	spec := testSpec()
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	var ref [][]uint64
	for _, w := range counts {
		cfgs, err := GridSearchContext(context.Background(), p, spec, SearchOptions{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		bits := flattenConfigs(cfgs)
		if ref == nil {
			ref = bits
			continue
		}
		if !reflect.DeepEqual(bits, ref) {
			t.Fatalf("workers=%d produced a different ranking than workers=%d", w, counts[0])
		}
	}
}

// flattenConfigs renders configs as float bit patterns so equality is
// exact (no -0/NaN surprises through reflect on floats).
func flattenConfigs(cfgs []Config) [][]uint64 {
	out := make([][]uint64, len(cfgs))
	for i, c := range cfgs {
		out[i] = []uint64{
			math.Float64bits(c.Params.C),
			math.Float64bits(c.Params.Gamma),
			math.Float64bits(c.Params.WeightPos),
			math.Float64bits(c.Params.WeightNeg),
			math.Float64bits(c.CV.Acc1),
			math.Float64bits(c.CV.Acc2),
			math.Float64bits(c.CV.FScore),
			math.Float64bits(c.CV.PredictedPos),
			uint64(c.CV.CappedFolds),
		}
	}
	return out
}

// TestGridSearchCancellation cancels mid-grid and asserts the partial-
// results contract: what came back is sorted, smaller than the grid,
// carries ctx's error, and the worker pool fully drains (no leaked
// goroutines).
func TestGridSearchCancellation(t *testing.T) {
	p := overlappingBlobs(90)
	spec := PaperGrid()
	spec.WeightByClassFreq = true
	spec.MaxIter = 2000

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	cfgs, err := GridSearchContext(ctx, p, spec, SearchOptions{
		Workers: 4,
		Progress: func(done, total int) {
			if calls.Add(1) == 10 {
				cancel()
			}
		},
	})
	cancel()
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	total := len(spec.Cs) * len(spec.Gammas)
	if len(cfgs) == 0 || len(cfgs) >= total {
		t.Fatalf("partial results: got %d of %d", len(cfgs), total)
	}
	for i := 1; i < len(cfgs); i++ {
		if cfgs[i].CV.FScore > cfgs[i-1].CV.FScore {
			t.Fatal("partial results not sorted by F-score")
		}
	}
	// The pool must have drained: goroutine count returns to (about)
	// its pre-search level.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before search, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGridSearchProgress verifies the progress callback counts every
// grid point exactly once and ends at the total.
func TestGridSearchProgress(t *testing.T) {
	p := overlappingBlobs(60)
	spec := testSpec()
	var last, calls int
	_, err := GridSearchContext(context.Background(), p, spec, SearchOptions{
		Workers: 2,
		Progress: func(done, total int) {
			calls++
			if done != last+1 || total != len(spec.Cs)*len(spec.Gammas) {
				t.Errorf("progress(%d, %d) after %d", done, total, last)
			}
			last = done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(spec.Cs)*len(spec.Gammas) {
		t.Fatalf("progress called %d times, want %d", calls, len(spec.Cs)*len(spec.Gammas))
	}
}

// TestTrainContextCancelled asserts training honours a pre-cancelled
// context instead of fitting a model.
func TestTrainContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := overlappingBlobs(60)
	if _, err := TrainContext(ctx, p, Params{C: 10, Gamma: 0.5}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
