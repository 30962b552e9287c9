package svm

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"
)

// GridSpec describes the (C, γ) hyper-parameter grid. The paper varies
// C between 1 and 100,000 and γ between 0.00001 and 1 with 500
// combinations; LogGrid reproduces that on logarithmic axes.
type GridSpec struct {
	Cs     []float64
	Gammas []float64
	// Folds is the cross-validation fold count (default 5).
	Folds int
	// WeightByClassFreq enables inverse-frequency class weights, the
	// imbalance countermeasure §4.3.1 motivates.
	WeightByClassFreq bool
	// MaxIter, when positive, bounds SMO iterations per trained model
	// (0 keeps the per-problem default, 100·n with a 10,000 floor).
	MaxIter int
}

// LogGrid builds nc log-spaced C values in [cLo, cHi] and ng log-spaced
// gamma values in [gLo, gHi].
func LogGrid(cLo, cHi float64, nc int, gLo, gHi float64, ng int) GridSpec {
	return GridSpec{Cs: logSpace(cLo, cHi, nc), Gammas: logSpace(gLo, gHi, ng), Folds: 5}
}

// PaperGrid is the paper's search space: 25 × 20 = 500 configurations,
// C ∈ [1, 1e5], γ ∈ [1e-5, 1].
func PaperGrid() GridSpec { return LogGrid(1, 1e5, 25, 1e-5, 1, 20) }

// QuickGrid is a reduced 48-point grid for laptop-scale runs.
func QuickGrid() GridSpec { return LogGrid(1, 1e5, 8, 1e-5, 1, 6) }

func logSpace(lo, hi float64, n int) []float64 {
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	llo, lhi := math.Log(lo), math.Log(hi)
	for i := 0; i < n; i++ {
		out[i] = math.Exp(llo + (lhi-llo)*float64(i)/float64(n-1))
	}
	return out
}

// Config is one evaluated grid point.
type Config struct {
	Params Params
	CV     CVResult
}

// SearchOptions tunes GridSearchContext. The zero value searches with
// one worker per CPU and no progress reporting.
type SearchOptions struct {
	// Workers bounds concurrent grid-point evaluations (≤ 0 uses
	// GOMAXPROCS). Every grid point is evaluated independently and
	// gathered by grid index, so results are bit-identical for any
	// worker count.
	Workers int
	// Progress, when non-nil, is called under the search's lock after
	// each evaluated grid point with the completed and total counts.
	Progress func(done, total int)
}

// GridSearch cross-validates every (C, γ) combination and returns the
// configurations sorted by descending F-score (ties broken towards
// smaller predicted-positive fraction, i.e. less protection overhead,
// then by C and γ for determinism).
func GridSearch(p *Problem, spec GridSpec) ([]Config, error) {
	return GridSearchContext(context.Background(), p, spec, SearchOptions{})
}

// GridSearchContext is GridSearch with a bounded worker pool,
// cancellation, and progress reporting. The problem's distinct feature
// vectors and their distances are computed once; each (C, γ) point
// exponentiates its own kernel table over them into its worker's
// buffer, is evaluated independently and gathered by grid index, so
// the ranking is bit-identical regardless of worker count or
// scheduling. On cancellation the configurations evaluated so
// far are returned — sorted — together with ctx's error, matching the
// campaign engine's partial-results contract.
func GridSearchContext(ctx context.Context, p *Problem, spec GridSpec, opts SearchOptions) ([]Config, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	folds := spec.Folds
	if folds <= 0 {
		folds = 5
	}
	var wPos, wNeg float64
	if spec.WeightByClassFreq {
		pos, neg := p.Count()
		if pos > 0 && neg > 0 {
			n := float64(pos + neg)
			// Inverse class frequency, normalized so weights average 1.
			wPos = n / (2 * float64(pos))
			wNeg = n / (2 * float64(neg))
		}
	}

	total := len(spec.Cs) * len(spec.Gammas)
	if total == 0 {
		return nil, errors.New("svm: empty grid")
	}
	// γ-major dispatch order. The task index doubles as the
	// deterministic gather slot (and final sort tiebreaker).
	params := make([]Params, 0, total)
	for _, g := range spec.Gammas {
		for _, c := range spec.Cs {
			params = append(params, Params{C: c, Gamma: g, WeightPos: wPos, WeightNeg: wNeg, MaxIter: spec.MaxIter})
		}
	}

	vs := newVectors(p.X)
	splits := makeFoldSplits(p, vs.of, folds)

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	results := make([]Config, total)
	evaluated := make([]bool, total)
	var (
		mu       sync.Mutex
		done     int
		firstErr error
	)

	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]float64, vs.n*vs.n)
			for t := range next {
				kt := vs.kernel(params[t].Gamma, buf)
				cv, err := crossValidate(ctx, p, params[t], vs.of, kt, splits)
				mu.Lock()
				if err != nil {
					// Cancellation surfaces through ctx below; any
					// other error fails the search.
					if ctx.Err() == nil && firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				results[t] = Config{Params: params[t], CV: cv}
				evaluated[t] = true
				done++
				if opts.Progress != nil {
					opts.Progress(done, total)
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for t := 0; t < total; t++ {
		select {
		case next <- t:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	order := make([]int, 0, total)
	for t := range results {
		if evaluated[t] {
			order = append(order, t)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		return configLess(&results[order[a]], &results[order[b]], order[a], order[b])
	})
	out := make([]Config, len(order))
	for i, t := range order {
		out[i] = results[t]
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// configLess is the ranking order: descending F-score, then smaller
// predicted-positive fraction (less protection overhead), then C and γ,
// then grid index — a strict total order, so the sorted ranking is
// identical however the evaluations were scheduled.
func configLess(a, b *Config, ai, bi int) bool {
	if a.CV.FScore != b.CV.FScore {
		return a.CV.FScore > b.CV.FScore
	}
	if a.CV.PredictedPos != b.CV.PredictedPos {
		return a.CV.PredictedPos < b.CV.PredictedPos
	}
	if a.Params.C != b.Params.C {
		return a.Params.C < b.Params.C
	}
	if a.Params.Gamma != b.Params.Gamma {
		return a.Params.Gamma < b.Params.Gamma
	}
	return ai < bi
}

// TopN returns the best n configurations (fewer if the grid is small),
// the paper's "top-5 configurations" selection (§6.1).
func TopN(cfgs []Config, n int) []Config {
	if n > len(cfgs) {
		n = len(cfgs)
	}
	return cfgs[:n]
}
