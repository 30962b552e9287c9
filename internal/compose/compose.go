// Package compose folds per-section fault-injection outcome
// distributions into whole-program estimates — the compositional half
// of sectioned campaigns (FastFlip-style). A hardware fault is modeled
// as landing uniformly at random on the whole-program injectable
// dynamic-instance population P = Σ_s P_s, so the law of total
// probability gives the whole-program outcome distribution as the
// population-weighted average of the per-section estimates:
//
//	π_o = Σ_s (P_s / P) · (c_{s,o} / n_s)
//
// where c_{s,o} counts section s's completed trials with outcome o and
// n_s its completed-trial total. Each stratum's estimate is unbiased
// for its conditional distribution, so the composition is unbiased for
// the whole — with far fewer trials than a monolithic campaign, because
// rare-but-cold sections no longer need the hot loop's sampling depth
// to be covered.
package compose

import (
	"fmt"

	"ipas/internal/fault"
)

// SectionOutcome is one section's observed outcome counts.
type SectionOutcome struct {
	// FP identifies the section (content fingerprint).
	FP string `json:"fp"`
	// Population is P_s: the section's injectable dynamic-instance
	// count in the golden run.
	Population int64 `json:"population"`
	// Trials is n_s: completed trials for this section.
	Trials int `json:"trials"`
	// Counts are the per-outcome completed-trial counts; they must sum
	// to Trials.
	Counts [fault.NumOutcomes]int `json:"counts"`
}

// Distribution is a probability distribution over fault outcomes,
// indexed by fault.Outcome.
type Distribution [fault.NumOutcomes]float64

// Whole composes per-section outcome distributions into the
// whole-program distribution. Sections with zero population carry no
// probability mass and may have zero trials; a section with positive
// population and no completed trials is an uncovered stratum and an
// error — silently dropping it would bias every estimate.
func Whole(secs []SectionOutcome) (Distribution, error) {
	var d Distribution
	var pop int64
	for _, s := range secs {
		if s.Population < 0 {
			return d, fmt.Errorf("compose: section %.16s has negative population %d", s.FP, s.Population)
		}
		pop += s.Population
	}
	if pop == 0 {
		return d, fmt.Errorf("compose: no section has injectable population")
	}
	for _, s := range secs {
		if s.Population == 0 {
			continue
		}
		if s.Trials <= 0 {
			return d, fmt.Errorf("compose: section %.16s has population %d but no completed trials", s.FP, s.Population)
		}
		n := 0
		for _, c := range s.Counts {
			if c < 0 {
				return d, fmt.Errorf("compose: section %.16s has negative outcome count", s.FP)
			}
			n += c
		}
		if n != s.Trials {
			return d, fmt.Errorf("compose: section %.16s counts sum to %d, trials = %d", s.FP, n, s.Trials)
		}
		w := float64(s.Population) / float64(pop)
		for o, c := range s.Counts {
			d[o] += w * float64(c) / float64(s.Trials)
		}
	}
	return d, nil
}

// FromSectionResult extracts per-section outcomes from a sectioned
// campaign run. Only completed trials count; a section whose trials all
// failed surfaces later as an uncovered stratum in Whole.
func FromSectionResult(r *fault.SectionResult) []SectionOutcome {
	out := make([]SectionOutcome, 0, len(r.Plan.Alloc))
	for i := range r.Plan.Alloc {
		a := &r.Plan.Alloc[i]
		s := SectionOutcome{FP: a.FP, Population: a.Pop}
		for _, tr := range r.SectionTrials(i) {
			if tr.Status != fault.TrialCompleted {
				continue
			}
			s.Trials++
			s.Counts[tr.Outcome]++
		}
		out = append(out, s)
	}
	return out
}

// Sum returns the distribution's total probability mass (1 within
// floating-point error for any successful composition).
func (d Distribution) Sum() float64 {
	var s float64
	for _, p := range d {
		s += p
	}
	return s
}
