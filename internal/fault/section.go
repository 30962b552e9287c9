package fault

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"ipas/internal/interp"
)

// This file implements sectioned campaigns: the trial space is
// stratified by IR section (outermost loop nests and straight-line
// runs; see internal/ir/section.go), and each stratum gets its own
// deterministic allocation and plan stream.
//
// Beyond that, a sectioned campaign is an ordinary one whose Plans carry
// section targets: Prepare captures the golden boundary trace, Plans
// returns the concatenated per-section lists, and Meta pins the whole
// program in a distinct journal format. Campaign.RunContext,
// RunSections and the coordinator (internal/campaign) journal it like
// a plain campaign — one journal, global SiteIDs — because a trial
// records the whole program's outcome: no trial outlives an edit to
// any part of the program.

// SectionAlloc is one section's slice of a sectioned trial space.
type SectionAlloc struct {
	// Section is the module-global section ID (ir.Section.ID).
	Section int
	// FP is the section's content fingerprint.
	FP string
	// Label is the section's human-readable name ("@fn#i(loop hdr)").
	Label string
	// Pop is the section's injectable dynamic-instance population in
	// the golden run — the space Index draws from.
	Pop int64
	// Dmin is the dynamic count of the section's rarest exercised site.
	Dmin int64
	// Trials is the allocation: ceil(Coverage * Pop / Dmin), capped by
	// Campaign.MaxPerSection.
	Trials int
	// Seed drives this section's plan sequence; derived from the
	// campaign seed and FP (see sectionSeed).
	Seed int64
	// Start is the section's offset in the concatenated plan list.
	Start int
}

// SectionPlan is the sectioned substrate Prepare builds: the
// per-section allocations over the program's section partition.
type SectionPlan struct {
	// Alloc holds one entry per section, in section-ID order.
	Alloc []SectionAlloc
	// Total is the summed trial count.
	Total int
	// MonoTrials is the analytic trial count a monolithic campaign
	// needs for the same per-site coverage target:
	// ceil(Coverage * Population / dmin-global). The sectioned saving
	// is MonoTrials / Total.
	MonoTrials int64

	trialCfg *interp.SectionConfig
	model    ErrorModel
}

// sectionSeed derives a per-section plan seed from the campaign seed
// and the section's content fingerprint, which keeps every section's
// plan stream, and with it every recorded sectioned result, stable. It
// does not let trials survive an edit: Prepared.Meta pins the whole
// program, so journals never carry trials across program versions.
func sectionSeed(seed int64, fp string) int64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h := sha256.New()
	h.Write(b[:])
	h.Write([]byte(fp))
	return int64(binary.LittleEndian.Uint64(h.Sum(nil)[:8]))
}

// newSectionPlan sizes every section of the program's partition from
// the sectioned golden run.
func newSectionPlan(c *Campaign, golden *interp.Result) (*SectionPlan, error) {
	trace := golden.Sections
	if trace == nil {
		return nil, fmt.Errorf("fault: sectioned golden run recorded no boundary trace")
	}
	parts := c.Prog.Sections()
	sp := &SectionPlan{
		trialCfg: &interp.SectionConfig{Golden: trace},
		model:    c.model(),
	}
	var dminGlobal int64 = -1
	for sid, s := range parts.All {
		a := SectionAlloc{
			Section: sid,
			FP:      s.Fingerprint,
			Label:   s.String(),
			Pop:     trace.Pops[sid],
			Seed:    sectionSeed(c.Seed, s.Fingerprint),
			Start:   sp.Total,
		}
		if a.Pop > 0 {
			for _, site := range parts.Sites(sid) {
				n := golden.SiteCounts[site]
				if n > 0 && (a.Dmin <= 0 || n < a.Dmin) {
					a.Dmin = n
				}
				if n > 0 && (dminGlobal <= 0 || n < dminGlobal) {
					dminGlobal = n
				}
			}
			if a.Dmin <= 0 {
				a.Dmin = a.Pop // defensive; Pop > 0 implies an exercised site
			}
			n := (int64(c.Coverage)*a.Pop + a.Dmin - 1) / a.Dmin
			if c.MaxPerSection > 0 && n > int64(c.MaxPerSection) {
				n = int64(c.MaxPerSection)
			}
			a.Trials = int(n)
		}
		sp.Total += a.Trials
		sp.Alloc = append(sp.Alloc, a)
	}
	if sp.Total == 0 {
		return nil, fmt.Errorf("fault: no section has injectable dynamic instances")
	}
	if dminGlobal <= 0 {
		dminGlobal = golden.Injectable[0]
	}
	sp.MonoTrials = (int64(c.Coverage)*golden.Injectable[0] + dminGlobal - 1) / dminGlobal
	return sp, nil
}

// plans returns the concatenated per-section plan lists. Each section's
// subsequence is a pure function of (campaign seed, section
// fingerprint), so it is bit-identical across runs.
func (sp *SectionPlan) plans(n int) []interp.FaultPlan {
	out := make([]interp.FaultPlan, 0, sp.Total)
	for _, a := range sp.Alloc {
		if a.Trials == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(a.Seed))
		for t := 0; t < a.Trials; t++ {
			// Index first, then the model's draws — the same stream
			// discipline as the flat engine, so the single-bit model's
			// sequences match pre-model sectioned journals bit for bit.
			plan := interp.FaultPlan{
				Rank:    0,
				Index:   rng.Int63n(a.Pop),
				Section: int32(a.Section),
			}
			sp.model.Draw(rng, &plan)
			out = append(out, plan)
		}
	}
	if n >= 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// SectionResult is a sectioned campaign's outcome: the concatenated
// trials (global SiteIDs, ready for internal/features and
// internal/compose) plus the per-section allocation they were drawn
// from.
type SectionResult struct {
	*CampaignResult
	// Plan is the substrate the trials were drawn from.
	Plan *SectionPlan
	// Stats is the plan's allocation: one entry per section, in
	// section-ID order.
	Stats []SectionAlloc
}

// SectionTrials returns section sec's slice of the concatenated trials.
func (r *SectionResult) SectionTrials(sec int) []Trial {
	a := &r.Plan.Alloc[sec]
	return r.Trials[a.Start : a.Start+a.Trials]
}

// SectionResult pairs a result of this sectioned substrate's whole
// allocation — run here or on a coordinator — with its per-section
// accounting.
func (p *Prepared) SectionResult(res *CampaignResult) *SectionResult {
	return &SectionResult{CampaignResult: res, Plan: p.secs, Stats: p.secs.Alloc}
}

// RunSections executes the sectioned campaign's whole allocation on the
// same path as Campaign.RunContext, journaling into dir's campaign
// journal (OpenCampaignJournal; "" disables journaling) instead of
// Campaign.Journal. Re-running the same campaign against dir restores
// its trials, and any other campaign — a different program, seed,
// budget or model — is refused with ErrCampaignMismatch. So is a
// directory holding an older build's journal layout.
func (p *Prepared) RunSections(ctx context.Context, dir string) (*SectionResult, error) {
	if p.secs == nil {
		return nil, fmt.Errorf("fault: RunSections on a non-sectioned campaign (set Campaign.Sections)")
	}
	var j *Journal
	if dir != "" {
		var err error
		if j, err = OpenCampaignJournal(dir); err != nil {
			return nil, err
		}
	}
	res, err := p.run(ctx, p.secs.Total, j)
	if j != nil {
		err = errors.Join(err, j.Close())
	}
	if res == nil {
		return nil, err
	}
	return p.SectionResult(res), err
}
