package fault

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"ipas/internal/interp"
	"ipas/internal/ir"
)

// This file implements sectioned campaigns: the trial space is
// stratified by IR section (outermost loop nests and straight-line
// runs; see internal/ir/section.go), each stratum gets its own
// deterministic allocation and seed derived from the section's content
// fingerprint, and per-section journals make re-analysis after a code
// edit incremental — only sections whose fingerprints changed re-run.
//
// Two execution paths share the substrate:
//
//   - Campaign.RunContext and the coordinator (internal/campaign) see a
//     sectioned campaign as an ordinary one whose Plans carry section
//     targets: Prepare captures the golden boundary trace, Plans
//     returns the concatenated per-section lists, and Meta pins the
//     partition fingerprint in a distinct journal format.
//
//   - RunSections adds incrementality on top: one journal per section,
//     named by fingerprint, holding section-local site ordinals so a
//     journal stays valid even when edits elsewhere shift global
//     SiteIDs. A journal whose header still matches is reused
//     wholesale; a stale one (the section's code changed) is discarded
//     and its trials re-run. The trials it does not restore run on
//     RunContext's executor.

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
	// campaign seed and FP, so it survives edits to other sections.
	Seed int64
	// Start is the section's offset in the concatenated plan list.
	Start int
}

// SectionPlan is the sectioned substrate Prepare builds: the partition,
// the golden boundary trace, and the per-section allocations.
type SectionPlan struct {
	// Partition is the module's section partition.
	Partition *ir.Sections
	// Trace is the golden run's boundary capture.
	Trace *interp.SectionTrace
	// FP is the whole-partition fingerprint (journal headers pin it).
	FP string
	// Alloc holds one entry per section, in section-ID order.
	Alloc []SectionAlloc
	// Total is the summed trial count.
	Total int
	// MonoTrials is the analytic trial count a monolithic campaign
	// needs for the same per-site coverage target:
	// ceil(Coverage * Population / dmin-global). The sectioned saving
	// is MonoTrials / Total.
	MonoTrials int64

	tables   *interp.SectionTables
	trialCfg *interp.SectionConfig
	model    ErrorModel
}

// sectionSeed derives a per-section plan seed from the campaign seed
// and the section's content fingerprint: stable across edits elsewhere
// in the module, changed whenever the section itself changes.
func sectionSeed(seed int64, fp string) int64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h := sha256.New()
	h.Write(b[:])
	h.Write([]byte(fp))
	return int64(binary.LittleEndian.Uint64(h.Sum(nil)[:8]))
}

// newSectionPlan sizes every section's allocation from the golden run.
func newSectionPlan(c *Campaign, parts *ir.Sections, tables *interp.SectionTables, golden *interp.Result) (*SectionPlan, error) {
	trace := golden.Sections
	if trace == nil {
		return nil, fmt.Errorf("fault: sectioned golden run recorded no boundary trace")
	}
	sp := &SectionPlan{
		Partition: parts,
		Trace:     trace,
		FP:        parts.Fingerprint(),
		tables:    tables,
		trialCfg:  &interp.SectionConfig{Tables: tables, Golden: trace},
		model:     c.model(),
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
// fingerprint), so it is bit-identical across runs and unaffected by
// edits to other sections.
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

// allocOf maps a concatenated trial index onto its section allocation.
func (sp *SectionPlan) allocOf(t int) *SectionAlloc {
	i := sort.Search(len(sp.Alloc), func(i int) bool { return sp.Alloc[i].Start+sp.Alloc[i].Trials > t })
	if i == len(sp.Alloc) {
		return nil
	}
	return &sp.Alloc[i]
}

// localizeSite rewrites a trial's global SiteID into the section-local
// ordinal stored in per-section journals: global IDs shift when other
// sections change, local ordinals are pinned by the section's own
// fingerprint.
func (sp *SectionPlan) localizeSite(sec int, tr Trial) Trial {
	sites := sp.Partition.Sites(sec)
	i := sort.SearchInts(sites, tr.Site)
	if i < len(sites) && sites[i] == tr.Site {
		tr.Site = i
	} else {
		tr.Site = -1
	}
	return tr
}

// globalizeSite is the inverse mapping applied on journal restore.
func (sp *SectionPlan) globalizeSite(sec int, tr Trial) Trial {
	sites := sp.Partition.Sites(sec)
	if tr.Site >= 0 && tr.Site < len(sites) {
		tr.Site = sites[tr.Site]
	} else {
		tr.Site = -1
	}
	return tr
}

// sectionMeta pins one section's journal. GoldenDyn is deliberately 0:
// the whole-program dynamic count changes when *other* sections change,
// and must not invalidate this section's trials — the section
// fingerprint and population pin everything the trials depend on.
func (sp *SectionPlan) sectionMeta(a *SectionAlloc) JournalMeta {
	return JournalMeta{
		Format:     JournalFormatSectioned,
		Seed:       a.Seed,
		Trials:     a.Trials,
		Population: a.Pop,
		Model:      ModelName(sp.model),
		SectionFP:  a.FP,
	}
}

// sectionJournalName names a section's journal by fingerprint prefix.
func sectionJournalName(fp string) string {
	if len(fp) > 16 {
		fp = fp[:16]
	}
	return "sec-" + fp + ".jsonl"
}

// SectionStat is one section's disposition in a sectioned run.
type SectionStat struct {
	Section  int    `json:"section"`
	FP       string `json:"fp"`
	Label    string `json:"label"`
	Pop      int64  `json:"pop"`
	Trials   int    `json:"trials"`
	Restored int    `json:"restored"`
}

// SectionResult is a sectioned campaign's outcome: the concatenated
// trials (global SiteIDs, ready for internal/features and
// internal/compose) plus per-section accounting that incremental
// re-analysis and its tests assert against.
type SectionResult struct {
	*CampaignResult
	// Plan is the substrate the trials were drawn from.
	Plan *SectionPlan
	// Stats has one entry per section, in section-ID order.
	Stats []SectionStat
	// Restored counts trials reused from matching per-section journals;
	// Executed counts trials actually run this invocation.
	Restored int
	Executed int
}

// SectionTrials returns section sec's slice of the concatenated trials.
func (r *SectionResult) SectionTrials(sec int) []Trial {
	a := &r.Plan.Alloc[sec]
	return r.Trials[a.Start : a.Start+a.Trials]
}

// RunSections executes the sectioned campaign with per-section journals
// under dir (created if missing; "" disables journaling): sections
// whose journal header still matches — same fingerprint, seed,
// population, allocation — restore their trials without running
// anything; stale journals (the section's code changed, so the
// fingerprint-derived name or header differs) are discarded and
// re-run. This is the edit-one-function re-protect path: after an
// edit, only the changed sections' trial budgets are spent. The trials
// left to run go to the same executor as Campaign.RunContext, so
// workers, retries, Progress and the returned error behave alike.
func (p *Prepared) RunSections(ctx context.Context, dir string) (*SectionResult, error) {
	sp := p.secs
	if sp == nil {
		return nil, fmt.Errorf("fault: RunSections on a non-sectioned campaign (set Campaign.Sections)")
	}
	plans := sp.plans(sp.Total)
	out := &SectionResult{CampaignResult: p.NewResult(plans), Plan: sp}
	for _, a := range sp.Alloc {
		out.Stats = append(out.Stats, SectionStat{
			Section: a.Section, FP: a.FP, Label: a.Label,
			Pop: a.Pop, Trials: a.Trials,
		})
	}

	journals := make([]*Journal, len(sp.Alloc))
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("fault: creating section journal dir: %w", err)
		}
		defer func() {
			for _, j := range journals {
				if j != nil {
					j.Close()
				}
			}
		}()
		for i := range sp.Alloc {
			a := &sp.Alloc[i]
			if a.Trials == 0 {
				continue
			}
			j, restored, err := openSectionJournal(dir, sp, a)
			if err != nil {
				return nil, err
			}
			journals[i] = j
			for t, tr := range restored {
				if t < 0 || t >= a.Trials || tr.Status == TrialPending {
					continue
				}
				out.Trials[a.Start+t] = sp.globalizeSite(a.Section, tr)
				out.Stats[i].Restored++
			}
			out.Restored += out.Stats[i].Restored
		}
	}

	record := func(t int, tr Trial) error {
		a := sp.allocOf(t)
		if j := journals[a.Section]; j != nil {
			return j.Record(t-a.Start, sp.localizeSite(a.Section, tr))
		}
		return nil
	}
	err := p.execute(ctx, plans, out.CampaignResult, record)
	out.Executed = out.Completed + out.Failed - out.Restored
	return out, err
}

// openSectionJournal opens (or rebuilds) one section's journal and
// binds it to the allocation. A corrupt or mismatched journal under our
// own checkpoint directory is a stale artifact of an earlier binary or
// allocation — deleted and recreated, never fatal. A locked journal is
// a genuinely concurrent campaign and stays fatal.
func openSectionJournal(dir string, sp *SectionPlan, a *SectionAlloc) (*Journal, map[int]Trial, error) {
	path := filepath.Join(dir, sectionJournalName(a.FP))
	for attempt := 0; ; attempt++ {
		j, err := OpenJournal(path)
		if err != nil {
			if errors.Is(err, ErrJournalLocked) || attempt > 0 {
				return nil, nil, err
			}
			os.Remove(path)
			continue
		}
		restored, err := j.Begin(sp.sectionMeta(a))
		if err != nil {
			j.Close()
			// A header naming an unknown error model is a newer build's
			// checkpoint, not a stale artifact: rebuilding it would
			// silently re-run its trials under our default model.
			if attempt > 0 || errors.Is(err, ErrModelUnknown) {
				return nil, nil, err
			}
			// Stale header (e.g. a different Coverage or an older
			// allocation of the same section content): rebuild.
			os.Remove(path)
			continue
		}
		return j, restored, nil
	}
}
