// Package campaign spreads one fault-injection campaign over worker
// processes: a coordinator (cmd/campaignd) accepts campaign specs over
// HTTP/JSON, partitions the trial space into contiguous shards
// (shardRange), and hands shards to remote workers (cmd/ipas-worker)
// under time-bounded leases. Workers stream finished trials back as
// journal segments; the coordinator acknowledges a segment only after
// it is durable on disk, so a SIGKILLed or partitioned worker is
// replaced without losing an acked trial.
//
// Every shard journals into the campaign's one journal,
// <dir>/<id>/campaign.jsonl (fault.CampaignJournal), under the header
// a local run of the same campaign writes: a local campaign resumes a
// coordinator's journal and a coordinator resumes a local one, at any
// shard count. Shard lifecycle (queued → running → backoff → queued
// ... → done/failed) is shardMachine; the coordinator adds leases,
// heartbeats, durable acks and shard quarantine on top — a shard is
// the failure domain of one worker process. All requeue, backoff, and
// quarantine decisions are deterministic given the order of events —
// no report content ever depends on the wall clock. Client is the
// submitting side: Submit, then WaitResult; core.CampaignControls.Run
// is its one caller that turns a configured fault.Campaign into a
// spec.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"ipas/internal/fault"
	"ipas/internal/interp"
	"ipas/internal/lang"
	"ipas/internal/workloads"
)

// Spec describes one campaign as submitted to the coordinator. It must
// be self-contained: both the coordinator and every worker rebuild the
// identical campaign from it (program, verifier, configuration, plan
// sequence), which is what makes remote trials bit-identical to local
// ones. A spec names either a built-in workload (Workload + Input) or
// an inline sci program (Source + a named Verifier).
type Spec struct {
	// Name, when set, pins the campaign ID (and its journal directory)
	// to a stable, human-chosen key; otherwise the ID is a content
	// hash of the spec, so identical resubmissions converge on the
	// same campaign and different campaigns can never collide.
	Name string `json:"name,omitempty"`

	// Workload / Input select a built-in evaluation workload
	// (workloads.Get): its module, verification routine, and base
	// configuration.
	Workload string `json:"workload,omitempty"`
	Input    int    `json:"input,omitempty"`

	// Source is an inline sci program, the alternative to Workload;
	// Verifier names its output check ("exact": every output must
	// equal the golden run's bit for bit).
	Source   string `json:"source,omitempty"`
	Verifier string `json:"verifier,omitempty"`

	// Trials and Seed pin the plan sequence (trial t's fault plan is a
	// pure function of (Seed, t)).
	Trials int   `json:"trials"`
	Seed   int64 `json:"seed"`

	// Model names the error model plans are drawn with (fault.ParseModel
	// wire names: "single-bit", "burst-N", "random-N", "correlated",
	// "sticky"). Empty selects single-bit and keeps the spec JSON — and
	// therefore content-hashed campaign IDs — identical to pre-model
	// submissions. The model is part of the campaign fingerprint
	// (fault.JournalMeta.Model), so coordinator and workers refuse to
	// mix trials drawn under different models (ErrCampaignMismatch).
	Model string `json:"model,omitempty"`

	// Shards partitions the trial space (default 1, capped at Trials).
	Shards int `json:"shards,omitempty"`

	// Ranks / HangFactor mirror the fault.Campaign fields (zero values
	// select the same defaults: one rank, fault.DefaultHangFactor).
	Ranks      int   `json:"ranks,omitempty"`
	HangFactor int64 `json:"hang_factor,omitempty"`

	// Sections runs the campaign sectioned: the trial space stratifies
	// over IR sections and the per-section allocation derives the
	// trial count, so Trials may be left 0 — the coordinator fills it
	// at admission (fault.Prepared.SectionTotal) before computing
	// shard ranges, and every worker re-derives the same allocation
	// from the spec. Single-rank programs only.
	Sections bool `json:"sections,omitempty"`
	// Coverage is the sectioned coverage factor — expected injections
	// per exercised site per section (0 = 1). Only meaningful with
	// Sections.
	Coverage int `json:"coverage,omitempty"`
	// MaxPerSection caps any one section's trial budget (0 =
	// uncapped). Only meaningful with Sections.
	MaxPerSection int `json:"max_per_section,omitempty"`
}

// Normalize spells every default one way, in place, so that every
// spelling of one campaign hashes to one content ID: shards within
// [1, Trials], a workload's input 1, an inline source's "exact"
// verifier as "", a sectioned coverage 1, an uncapped section budget
// as 0, the error model as fault.ModelName names it (single-bit as
// ""), a hang factor that resolves to fault.DefaultHangFactor as 0,
// and one rank as 0 (Build and Validate read max(Ranks, 1)). Fields
// Build ignores read 0 or "": a workload's verifier, an inline
// source's input, and a plain campaign's coverage and section budget.
// A model that does not parse, a value above an admission bound and a
// spec naming both a workload and a source stay as submitted, for
// Validate to refuse.
func (s *Spec) Normalize() {
	if s.Shards <= 0 {
		s.Shards = 1
	}
	if s.Trials > 0 && s.Shards > s.Trials {
		s.Shards = s.Trials
	}
	switch {
	case s.Workload != "" && s.Source != "":
		// Validate refuses a spec naming both.
	case s.Workload != "":
		s.Verifier = ""
		if s.Input == 0 {
			s.Input = 1
		}
	case s.Source != "":
		s.Input = 0
		if s.Verifier == "exact" {
			s.Verifier = ""
		}
	}
	if s.Sections {
		s.Coverage = max(s.Coverage, 1)
		s.MaxPerSection = max(s.MaxPerSection, 0)
	} else {
		s.MaxPerSection = 0
		if s.Coverage <= maxTrials {
			s.Coverage = 0
		}
	}
	if m, err := fault.ParseModel(s.Model); err == nil {
		s.Model = fault.ModelName(m)
	}
	if s.HangFactor <= 0 || s.HangFactor == fault.DefaultHangFactor {
		s.HangFactor = 0
	}
	if s.Ranks <= 1 {
		s.Ranks = 0
	}
}

// Admission bounds. The coordinator allocates a campaign's plans and
// result slots, about 136 bytes a trial, while it holds its lock, and
// the golden run starts one goroutine and one address space per rank.
// The largest trial count the repository computes is AMG's
// monolithic-equivalent 3,733,195 (internal/compose's
// TestSectionedTrialCounts), and Figure 8 scales to 16 ranks. A worker
// runs a trial for up to hang factor × the golden run's length, so a
// huge factor lets one flip that makes a loop unbounded hold a lease
// for hours (the hang-factor ablation's largest is 50).
const (
	maxTrials     = 1 << 22
	maxRanks      = 64
	maxHangFactor = 1000
)

// Validate rejects specs the coordinator could not execute: besides an
// unbuildable program or model, a name that is no single path element
// under the journal root, and a trial count, coverage factor, rank
// count or hang factor above the admission bounds.
func (s *Spec) Validate() error {
	if s.Name != "" {
		if id := sanitizeID(s.Name); id == "." || id == ".." {
			return fmt.Errorf("campaign: spec name %q names no directory of its own", s.Name)
		}
	}
	switch {
	case s.Trials > maxTrials:
		return fmt.Errorf("campaign: spec asks for %d trials, above the limit of %d", s.Trials, maxTrials)
	case s.Coverage > maxTrials:
		return fmt.Errorf("campaign: spec asks for coverage %d, above the limit of %d", s.Coverage, maxTrials)
	case s.Ranks > maxRanks:
		return fmt.Errorf("campaign: spec asks for %d ranks, above the limit of %d", s.Ranks, maxRanks)
	case s.HangFactor > maxHangFactor:
		return fmt.Errorf("campaign: spec asks for hang factor %d, above the limit of %d", s.HangFactor, maxHangFactor)
	}
	if s.Sections {
		// The allocation supplies the trial count; a submitted count
		// would either be redundant or wrong.
		if s.Trials != 0 {
			return fmt.Errorf("campaign: sectioned spec must leave trials 0 (the allocation derives it; got %d)", s.Trials)
		}
		if max(s.Ranks, 1) > 1 {
			return fmt.Errorf("campaign: sectioned campaigns are single-rank (got ranks=%d)", s.Ranks)
		}
	} else if s.Trials <= 0 {
		return fmt.Errorf("campaign: spec needs trials > 0 (got %d)", s.Trials)
	}
	if _, err := fault.ParseModel(s.Model); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	switch {
	case s.Workload != "" && s.Source != "":
		return fmt.Errorf("campaign: spec sets both workload %q and an inline source; pick one", s.Workload)
	case s.Workload != "":
		if _, err := workloads.Get(s.Workload, max(s.Input, 1)); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	case s.Source != "":
		if _, err := lookupVerifier(s.Verifier); err != nil {
			return err
		}
	default:
		return fmt.Errorf("campaign: spec names neither a workload nor an inline source")
	}
	return nil
}

// ID returns the campaign's stable identifier: the sanitized Name when
// set, otherwise a content hash of the normalized spec.
func (s *Spec) ID() string {
	if s.Name != "" {
		return sanitizeID(s.Name)
	}
	data, _ := json.Marshal(s)
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// Build compiles the spec into an executable campaign. Coordinator and
// workers both call it; because compilation, SiteID assignment, and
// plan drawing are deterministic, every party agrees on the campaign's
// fingerprint (fault.Prepared.Meta) or refuses to proceed.
func (s *Spec) Build() (*fault.Campaign, error) {
	var (
		verify fault.Verifier
		cfg    interp.Config
		src    string
	)
	switch {
	case s.Workload != "":
		ws, err := workloads.Get(s.Workload, s.Input)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		verify = ws.Verify
		cfg = ws.BaseConfig(max(s.Ranks, 1))
		src = ws.Source
	case s.Source != "":
		v, err := lookupVerifier(s.Verifier)
		if err != nil {
			return nil, err
		}
		verify = v
		cfg = interp.Config{Ranks: max(s.Ranks, 1)}
		src = s.Source
	default:
		return nil, fmt.Errorf("campaign: spec names neither a workload nor an inline source")
	}
	m, err := lang.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("campaign: compiling spec program: %w", err)
	}
	prog, err := fault.Compile(m)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	model, err := fault.ParseModel(s.Model)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return &fault.Campaign{
		Prog:          prog,
		Verify:        verify,
		Config:        cfg,
		Seed:          s.Seed,
		Model:         model,
		HangFactor:    s.HangFactor,
		Sections:      s.Sections,
		Coverage:      s.Coverage,
		MaxPerSection: s.MaxPerSection,
	}, nil
}

// Fill copies into the spec everything of a configured campaign that
// pins its plan sequence and per-trial behaviour — the inverse of
// Build: seed, error model, ranks and hang factor, plus either the
// trial count n or, for a sectioned campaign, its section knobs (the
// coordinator derives the trial count from the allocation). The spec
// keeps naming the program (Workload/Input or Source/Verifier) and its
// shard count; Fill then normalizes it. Building the filled spec
// yields a campaign with c's Meta(n).
func (s *Spec) Fill(c *fault.Campaign, n int) {
	s.Seed = c.Seed
	s.Model = fault.ModelName(c.Model)
	s.Ranks = c.Config.Ranks
	s.HangFactor = c.HangFactor
	s.Trials = n
	if c.Sections {
		s.Sections, s.Coverage, s.MaxPerSection = true, c.Coverage, c.MaxPerSection
		s.Trials = 0
	}
	s.Normalize()
}

// lookupVerifier resolves a named output check for inline programs.
// Verifiers must be named, not serialized: both sides of the protocol
// need the identical routine.
func lookupVerifier(name string) (fault.Verifier, error) {
	switch name {
	case "", "exact":
		return exactVerifier, nil
	}
	return nil, fmt.Errorf("campaign: unknown verifier %q (inline sources support: exact)", name)
}

// exactVerifier accepts a faulty run only when every output equals the
// golden run's bit for bit — the strictest check, and the right
// default for custom programs whose tolerance nobody has stated.
func exactVerifier(golden, faulty *interp.Result) bool {
	if len(faulty.OutputF) != len(golden.OutputF) || len(faulty.OutputI) != len(golden.OutputI) {
		return false
	}
	for i := range golden.OutputF {
		if faulty.OutputF[i] != golden.OutputF[i] {
			return false
		}
	}
	for i := range golden.OutputI {
		if faulty.OutputI[i] != golden.OutputI[i] {
			return false
		}
	}
	return true
}

// sanitizeID maps a user-chosen campaign name onto a safe directory /
// URL path segment.
func sanitizeID(name string) string {
	var sb strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			sb.WriteRune(r)
		default:
			sb.WriteByte('-')
		}
	}
	if sb.Len() == 0 {
		return "campaign"
	}
	return sb.String()
}
