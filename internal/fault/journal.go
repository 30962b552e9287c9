package fault

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// JournalFormat identifies the trial-journal file format.
const JournalFormat = "ipas-trial-journal-v1"

// JournalFormatSectioned identifies the journal of a sectioned
// campaign: the same line format and global SiteIDs, but trial t holds
// the t-th plan of the concatenated per-section streams, not of the
// flat stream. The distinct format string makes a plain campaign
// driving a sectioned journal (or vice versa) fail loudly with
// ErrCampaignMismatch instead of silently mixing the two trial spaces.
const JournalFormatSectioned = "ipas-trial-journal-sectioned-v1"

// CampaignJournal names the one journal a campaign keeps in its
// directory: RunSections's dir and a coordinator campaign's
// <root>/<id>/. Both hold the journal a local Campaign.Journal would
// write, so either side resumes the other's.
const CampaignJournal = "campaign.jsonl"

// JournalMeta fingerprints the campaign a journal belongs to. Seed and
// Trials pin the plan sequence; ProgramFP pins the program, GoldenDyn
// and Population the execution configuration (a different input
// produces a different golden run), and HangFactor the hang budget.
// Resuming across any of them would silently mix incompatible trials,
// so Begin refuses it.
type JournalMeta struct {
	Format    string `json:"format"`
	Seed      int64  `json:"seed"`
	Trials    int    `json:"trials"`
	GoldenDyn int64  `json:"golden_dyn"`
	// Population is the injectable dynamic-instance count on rank 0.
	Population int64 `json:"population"`

	// Model names the error model the campaign's plans were drawn with
	// (fault.ErrorModel wire name). Empty — and omitted, so pre-model
	// journals parse and compare equal — for the default single-bit
	// model. Begin refuses a header naming a model this build does not
	// know (ErrModelUnknown wrapping ErrCampaignMismatch): re-running
	// such a journal's trials under the default model would silently
	// replace one trial space with another.
	Model string `json:"model,omitempty"`

	// ProgramFP is the whole program's content fingerprint
	// (interp.Program.Fingerprint), set in every campaign's header,
	// plain or sectioned, local or coordinator. A trial records the
	// program's end-to-end outcome, so an edit anywhere, even outside
	// the section a trial injected into, can change it: no journal
	// outlives an edit to its program. A header without it was written
	// by an older build and is refused.
	ProgramFP string `json:"program_fp"`

	// HangFactor is the campaign's resolved hang factor
	// (Campaign.HangFactor), which decides which long trials end as
	// hangs. Zero — and omitted, so every default campaign's header
	// keeps its bytes — for the default factor.
	HangFactor int64 `json:"hang_factor,omitempty"`
}

// journalLine is one JSONL record: exactly one of Meta (first line) or
// Trial is set.
type journalLine struct {
	Meta  *JournalMeta `json:"meta,omitempty"`
	T     int          `json:"t,omitempty"`
	Trial *Trial       `json:"trial,omitempty"`
}

// Journal is an append-only JSONL checkpoint of a fault-injection
// campaign: a meta header followed by one line per finished trial.
// Opening an existing journal restores its trials so the campaign can
// resume; a trailing partial line (crash mid-write) is discarded and
// overwritten. Record order does not matter — trials carry their index
// — so any worker interleaving checkpoints correctly.
type Journal struct {
	path string

	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	meta *JournalMeta
	// restored holds the trials load found until Begin hands them to
	// the campaign, which keeps the one copy; loaded counts them.
	restored map[int]Trial
	loaded   int
	began    bool
	syncs    int // fsyncs issued (tests assert the durability accounting)
}

// ErrJournalLocked reports that a journal file is already open in
// another campaign (this process or another); OpenJournal wraps it.
var ErrJournalLocked = errors.New("journal is locked by a concurrent campaign")

// ErrJournalCorrupt reports structural damage beyond a torn tail — an
// unknown format, a duplicate header, a body without a header, a trial
// record its header could not have produced (see load). OpenJournal
// refuses such a file without touching it, plain or sectioned. Only
// the coordinator recovers from it, deleting a corrupt campaign
// journal and re-running the campaign from trial 0; a locked or
// foreign journal is never recoverable that way.
var ErrJournalCorrupt = errors.New("journal is corrupt")

// ErrCampaignMismatch reports that a journal's header pins a different
// campaign than the one trying to drive it; Journal.Begin wraps it.
// Callers distinguishing "foreign but valid journal" (hard error:
// never clobber someone else's checkpoint) from "corrupt journal"
// (the coordinator re-runs a corrupt campaign) test for it with
// errors.Is.
var ErrCampaignMismatch = errors.New("journal belongs to a different campaign")

// ErrModelUnknown reports that a journal's header names an error model
// this build does not know — a forward-compatibility refusal, not
// corruption. It always arrives wrapped together with
// ErrCampaignMismatch, so every path that hard-fails on foreign
// journals (a resumed campaign, plain or sectioned, and the
// coordinator) refuses it; the distinct sentinel lets callers tell the
// user the journal came from a newer build.
var ErrModelUnknown = errors.New("journal names an unknown error model")

// OpenJournal opens (or creates) the campaign journal at path and
// loads every complete record already present. The file is held under
// an exclusive advisory lock for the journal's lifetime, so two
// concurrent campaigns can never interleave writes into one journal:
// the second opener fails with ErrJournalLocked.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fault: opening journal: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf(
			"fault: journal %s: %w: another worker, campaign, or CLI in this or another process holds it; stop that run or point this one at a different journal path (%v)",
			path, ErrJournalLocked, err)
	}
	j := &Journal{path: path, f: f, restored: map[int]Trial{}}
	valid, err := j.load()
	if err != nil {
		f.Close()
		return nil, err
	}
	j.loaded = len(j.restored)
	// Drop a torn trailing line and position appends after the last
	// complete record.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, fmt.Errorf("fault: truncating journal %s: %w", path, err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	j.w = bufio.NewWriter(f)
	return j, nil
}

// OpenCampaignJournal opens the one journal of a campaign directory,
// dir/CampaignJournal, creating dir if missing. A directory holding an
// older build's layout — per-section journals (RunSections), or
// per-shard journals and their merged copy (the coordinator) — is
// refused with ErrCampaignMismatch and left untouched: no path reads
// those files any more, so running anyway would silently re-run their
// trials.
func OpenCampaignJournal(dir string) (*Journal, error) {
	for _, pattern := range []string{"sec-*.jsonl", "shard-*.jsonl", "merged.jsonl"} {
		if old, _ := filepath.Glob(filepath.Join(dir, pattern)); len(old) > 0 {
			return nil, fmt.Errorf("fault: %s holds %s of an older build, which this one cannot resume: %w; finish it with that build or use a fresh directory",
				dir, filepath.Base(old[0]), ErrCampaignMismatch)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fault: creating campaign dir: %w", err)
	}
	return OpenJournal(filepath.Join(dir, CampaignJournal))
}

// load parses the journal, filling meta and restored, and returns the
// byte offset just past the last complete, well-formed line. A record
// is only trusted when newline-terminated and valid JSON; anything
// after the first torn or malformed line is discarded. A trial record
// must be one a campaign under the header could have written: a
// settled trial (CheckSettled) whose index is within the header's
// Trials. Anything else is corruption, so every restored trial can be
// copied into a result as it is.
func (j *Journal) load() (int64, error) {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	data, err := io.ReadAll(j.f)
	if err != nil {
		return 0, fmt.Errorf("fault: reading journal %s: %w", j.path, err)
	}
	var valid int64
	rest := data
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break // torn tail: no terminating newline
		}
		line := bytes.TrimSpace(rest[:nl])
		advance := int64(nl) + 1
		rest = rest[nl+1:]
		if len(line) == 0 {
			valid += advance
			continue
		}
		var rec journalLine
		if err := json.Unmarshal(line, &rec); err != nil {
			break // torn tail: keep what parsed so far
		}
		switch {
		case rec.Meta != nil:
			if rec.Meta.Format != JournalFormat && rec.Meta.Format != JournalFormatSectioned {
				return 0, fmt.Errorf("fault: journal %s: %w: unknown format %q", j.path, ErrJournalCorrupt, rec.Meta.Format)
			}
			if j.meta != nil {
				return 0, fmt.Errorf("fault: journal %s: %w: duplicate meta header", j.path, ErrJournalCorrupt)
			}
			j.meta = rec.Meta
		case rec.Trial != nil:
			if j.meta == nil {
				return 0, fmt.Errorf("fault: journal %s: %w: trial record before meta header", j.path, ErrJournalCorrupt)
			}
			if rec.T < 0 || rec.T >= j.meta.Trials {
				return 0, fmt.Errorf("fault: journal %s: %w: trial %d is outside the header's [0,%d)", j.path, ErrJournalCorrupt, rec.T, j.meta.Trials)
			}
			if err := CheckSettled(*rec.Trial); err != nil {
				return 0, fmt.Errorf("fault: journal %s: %w: trial %d: %v", j.path, ErrJournalCorrupt, rec.T, err)
			}
			j.restored[rec.T] = *rec.Trial
		}
		valid += advance
	}
	return valid, nil
}

// CheckSettled reports why tr is not a settled trial, the only kind a
// journal holds and a coordinator segment carries: its status must be
// completed or failed, and a completed trial's outcome one of the
// NumOutcomes classes.
func CheckSettled(tr Trial) error {
	switch {
	case tr.Status != TrialCompleted && tr.Status != TrialFailed:
		return fmt.Errorf("status %v; only settled trials are recorded", tr.Status)
	case tr.Status == TrialCompleted && (tr.Outcome < 0 || tr.Outcome >= NumOutcomes):
		return fmt.Errorf("outcome %d is outside [0,%d)", tr.Outcome, NumOutcomes)
	}
	return nil
}

// Restored reports how many trials the journal held when it was
// opened; trials recorded since are not counted.
func (j *Journal) Restored() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.loaded
}

// Begin binds the journal to a campaign: a fresh journal writes the
// meta header; an existing one verifies that it belongs to the same
// campaign (same format, seed, trial count, program, golden-run
// fingerprint, model and hang factor) and hands back the restored
// trials, every one settled and indexed within meta.Trials. The
// journal keeps no copy of them, nor of the trials Record appends.
func (j *Journal) Begin(meta JournalMeta) (map[int]Trial, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if meta.Format == "" {
		meta.Format = JournalFormat
	}
	if j.began {
		return nil, fmt.Errorf("fault: journal %s: already driving a campaign", j.path)
	}
	if j.meta != nil {
		if !KnownModel(j.meta.Model) {
			return nil, fmt.Errorf(
				"fault: journal %s: %w: %w: model %q (written by a newer build?); refusing to resume its trials under a different model",
				j.path, ErrCampaignMismatch, ErrModelUnknown, j.meta.Model)
		}
		if *j.meta != meta {
			return nil, fmt.Errorf(
				"fault: journal %s: %w (journal format=%q seed=%d trials=%d goldenDyn=%d pop=%d model=%q programFP=%.16s hangFactor=%d; campaign format=%q seed=%d trials=%d goldenDyn=%d pop=%d model=%q programFP=%.16s hangFactor=%d)",
				j.path, ErrCampaignMismatch,
				j.meta.Format, j.meta.Seed, j.meta.Trials, j.meta.GoldenDyn, j.meta.Population, j.meta.Model, j.meta.ProgramFP, j.meta.HangFactor,
				meta.Format, meta.Seed, meta.Trials, meta.GoldenDyn, meta.Population, meta.Model, meta.ProgramFP, meta.HangFactor)
		}
		j.began = true
		prev := j.restored
		j.restored = nil
		return prev, nil
	}
	if err := j.append(journalLine{Meta: &meta}); err != nil {
		return nil, err
	}
	j.meta = &meta
	j.began = true
	return nil, nil
}

// Sync flushes buffered records and forces them to stable storage.
// Record and Close never fsync: a killed local campaign resumes from
// the OS's copy, and the campaign coordinator calls Sync before it
// acknowledges a worker's segment, so an acked trial survives host
// power loss.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w == nil {
		return fmt.Errorf("fault: journal %s: closed", j.path)
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	j.syncs++
	return j.f.Sync()
}

// Record appends one finished trial and flushes it to the OS, so a
// killed process loses at most the line being written.
func (j *Journal) Record(t int, tr Trial) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w == nil {
		return fmt.Errorf("fault: journal %s: closed", j.path)
	}
	return j.append(journalLine{T: t, Trial: &tr})
}

func (j *Journal) append(rec journalLine) error {
	data, err := json.Marshal(&rec)
	if err != nil {
		return err
	}
	if _, err := j.w.Write(data); err != nil {
		return err
	}
	if err := j.w.WriteByte('\n'); err != nil {
		return err
	}
	return j.w.Flush()
}

// Close flushes and closes the journal file. The journal stays on disk
// for later resume; delete it once its campaign result is consumed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w == nil {
		return nil
	}
	err := j.w.Flush()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.w, j.f = nil, nil
	return err
}
