package core

import (
	"context"
	"fmt"
	"time"

	"ipas/internal/dup"
	"ipas/internal/fault"
	"ipas/internal/ir"
	"ipas/internal/svm"
)

// Options parameterizes a full workflow run.
type Options struct {
	// Samples is the number of fault-injection training samples
	// (Step 2); the paper uses 2,500.
	Samples int
	// Grid is the (C, γ) search space; the paper uses 500 points.
	Grid svm.GridSpec
	// TopN is how many best-F-score configurations to carry into the
	// evaluation; the paper uses 5 (§6.1).
	TopN int
	// EvalTrials is the number of fault injections per protected
	// variant when evaluating coverage; the paper uses 1,024.
	EvalTrials int
	// Seed drives all sampling.
	Seed int64
	// Controls carries resilience knobs (workers, progress,
	// checkpointing) threaded into every campaign the workflow runs.
	// Nil keeps the defaults: no checkpointing, GOMAXPROCS workers.
	Controls *CampaignControls
}

// PaperOptions returns the paper-scale parameters.
func PaperOptions() Options {
	return Options{Samples: 2500, Grid: svm.PaperGrid(), TopN: 5, EvalTrials: 1024, Seed: 1}
}

// QuickOptions returns laptop-scale parameters that keep the workflow's
// shape (used by tests, examples and default benchmarks).
func QuickOptions() Options {
	return Options{Samples: 350, Grid: svm.QuickGrid(), TopN: 5, EvalTrials: 120, Seed: 1}
}

// Variant is one protected build of the application.
type Variant struct {
	// Policy and ConfigIndex identify the build (ConfigIndex is the
	// rank of the SVM configuration among the top N; -1 for FullDup /
	// Unprotected).
	Policy      Policy
	ConfigIndex int
	// Classifier is nil for FullDup/Unprotected.
	Classifier *Classifier
	// Module is the protected (or original) module.
	Module *ir.Module
	// Stats reports what the duplication pass did.
	Stats dup.Stats
	// Slowdown is goldenDyn(protected) / goldenDyn(unprotected).
	Slowdown float64
	// ProtectDuration is the wall time of classification + duplication
	// for this variant.
	ProtectDuration time.Duration
	// Coverage is the evaluation campaign against this variant.
	Coverage *fault.CampaignResult
	// SOCReductionPct is the SOC reduction relative to unprotected.
	SOCReductionPct float64
}

// Label renders a short variant name ("IPAS-1", "Baseline-3", ...).
func (v *Variant) Label() string {
	if v.ConfigIndex >= 0 {
		return fmt.Sprintf("%s-%d", v.Policy, v.ConfigIndex+1)
	}
	return v.Policy.String()
}

// Result is the outcome of a full workflow run on one application.
type Result struct {
	Data *TrainingData
	// Unprotected and FullDup are the reference variants; IPAS and
	// Baseline hold the top-N configuration variants each.
	Unprotected *Variant
	FullDup     *Variant
	IPAS        []*Variant
	Baseline    []*Variant

	// TrainIPASTime / TrainBaselineTime are Step-3 wall times; the
	// Protect* times cover classification + duplication (Table 6).
	TrainIPASTime     time.Duration
	TrainBaselineTime time.Duration
	ProtectTime       time.Duration
}

// AllVariants returns every variant for iteration, unprotected first.
func (r *Result) AllVariants() []*Variant {
	out := []*Variant{r.Unprotected, r.FullDup}
	out = append(out, r.IPAS...)
	out = append(out, r.Baseline...)
	return out
}

// Best returns the variant of the given policy closest to the ideal
// point (slowdown 1, reduction 100), the paper's Table 4 criterion.
func (r *Result) Best(p Policy) *Variant {
	var pool []*Variant
	switch p {
	case PolicyIPAS:
		pool = r.IPAS
	case PolicyBaseline:
		pool = r.Baseline
	default:
		return nil
	}
	var best *Variant
	bestD := 0.0
	for _, v := range pool {
		d := IdealDistance(v.Slowdown, v.SOCReductionPct)
		if best == nil || d < bestD {
			best, bestD = v, d
		}
	}
	return best
}

// Run executes the complete IPAS workflow plus the paper's comparison
// points: data collection, training for both labelings, protection of
// every top-N configuration under both policies, full duplication, and
// coverage evaluation of every variant.
func Run(app *App, opts Options) (*Result, error) {
	return RunContext(context.Background(), app, opts)
}

// RunContext is Run with cancellation: ctx aborts the workflow between
// (and, via the interpreter's cancellation hook, inside) its campaigns
// and training steps. With Options.Controls.Checkpoint set, every
// campaign journals its trials, so an interrupted workflow re-invoked
// against the same checkpoint directory resumes where it stopped.
func RunContext(ctx context.Context, app *App, opts Options) (*Result, error) {
	data, err := CollectContext(ctx, app, opts.Samples, opts.Seed, opts.Controls)
	if err != nil {
		return nil, err
	}
	return RunWithDataContext(ctx, app, data, opts)
}

// RunWithDataContext is RunContext with a pre-collected training set
// (so callers can reuse one injection campaign across experiments).
func RunWithDataContext(ctx context.Context, app *App, data *TrainingData, opts Options) (*Result, error) {
	res := &Result{Data: data}

	t0 := time.Now()
	ipasCls, err := TrainContext(ctx, data, data.Labels(PolicyIPAS), opts.Grid, opts.TopN, opts.Controls, "train IPAS")
	if err != nil {
		return nil, fmt.Errorf("core: training IPAS classifier: %w", err)
	}
	res.TrainIPASTime = time.Since(t0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	t0 = time.Now()
	baseCls, err := TrainContext(ctx, data, data.Labels(PolicyBaseline), opts.Grid, opts.TopN, opts.Controls, "train Baseline")
	if err != nil {
		return nil, fmt.Errorf("core: training baseline classifier: %w", err)
	}
	res.TrainBaselineTime = time.Since(t0)

	// Reference variants.
	unprot, err := buildVariant(ctx, app, data, PolicyNone, -1, nil, opts)
	if err != nil {
		return nil, err
	}
	res.Unprotected = unprot
	full, err := buildVariant(ctx, app, data, PolicyFullDup, -1, nil, opts)
	if err != nil {
		return nil, err
	}
	res.FullDup = full
	for i, cls := range ipasCls {
		v, err := buildVariant(ctx, app, data, PolicyIPAS, i, cls, opts)
		if err != nil {
			return nil, err
		}
		res.IPAS = append(res.IPAS, v)
		res.ProtectTime += v.ProtectDuration
	}
	for i, cls := range baseCls {
		v, err := buildVariant(ctx, app, data, PolicyBaseline, i, cls, opts)
		if err != nil {
			return nil, err
		}
		res.Baseline = append(res.Baseline, v)
		res.ProtectTime += v.ProtectDuration
	}

	// Slowdown and SOC reduction relative to the unprotected variant,
	// whose evaluation campaign's golden run is the workload's own.
	baseDyn := unprot.Coverage.GoldenDyn
	unprotSOC := unprot.Coverage.Proportion(fault.OutcomeSOC)
	for _, v := range res.AllVariants() {
		v.Slowdown = float64(v.Coverage.GoldenDyn) / float64(baseDyn)
		socP := v.Coverage.Proportion(fault.OutcomeSOC)
		if unprotSOC > 0 {
			v.SOCReductionPct = 100 * (unprotSOC - socP) / unprotSOC
		}
	}
	return res, nil
}

// buildVariant protects (policy-dependent) and runs the evaluation
// campaign, whose golden run measures the variant's dynamic
// instruction count.
func buildVariant(ctx context.Context, app *App, data *TrainingData, policy Policy, cfgIdx int, cls *Classifier, opts Options) (*Variant, error) {
	v := &Variant{Policy: policy, ConfigIndex: cfgIdx, Classifier: cls}

	tProtect := time.Now()
	switch policy {
	case PolicyNone:
		v.Module = app.Module
	case PolicyFullDup:
		v.Module = ir.CloneModule(app.Module)
		st, err := dup.FullDuplication(v.Module)
		if err != nil {
			return nil, err
		}
		v.Stats = st
	default:
		m, st, err := protectSites(app.Module, data.SiteFeatures, cls, policy)
		if err != nil {
			return nil, err
		}
		v.Module, v.Stats = m, st
	}
	v.ProtectDuration = time.Since(tProtect)

	prog, err := fault.Compile(v.Module)
	if err != nil {
		return nil, err
	}
	campaign := &fault.Campaign{
		Prog:   prog,
		Verify: app.Verify,
		Config: app.Config,
		Seed:   opts.Seed + int64(cfgIdx) + 7919*int64(policy),
	}
	cov, err := opts.Controls.Run(ctx, campaign, opts.EvalTrials, "eval "+v.Label())
	if cov == nil {
		return nil, fmt.Errorf("core: evaluating %s: %w", v.Label(), err)
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("core: evaluating %s interrupted after %d/%d trials: %w",
			v.Label(), cov.Completed, opts.EvalTrials, cerr)
	}
	// Degraded coverage (some trials failed infrastructure-side) is
	// usable as long as any trials completed: proportions are computed
	// over completed trials only.
	if cov.Completed == 0 {
		return nil, fmt.Errorf("core: evaluating %s: no trials completed: %w", v.Label(), err)
	}
	v.Coverage = cov
	return v, nil
}
