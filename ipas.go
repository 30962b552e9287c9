// Package ipas is the public facade of the IPAS reproduction — the
// paper's workflow (Figure 1) behind a small API:
//
//	app, _ := ipas.FromWorkload("HPCCG", 1)      // or ipas.FromSci(src, verify, cfg)
//	res, _ := ipas.RunWorkflow(app, ipas.QuickOptions())
//	best := res.Best(ipas.PolicyIPAS)            // ideal-point best configuration
//	fmt.Println(best.SOCReductionPct, best.Slowdown)
//
// The heavy lifting lives in the internal packages: ir (the SSA IR),
// lang (the sci front end), interp (the deterministic executor with the
// simulated MPI runtime), fault (the FlipIt-style injector), features /
// slicer (Table 1 feature extraction), svm (the RBF C-SVM), dup (the
// duplication pass), core (workflow orchestration), workloads (the five
// evaluation codes), and experiments (every table and figure of §6).
package ipas

import (
	"context"
	"fmt"

	"ipas/internal/baseline"
	"ipas/internal/core"
	"ipas/internal/dup"
	"ipas/internal/experiments"
	"ipas/internal/fault"
	"ipas/internal/interp"
	"ipas/internal/ir"
	"ipas/internal/lang"
	"ipas/internal/workloads"
)

// App is an application prepared for the workflow: IR module,
// verification routine, and execution configuration.
type App = core.App

// Options parameterizes the workflow (sample counts, grid, top-N).
type Options = core.Options

// WorkflowResult carries every variant the workflow produced.
type WorkflowResult = core.Result

// Variant is one (possibly protected) build with its coverage
// evaluation and slowdown.
type Variant = core.Variant

// Classifier is a trained site classifier.
type Classifier = core.Classifier

// Policy selects the protection strategy.
type Policy = core.Policy

// Protection policies.
const (
	PolicyIPAS     = core.PolicyIPAS
	PolicyBaseline = core.PolicyBaseline
	PolicyFullDup  = core.PolicyFullDup
	PolicyNone     = core.PolicyNone
)

// Verifier decides whether a completed run's output is acceptable.
type Verifier = fault.Verifier

// RunResult is one execution's outcome (outputs, traps, instruction
// counts).
type RunResult = interp.Result

// RunConfig parameterizes execution (ranks, heap, budget).
type RunConfig = interp.Config

// CampaignResult aggregates a statistical fault-injection campaign.
type CampaignResult = fault.CampaignResult

// Trial is one injection's record inside a CampaignResult.
type Trial = fault.Trial

// TrialStatus partitions trials into completed / failed / pending.
type TrialStatus = fault.TrialStatus

// Trial statuses.
const (
	TrialCompleted = fault.TrialCompleted
	TrialFailed    = fault.TrialFailed
	TrialPending   = fault.TrialPending
)

// Journal is an append-only JSONL trial log enabling campaign
// checkpoint/resume.
type Journal = fault.Journal

// OpenJournal opens (or creates) a trial journal at path.
func OpenJournal(path string) (*Journal, error) { return fault.OpenJournal(path) }

// Checkpoint manages a directory of per-stage trial journals for
// multi-campaign runs (the workflow and the experiment suite).
type Checkpoint = core.Checkpoint

// NewCheckpoint creates a checkpoint manager rooted at dir. With resume
// false, reusing a directory that already holds trial journals is an
// error (protects against accidentally mixing campaigns).
func NewCheckpoint(dir string, resume bool) (*Checkpoint, error) {
	return core.NewCheckpoint(dir, resume)
}

// CampaignControls carries the resilience knobs (worker count, error
// model, progress reporting, checkpointing) threaded into every
// campaign a workflow runs; set it on Options.Controls. Every trial
// retries an infrastructure error twice; no control changes that.
type CampaignControls = core.CampaignControls

// Outcome classification of a single injection (§5.5 of the paper).
const (
	OutcomeSymptom  = fault.OutcomeSymptom
	OutcomeDetected = fault.OutcomeDetected
	OutcomeMasked   = fault.OutcomeMasked
	OutcomeSOC      = fault.OutcomeSOC
)

// QuickOptions returns laptop-scale workflow parameters.
func QuickOptions() Options { return core.QuickOptions() }

// PaperOptions returns the paper-scale parameters (2,500 samples, 500
// grid points, 1,024 evaluation injections).
func PaperOptions() Options { return core.PaperOptions() }

// FromSci compiles a sci program and bundles it with its verification
// routine into an App. The verifier receives the golden (fault-free)
// result and the run under test.
func FromSci(source string, verify Verifier, cfg RunConfig) (*App, error) {
	m, err := lang.Compile(source)
	if err != nil {
		return nil, err
	}
	if verify == nil {
		return nil, fmt.Errorf("ipas: a verification routine is required (Step 1 of the workflow)")
	}
	return &App{Module: m, Verify: verify, Config: cfg}, nil
}

// FromWorkload loads one of the paper's five evaluation codes ("CoMD",
// "HPCCG", "AMG", "FFT", "IS") at the given input level (1..4, Table 5)
// together with its verification routine.
func FromWorkload(name string, input int) (*App, error) {
	spec, err := workloads.Get(name, input)
	if err != nil {
		return nil, err
	}
	m, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	return &App{Module: m, Verify: spec.Verify, Config: spec.BaseConfig(1)}, nil
}

// WorkloadNames lists the five evaluation codes.
func WorkloadNames() []string { return append([]string(nil), workloads.Names...) }

// RunWorkflow executes the complete IPAS workflow (data collection,
// training, protection, coverage evaluation) plus the paper's
// comparison points (full duplication and the Shoestring-style
// baseline).
func RunWorkflow(app *App, opts Options) (*WorkflowResult, error) {
	return core.Run(app, opts)
}

// RunWorkflowContext is RunWorkflow with cancellation: ctx aborts the
// workflow between and inside its campaigns, and with
// Options.Controls.Checkpoint set, an interrupted workflow re-invoked
// against the same checkpoint directory resumes where it stopped.
func RunWorkflowContext(ctx context.Context, app *App, opts Options) (*WorkflowResult, error) {
	return core.RunContext(ctx, app, opts)
}

// ProtectBest runs the workflow and returns the IPAS variant closest to
// the ideal point (slowdown 1, SOC reduction 100) — the build a user
// would ship to production.
func ProtectBest(app *App, opts Options) (*Variant, error) {
	res, err := core.Run(app, opts)
	if err != nil {
		return nil, err
	}
	best := res.Best(core.PolicyIPAS)
	if best == nil {
		return nil, fmt.Errorf("ipas: workflow produced no IPAS variants")
	}
	return best, nil
}

// ProtectStatic applies the original Shoestring's static data-flow
// policy (no fault injection, no training — internal/baseline) and
// returns the protected module plus duplication statistics. Useful as a
// zero-training comparison point or when no verification routine
// exists.
func ProtectStatic(app *App) (*ir.Module, dup.Stats, error) {
	m := ir.CloneModule(app.Module)
	st, err := dup.Protect(m, baseline.Policy(m, baseline.Config{}))
	return m, st, err
}

// FullDuplication applies SWIFT-style full duplication and returns the
// protected module plus statistics.
func FullDuplication(app *App) (*ir.Module, dup.Stats, error) {
	m := ir.CloneModule(app.Module)
	st, err := dup.FullDuplication(m)
	return m, st, err
}

// ExecuteModule runs an arbitrary (e.g. protected) module.
func ExecuteModule(m *ir.Module, cfg RunConfig) (*RunResult, error) {
	prog, err := interp.Compile(m, nil)
	if err != nil {
		return nil, err
	}
	return interp.Run(prog, cfg), nil
}

// InjectFaults runs a FlipIt-style statistical fault-injection campaign
// of n single-bit flips against the (unprotected) application and
// classifies each outcome.
func InjectFaults(app *App, n int, seed int64) (*CampaignResult, error) {
	prog, err := fault.Compile(app.Module)
	if err != nil {
		return nil, err
	}
	c := &fault.Campaign{Prog: prog, Verify: app.Verify, Config: app.Config, Seed: seed}
	return c.Run(n)
}

// InjectFaultsContext is InjectFaults with cancellation and an optional
// journal for checkpoint/resume. On cancellation it returns the partial
// result alongside ctx's error; completed trials are already in the
// journal, so rerunning with the same journal resumes the campaign.
func InjectFaultsContext(ctx context.Context, app *App, n int, seed int64, j *Journal) (*CampaignResult, error) {
	prog, err := fault.Compile(app.Module)
	if err != nil {
		return nil, err
	}
	c := &fault.Campaign{Prog: prog, Verify: app.Verify, Config: app.Config, Seed: seed, Journal: j}
	return c.RunContext(ctx, n)
}

// Execute runs the application fault-free and returns its outputs and
// dynamic instruction counts.
func Execute(app *App, cfg RunConfig) (*RunResult, error) {
	prog, err := interp.Compile(app.Module, nil)
	if err != nil {
		return nil, err
	}
	res := interp.Run(prog, cfg)
	return res, nil
}

// ExperimentSuite exposes the evaluation-regeneration engine (one
// generator per table/figure of the paper's §6).
type ExperimentSuite = experiments.Suite

// ExperimentParams scales the experiment suite.
type ExperimentParams = experiments.Params

// NewExperimentSuite builds a suite; use experiments IDs "table3",
// "table4", "table5", "table6", "fig5".."fig9".
func NewExperimentSuite(p ExperimentParams) *ExperimentSuite {
	return experiments.NewSuite(p)
}

// QuickExperiments returns laptop-scale experiment parameters;
// PaperExperiments returns the paper-scale ones.
func QuickExperiments() ExperimentParams { return experiments.Quick() }

// PaperExperiments returns the paper-scale experiment parameters.
func PaperExperiments() ExperimentParams { return experiments.Paper() }
