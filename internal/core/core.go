// Package core implements the IPAS workflow (Figure 1 of the paper):
//
//  1. the user provides an application with a verification routine;
//  2. statistical fault injection collects labeled training examples
//     (instruction feature vectors labeled SOC / non-SOC);
//  3. an SVM classifier is trained, with (C, γ) selected by grid search
//     on cross-validated F-score;
//  4. a compiler pass duplicates the instructions the classifier
//     predicts as SOC-generating.
//
// The package also implements the paper's comparison baseline
// (Shoestring-style): the same pipeline trained with symptom /
// non-symptom labels, protecting predicted non-symptom-generating
// instructions (§5.3).
package core

import (
	"context"
	"fmt"
	"math"

	"ipas/internal/dup"
	"ipas/internal/fault"
	"ipas/internal/features"
	"ipas/internal/interp"
	"ipas/internal/ir"
	"ipas/internal/svm"
)

// App bundles an application for the workflow: its unprotected module
// (SiteIDs assigned), its verification routine, and its execution
// configuration.
type App struct {
	Module *ir.Module
	Verify fault.Verifier
	Config interp.Config
}

// Policy selects the protection strategy.
type Policy int

const (
	// PolicyIPAS protects instructions the classifier predicts as
	// SOC-generating (the paper's contribution).
	PolicyIPAS Policy = iota
	// PolicyBaseline is the Shoestring-style baseline: train on
	// symptom labels and protect predicted NON-symptom-generating
	// instructions.
	PolicyBaseline
	// PolicyFullDup duplicates everything (SWIFT-style); no training.
	PolicyFullDup
	// PolicyNone leaves the code unprotected.
	PolicyNone
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyIPAS:
		return "IPAS"
	case PolicyBaseline:
		return "Baseline"
	case PolicyFullDup:
		return "FullDup"
	case PolicyNone:
		return "Unprotected"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// TrainingData is the output of the data-collection step: one labeled
// feature vector per injection trial.
type TrainingData struct {
	// X holds raw (unscaled) feature vectors, one per trial.
	X [][]float64
	// SOC holds +1 where the trial produced silent output corruption.
	SOC []int
	// Symptom holds +1 where the trial produced a crash or hang.
	Symptom []int
	// Campaign is the underlying fault-injection campaign.
	Campaign *fault.CampaignResult
	// SiteFeatures caches the per-site feature table of the module.
	SiteFeatures [][]float64
	// Degraded, when non-nil, records that some trials failed with
	// infrastructure errors and the training set was built from the
	// completed ones only (the joined per-trial errors).
	Degraded error
}

// Labels returns the label vector for the given policy's classifier.
func (d *TrainingData) Labels(p Policy) []int {
	if p == PolicyBaseline {
		return d.Symptom
	}
	return d.SOC
}

// Collect performs Step 2 of the workflow: statistical fault injection
// with `samples` trials against the unprotected application, labeling
// each injected instruction's feature vector by the observed outcome.
func Collect(app *App, samples int, seed int64) (*TrainingData, error) {
	return CollectContext(context.Background(), app, samples, seed, nil)
}

// CollectContext is Collect with cancellation and campaign resilience
// controls. Cancellation aborts with ctx's error (after checkpointing
// completed trials, when a checkpoint is configured); trials that fail
// with infrastructure errors after retries are dropped from the
// training set and reported in TrainingData.Degraded, so one bad trial
// no longer discards an entire collection campaign.
func CollectContext(ctx context.Context, app *App, samples int, seed int64, cc *CampaignControls) (*TrainingData, error) {
	prog, err := fault.Compile(app.Module)
	if err != nil {
		return nil, err
	}
	campaign := &fault.Campaign{
		Prog:   prog,
		Verify: app.Verify,
		Config: app.Config,
		Seed:   seed,
	}
	res, err := cc.Run(ctx, campaign, samples, "collect")
	if res == nil {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("core: collection interrupted after %d/%d trials: %w", res.Completed, samples, cerr)
	}
	if res.Completed == 0 {
		return nil, fmt.Errorf("core: collection produced no completed trials: %w", err)
	}
	ext := features.NewExtractor(app.Module)
	siteFeats := ext.VectorBySite()

	d := &TrainingData{Campaign: res, SiteFeatures: siteFeats, Degraded: err}
	for _, tr := range res.Trials {
		if tr.Status != fault.TrialCompleted {
			continue
		}
		if tr.Site < 0 || tr.Site >= len(siteFeats) || siteFeats[tr.Site] == nil {
			return nil, fmt.Errorf("core: trial hit unknown site %d", tr.Site)
		}
		d.X = append(d.X, siteFeats[tr.Site])
		d.SOC = append(d.SOC, pm1(tr.Outcome == fault.OutcomeSOC))
		d.Symptom = append(d.Symptom, pm1(tr.Outcome == fault.OutcomeSymptom))
	}
	return d, nil
}

func pm1(b bool) int {
	if b {
		return 1
	}
	return -1
}

// Classifier is a trained, scaled site classifier. Config is its grid
// point with the cross-validation result (CV.CappedFolds counts folds
// whose solve stopped at the SMO iteration cap), and Model.Capped says
// whether the final fit on the whole training set stopped there too.
type Classifier struct {
	Model  *svm.Model
	Scaler *svm.Scaler
	Config svm.Config
}

// PredictPositive reports whether the classifier assigns class +1 to
// the raw feature vector.
func (c *Classifier) PredictPositive(raw []float64) bool {
	return c.Model.Predict(c.Scaler.Apply(raw)) == 1
}

// Train performs Step 3: grid search ranked by cross-validated F-score,
// then fits one final model per top-N configuration on the full
// training set. Labels must be the policy-appropriate label vector.
func Train(d *TrainingData, labels []int, grid svm.GridSpec, topN int) ([]*Classifier, error) {
	return TrainContext(context.Background(), d, labels, grid, topN, nil, "train")
}

// TrainContext is Train with cancellation and the controls' training
// knobs threaded through: the grid search runs on a bounded worker
// pool (Controls.TrainWorkers), and per-grid-point progress flows into
// Controls.Progress under the given stage name. Each final fit is one
// svm.TrainContext call. Results are bit-identical for any worker
// count.
func TrainContext(ctx context.Context, d *TrainingData, labels []int, grid svm.GridSpec, topN int, cc *CampaignControls, stage string) ([]*Classifier, error) {
	if len(labels) != len(d.X) {
		return nil, fmt.Errorf("core: %d labels for %d samples", len(labels), len(d.X))
	}
	pos := 0
	for _, y := range labels {
		if y == 1 {
			pos++
		}
	}
	if pos == 0 || pos == len(labels) {
		return nil, fmt.Errorf("core: degenerate training set (%d of %d positive)", pos, len(labels))
	}

	scaler := svm.FitScaler(d.X)
	prob := &svm.Problem{X: scaler.ApplyAll(d.X), Y: labels}
	grid.WeightByClassFreq = true
	configs, err := svm.GridSearchContext(ctx, prob, grid, cc.SearchOptions(stage))
	if err != nil {
		return nil, err
	}

	var out []*Classifier
	for _, cfg := range svm.TopN(configs, topN) {
		model, err := svm.TrainContext(ctx, prob, cfg.Params)
		if err != nil {
			return nil, err
		}
		out = append(out, &Classifier{Model: model, Scaler: scaler, Config: cfg})
	}
	return out, nil
}

// SelectSites applies a trained classifier to every site of the module
// per Step 4 and the chosen policy, returning the protection predicate
// input: protect[site] == true means the site must be duplicated.
func SelectSites(d *TrainingData, cls *Classifier, policy Policy) []bool {
	return selectSites(d.SiteFeatures, cls, policy)
}

// selectSites is SelectSites over a per-site feature table. Only
// PolicyIPAS and PolicyBaseline select sites.
func selectSites(feats [][]float64, cls *Classifier, policy Policy) []bool {
	protect := make([]bool, len(feats))
	for site, f := range feats {
		if f == nil {
			continue
		}
		positive := cls.PredictPositive(f)
		switch policy {
		case PolicyIPAS:
			// Positive class = SOC-generating -> protect.
			protect[site] = positive
		case PolicyBaseline:
			// Positive class = symptom-generating -> those are left to
			// symptom detectors; protect the complement.
			protect[site] = !positive
		}
	}
	return protect
}

// SiteFeaturesOf extracts the per-site feature table of a module.
func SiteFeaturesOf(m *ir.Module) [][]float64 {
	return features.NewExtractor(m).VectorBySite()
}

// ProtectModule clones m and applies policy-directed duplication using
// a classifier trained elsewhere (possibly on a different input of the
// same code — the paper's §6.5 input-variation study). Site features
// are extracted fresh from m. Like SelectSites, only PolicyIPAS and
// PolicyBaseline select sites.
func ProtectModule(m *ir.Module, cls *Classifier, policy Policy) (*ir.Module, dup.Stats, error) {
	return protectSites(m, SiteFeaturesOf(m), cls, policy)
}

// protectSites clones m and duplicates the sites selectSites picks from
// m's per-site feature table feats.
func protectSites(m *ir.Module, feats [][]float64, cls *Classifier, policy Policy) (*ir.Module, dup.Stats, error) {
	protect := selectSites(feats, cls, policy)
	clone := ir.CloneModule(m)
	st, err := dup.Protect(clone, func(in *ir.Instr) bool {
		return in.SiteID >= 0 && in.SiteID < len(protect) && protect[in.SiteID]
	})
	return clone, st, err
}

// IdealDistance is the paper's §6.3 configuration-quality metric: the
// Euclidean distance from (slowdown, reduction%) to the ideal point
// (1, 100).
func IdealDistance(slowdown, reductionPct float64) float64 {
	ds := slowdown - 1
	dr := reductionPct - 100
	return math.Sqrt(ds*ds + dr*dr)
}
