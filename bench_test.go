// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6), plus ablation benches for the design decisions
// DESIGN.md calls out. Each BenchmarkTableN/BenchmarkFigN regenerates
// the corresponding artifact at smoke scale (use cmd/experiments for
// the quick-scale default or its -paper flag for full size) and
// reports headline numbers as custom metrics.
package ipas

import (
	"context"
	"sync"
	"testing"
	"time"

	"ipas/internal/baseline"
	"ipas/internal/core"
	"ipas/internal/dup"
	"ipas/internal/experiments"
	"ipas/internal/fault"
	"ipas/internal/features"
	"ipas/internal/interp"
	"ipas/internal/ir"
	"ipas/internal/lang"
	"ipas/internal/svm"
	"ipas/internal/workloads"
)

// benchSuite is shared so the expensive workflow run is paid once and
// every per-figure benchmark reuses the cached result, mirroring how
// cmd/experiments works.
var (
	benchSuiteOnce sync.Once
	benchSuite     *experiments.Suite
)

func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchSuiteOnce.Do(func() {
		benchSuite = experiments.NewSuite(experiments.Smoke("FFT", "IS"))
	})
	return benchSuite
}

func runExperiment(b *testing.B, id string) *experiments.Table {
	b.Helper()
	s := suite(b)
	var t *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		t, err = s.Run(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	return t
}

// BenchmarkTable3StaticCounts regenerates Table 3 (code sizes).
func BenchmarkTable3StaticCounts(b *testing.B) {
	t := runExperiment(b, "table3")
	if len(t.Rows) == 0 {
		b.Fatal("empty table")
	}
}

// BenchmarkTable5Inputs regenerates Table 5 (application inputs).
func BenchmarkTable5Inputs(b *testing.B) {
	runExperiment(b, "table5")
}

// BenchmarkFig5Coverage regenerates Figure 5 (outcome proportions per
// protection variant).
func BenchmarkFig5Coverage(b *testing.B) {
	t := runExperiment(b, "fig5")
	if len(t.Rows) == 0 {
		b.Fatal("empty figure")
	}
}

// BenchmarkFig6ReductionVsSlowdown regenerates Figure 6 and reports the
// best IPAS point as metrics.
func BenchmarkFig6ReductionVsSlowdown(b *testing.B) {
	runExperiment(b, "fig6")
	r, err := suite(b).Result("FFT")
	if err != nil {
		b.Fatal(err)
	}
	best := r.Best(core.PolicyIPAS)
	b.ReportMetric(best.SOCReductionPct, "SOCreduction%")
	b.ReportMetric(best.Slowdown, "slowdown")
}

// BenchmarkFig7DuplicatedInstructions regenerates Figure 7.
func BenchmarkFig7DuplicatedInstructions(b *testing.B) {
	runExperiment(b, "fig7")
}

// BenchmarkFig8Scalability regenerates Figure 8 (slowdown vs ranks).
func BenchmarkFig8Scalability(b *testing.B) {
	runExperiment(b, "fig8")
}

// BenchmarkFig9InputVariation regenerates Figure 9 (train on input 1,
// evaluate on larger inputs).
func BenchmarkFig9InputVariation(b *testing.B) {
	runExperiment(b, "fig9")
}

// BenchmarkTable4BestConfigs regenerates Table 4 (ideal-point best
// configurations).
func BenchmarkTable4BestConfigs(b *testing.B) {
	runExperiment(b, "table4")
}

// BenchmarkTable6TrainingTime regenerates Table 6 (training and
// duplication time).
func BenchmarkTable6TrainingTime(b *testing.B) {
	runExperiment(b, "table6")
}

// --- Component benchmarks -------------------------------------------------

// BenchmarkInterpreter measures executor throughput on each workload's
// training input (the denominator of every campaign's cost).
func BenchmarkInterpreter(b *testing.B) {
	for _, name := range workloads.Names {
		b.Run(name, func(b *testing.B) {
			spec := workloads.MustGet(name, 1)
			m, err := spec.Compile()
			if err != nil {
				b.Fatal(err)
			}
			p, err := interp.Compile(m, nil)
			if err != nil {
				b.Fatal(err)
			}
			var dyn int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := interp.Run(p, spec.BaseConfig(1))
				if res.Trap != interp.TrapNone {
					b.Fatal(res.Trap)
				}
				dyn = res.TotalDyn
			}
			b.ReportMetric(float64(dyn)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
}

// BenchmarkInterpreterInstrumented measures the fully instrumented
// execution loop (site counting + instruction budget armed — the shape
// of a campaign trial) so the specialization gap between the fast and
// full paths stays visible in the perf record.
func BenchmarkInterpreterInstrumented(b *testing.B) {
	for _, name := range workloads.Names {
		b.Run(name, func(b *testing.B) {
			spec := workloads.MustGet(name, 1)
			m, err := spec.Compile()
			if err != nil {
				b.Fatal(err)
			}
			p, err := interp.Compile(m, fault.Injectable)
			if err != nil {
				b.Fatal(err)
			}
			cfg := spec.BaseConfig(1)
			cfg.CountSites = true
			cfg.MaxInstrs = 1 << 40
			var dyn int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := interp.Run(p, cfg)
				if res.Trap != interp.TrapNone {
					b.Fatal(res.Trap)
				}
				dyn = res.TotalDyn
			}
			b.ReportMetric(float64(dyn)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
}

// BenchmarkCampaignThroughput measures end-to-end injection-campaign
// speed (golden run + armed trials + verification + classification) —
// the unit of cost behind every figure's sample count.
func BenchmarkCampaignThroughput(b *testing.B) {
	const trials = 30
	for _, name := range []string{"FFT", "IS"} {
		b.Run(name, func(b *testing.B) {
			app := benchApp(b, name)
			prog, err := fault.Compile(app.Module)
			if err != nil {
				b.Fatal(err)
			}
			c := &fault.Campaign{Prog: prog, Verify: app.Verify, Config: app.Config, Seed: 9}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(trials); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// BenchmarkSectionedCampaignThroughput measures sectioned-campaign
// speed: Prepare plus RunSections without journals, at most
// sectionTrials trials per section. Its trials resume from
// section-tracked golden-run snapshots as BenchmarkCampaignThroughput's
// plain trials do, so a resume that silently fell back to instruction
// zero would show here as a drop of about 2× next to that benchmark.
func BenchmarkSectionedCampaignThroughput(b *testing.B) {
	const sectionTrials = 64
	for _, name := range []string{"FFT", "IS"} {
		b.Run(name, func(b *testing.B) {
			app := benchApp(b, name)
			prog, err := fault.Compile(app.Module)
			if err != nil {
				b.Fatal(err)
			}
			c := &fault.Campaign{
				Prog: prog, Verify: app.Verify, Config: app.Config, Seed: 9,
				Sections: true, Coverage: 1, MaxPerSection: sectionTrials,
			}
			trials := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := c.Prepare(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				res, err := p.RunSections(context.Background(), "")
				if err != nil {
					b.Fatal(err)
				}
				trials += res.Completed
			}
			b.ReportMetric(float64(trials)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// BenchmarkCampaignSetup measures Campaign.Prepare cold (golden run
// executed, caching disabled) against warm (golden served from a
// pre-warmed cache; the iteration still pays compiling-adjacent work —
// fingerprinting a freshly compiled program — so the number reflects a
// new campaign process adopting a shared golden run). The warm number
// is the enforced cache win: breaking the cache turns warm into cold,
// an order-of-magnitude jump the benchdiff gate rejects.
func BenchmarkCampaignSetup(b *testing.B) {
	spec := workloads.MustGet("AMG", 1)
	newProg := func() *interp.Program {
		m, err := spec.Compile()
		if err != nil {
			b.Fatal(err)
		}
		p, err := fault.Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	campaign := func(p *interp.Program, gc *fault.GoldenCache) *fault.Campaign {
		return &fault.Campaign{
			Prog: p, Verify: spec.Verify, Config: spec.BaseConfig(1), Seed: 7,
			GoldenCache: gc, NoGoldenCache: gc == nil,
		}
	}
	b.Run("path=cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := newProg()
			b.StartTimer()
			if _, err := campaign(p, nil).Prepare(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("path=warm", func(b *testing.B) {
		gc := fault.NewGoldenCache(8)
		if _, err := campaign(newProg(), gc).Prepare(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := newProg()
			b.StartTimer()
			prep, err := campaign(p, gc).Prepare(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if !prep.GoldenCached {
				b.Fatal("warm Prepare missed the cache")
			}
		}
	})
}

// BenchmarkDeadlockDetection measures the latency of structural
// deadlock detection: a 2-rank recv-recv deadlock run to completion.
// The watchdog is set to an hour, so the measured time is pure
// supervisor latency — before structural detection this scenario cost
// a full wall-clock timeout (formerly 10 s) per occurrence.
func BenchmarkDeadlockDetection(b *testing.B) {
	m, err := lang.Compile(`
func main() {
	var rank int = mpi_rank();
	var peer int = 1 - rank;
	var v int = mpi_recv_i64(peer, 1);
	mpi_send_i64(peer, 1, v);
}
`)
	if err != nil {
		b.Fatal(err)
	}
	p, err := interp.Compile(m, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := interp.Config{Ranks: 2, Watchdog: time.Hour}
	// Warm the interpreter's memory pool: a single-iteration smoke run
	// should measure detection latency, not the one-time allocation of
	// two 64 MiB rank address spaces.
	if res := interp.Run(p, cfg); res.Trap != interp.TrapDeadlock {
		b.Fatalf("warmup trap = %v, want structural deadlock", res.Trap)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := interp.Run(p, cfg)
		if res.Trap != interp.TrapDeadlock || res.Deadlock == nil {
			b.Fatalf("trap = %v, want structural deadlock", res.Trap)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e6, "µs/detection")
}

// BenchmarkSciCompile measures front-end + mem2reg speed.
func BenchmarkSciCompile(b *testing.B) {
	spec := workloads.MustGet("CoMD", 1)
	for i := 0; i < b.N; i++ {
		if _, err := spec.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDuplicationPass measures the protection pass itself
// (classification excluded) at full-duplication weight.
func BenchmarkDuplicationPass(b *testing.B) {
	spec := workloads.MustGet("CoMD", 1)
	m, err := spec.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clone := ir.CloneModule(m)
		if _, err := dup.FullDuplication(clone); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeatureExtraction measures Table 1 feature extraction over a
// whole module (instruction + BB + function + slice categories).
func BenchmarkFeatureExtraction(b *testing.B) {
	spec := workloads.MustGet("HPCCG", 1)
	m, err := spec.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feats := core.SiteFeaturesOf(m)
		if len(feats) == 0 {
			b.Fatal("no features")
		}
	}
}

// BenchmarkSVMGridSearch measures the Step-3 grid search on a synthetic
// imbalanced problem shaped like the paper's data (31 dims, ~8%
// positive class).
func BenchmarkSVMGridSearch(b *testing.B) {
	prob := syntheticProblem(300, 31, 8)
	grid := svm.LogGrid(1, 1e5, 4, 1e-5, 1, 3)
	grid.WeightByClassFreq = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfgs, err := svm.GridSearch(prob, grid)
		if err != nil {
			b.Fatal(err)
		}
		if len(cfgs) == 0 {
			b.Fatal("no configs")
		}
	}
}

// --- Ablation benches (design decisions in DESIGN.md §5) -------------------

// BenchmarkAblationClassWeights compares cross-validated F-score with
// and without inverse-frequency class weights on imbalanced data (the
// paper's §4.3.1 motivation for the SVM choice).
func BenchmarkAblationClassWeights(b *testing.B) {
	prob := syntheticProblem(400, 31, 6)
	params := svm.Params{C: 10, Gamma: 0.05}
	var plain, weighted svm.CVResult
	var err error
	for i := 0; i < b.N; i++ {
		plain, err = svm.CrossValidate(prob, params, 5)
		if err != nil {
			b.Fatal(err)
		}
		wp := params
		wp.WeightPos, wp.WeightNeg = 8, 0.57
		weighted, err = svm.CrossValidate(prob, wp, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(plain.FScore, "fscore-plain")
	b.ReportMetric(weighted.FScore, "fscore-weighted")
}

// BenchmarkAblationSliceFeatures compares classifier quality with and
// without the forward-slice features (25-31), quantifying what Weiser
// slicing buys the model.
func BenchmarkAblationSliceFeatures(b *testing.B) {
	app := benchApp(b, "FFT")
	data, err := core.Collect(app, 200, 77)
	if err != nil {
		b.Fatal(err)
	}
	labels := data.Labels(core.PolicyIPAS)
	eval := func(X [][]float64) float64 {
		sc := svm.FitScaler(X)
		prob := &svm.Problem{X: sc.ApplyAll(X), Y: labels}
		cv, err := svm.CrossValidate(prob, svm.Params{C: 100, Gamma: 0.1, WeightPos: 5}, 5)
		if err != nil {
			b.Fatal(err)
		}
		return cv.FScore
	}
	var full, noSlice float64
	for i := 0; i < b.N; i++ {
		full = eval(data.X)
		trimmed := make([][]float64, len(data.X))
		for j, x := range data.X {
			t := append([]float64(nil), x...)
			for d := 24; d < 31; d++ {
				t[d] = 0
			}
			trimmed[j] = t
		}
		noSlice = eval(trimmed)
	}
	b.ReportMetric(full, "fscore-full")
	b.ReportMetric(noSlice, "fscore-noslice")
}

// BenchmarkAblationInterproceduralSlices compares classifier quality
// when features 25-31 come from full Weiser (interprocedural) slices
// instead of the default intraprocedural ones.
func BenchmarkAblationInterproceduralSlices(b *testing.B) {
	app := benchApp(b, "HPCCG")
	data, err := core.Collect(app, 200, 88)
	if err != nil {
		b.Fatal(err)
	}
	labels := data.Labels(core.PolicyIPAS)
	evalWith := func(feats [][]float64) float64 {
		X := make([][]float64, len(data.Campaign.Trials))
		for i, tr := range data.Campaign.Trials {
			X[i] = feats[tr.Site]
		}
		sc := svm.FitScaler(X)
		prob := &svm.Problem{X: sc.ApplyAll(X), Y: labels}
		cv, err := svm.CrossValidate(prob, svm.Params{C: 100, Gamma: 0.1, WeightPos: 5}, 5)
		if err != nil {
			b.Fatal(err)
		}
		return cv.FScore
	}
	var intra, inter float64
	for i := 0; i < b.N; i++ {
		intra = evalWith(features.NewExtractor(app.Module).VectorBySite())
		inter = evalWith(features.NewExtractorOpts(app.Module,
			features.Options{InterproceduralSlices: true}).VectorBySite())
	}
	b.ReportMetric(intra, "fscore-intra")
	b.ReportMetric(inter, "fscore-interproc")
}

// BenchmarkAblationHangFactor measures campaign cost sensitivity to the
// hang-detection budget (DESIGN.md: budget = hangFactor x golden).
func BenchmarkAblationHangFactor(b *testing.B) {
	app := benchApp(b, "IS")
	prog, err := fault.Compile(app.Module)
	if err != nil {
		b.Fatal(err)
	}
	for _, factor := range []int64{2, 10, 50} {
		b.Run(factorName(factor), func(b *testing.B) {
			c := &fault.Campaign{
				Prog: prog, Verify: app.Verify, Config: app.Config,
				HangFactor: factor, Seed: 3,
			}
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(40); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationECCAssumption quantifies the paper's §3 ECC
// assumption: with load results injectable (no ECC), more faults reach
// unduplicable instructions, so full duplication's residual SOC grows.
func BenchmarkAblationECCAssumption(b *testing.B) {
	app := benchApp(b, "FFT")
	prot := ir.CloneModule(app.Module)
	if _, err := dup.FullDuplication(prot); err != nil {
		b.Fatal(err)
	}
	run := func(model func(*ir.Instr) bool) float64 {
		prog, err := interp.Compile(prot, model)
		if err != nil {
			b.Fatal(err)
		}
		c := &fault.Campaign{Prog: prog, Verify: app.Verify, Config: app.Config, Seed: 13}
		res, err := c.Run(80)
		if err != nil {
			b.Fatal(err)
		}
		return 100 * res.Proportion(fault.OutcomeSOC)
	}
	var withECC, withoutECC float64
	for i := 0; i < b.N; i++ {
		withECC = run(fault.Injectable)
		withoutECC = run(fault.InjectableIncludingLoads)
	}
	b.ReportMetric(withECC, "SOC%-ecc")
	b.ReportMetric(withoutECC, "SOC%-noecc")
}

// BenchmarkAblationTrainingSetSize addresses the paper's future-work
// note (§6.3): more training samples should stabilize IPAS configs.
// Reports the best cross-validated F-score at two training sizes.
func BenchmarkAblationTrainingSetSize(b *testing.B) {
	app := benchApp(b, "IS")
	grid := svm.LogGrid(1, 1e4, 3, 1e-4, 1, 3)
	grid.WeightByClassFreq = true
	eval := func(samples int) float64 {
		data, err := core.Collect(app, samples, 21)
		if err != nil {
			b.Fatal(err)
		}
		sc := svm.FitScaler(data.X)
		prob := &svm.Problem{X: sc.ApplyAll(data.X), Y: data.Labels(core.PolicyIPAS)}
		cfgs, err := svm.GridSearch(prob, grid)
		if err != nil {
			b.Fatal(err)
		}
		return cfgs[0].CV.FScore
	}
	var small, large float64
	for i := 0; i < b.N; i++ {
		small = eval(120)
		large = eval(360)
	}
	b.ReportMetric(small, "fscore-120")
	b.ReportMetric(large, "fscore-360")
}

// BenchmarkAblationCheckPlacement compares the paper's path-end check
// placement (§4.4) against eager per-instruction checking: same
// coverage target, different overhead.
func BenchmarkAblationCheckPlacement(b *testing.B) {
	app := benchApp(b, "FFT") // long butterfly chains separate the two placements
	base, err := interp.Compile(app.Module, nil)
	if err != nil {
		b.Fatal(err)
	}
	baseDyn := interp.Run(base, app.Config).TotalDyn

	measure := func(opts dup.Options) (slowdown float64, checks int) {
		m := ir.CloneModule(app.Module)
		st, err := dup.ProtectWithOptions(m, func(*ir.Instr) bool { return true }, opts)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := interp.Compile(m, nil)
		if err != nil {
			b.Fatal(err)
		}
		res := interp.Run(prog, app.Config)
		if res.Trap != interp.TrapNone {
			b.Fatalf("trap %v", res.Trap)
		}
		return float64(res.TotalDyn) / float64(baseDyn), st.Checks
	}
	var pathEnd, eager float64
	var pathChecks, eagerChecks int
	for i := 0; i < b.N; i++ {
		pathEnd, pathChecks = measure(dup.Options{})
		eager, eagerChecks = measure(dup.Options{EagerChecks: true})
	}
	if eagerChecks <= pathChecks {
		b.Fatalf("eager placed %d checks vs %d at path ends", eagerChecks, pathChecks)
	}
	b.ReportMetric(pathEnd, "slow-pathend")
	b.ReportMetric(eager, "slow-eager")
}

// BenchmarkDetectionLatency quantifies the paper's §2.1 argument for
// duplication over pure output verification: duplication detects
// corruption within a few dynamic instructions of its occurrence
// (enabling recent-checkpoint recovery), while verification-only
// schemes discover it at the end of the run. Reports mean
// injection-to-detection distance under full duplication vs the mean
// injection-to-completion distance of SOC runs without protection.
func BenchmarkDetectionLatency(b *testing.B) {
	app := benchApp(b, "FFT")
	campaign := func(m *ir.Module, seed int64) *fault.CampaignResult {
		prog, err := fault.Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		res, err := (&fault.Campaign{Prog: prog, Verify: app.Verify, Config: app.Config, Seed: seed}).Run(100)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var detectLat, socRunout float64
	for i := 0; i < b.N; i++ {
		prot := ir.CloneModule(app.Module)
		if _, err := dup.FullDuplication(prot); err != nil {
			b.Fatal(err)
		}
		detectLat = campaign(prot, 61).MeanLatency(fault.OutcomeDetected)
		socRunout = campaign(app.Module, 62).MeanLatency(fault.OutcomeSOC)
	}
	b.ReportMetric(detectLat, "instrs-to-detect")
	b.ReportMetric(socRunout, "instrs-to-output")
}

// BenchmarkAblationStaticShoestring compares the original Shoestring's
// static data-flow policy (internal/baseline) against IPAS's learned
// selection on the same workload — the comparison the paper could not
// run because the original is closed-source. Reports residual SOC
// percentages and slowdowns of both.
func BenchmarkAblationStaticShoestring(b *testing.B) {
	app := benchApp(b, "FFT")
	campaign := func(m *ir.Module, seed int64) (socPct, slowdown float64) {
		prog, err := fault.Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		c := &fault.Campaign{Prog: prog, Verify: app.Verify, Config: app.Config, Seed: seed}
		res, err := c.Run(80)
		if err != nil {
			b.Fatal(err)
		}
		return 100 * res.Proportion(fault.OutcomeSOC), float64(res.GoldenDyn)
	}
	var staticSOC, learnedSOC, staticSlow, learnedSlow float64
	for i := 0; i < b.N; i++ {
		_, baseDyn := campaign(app.Module, 51)

		st := ir.CloneModule(app.Module)
		if _, err := dup.Protect(st, baseline.Policy(st, baseline.Config{})); err != nil {
			b.Fatal(err)
		}
		soc, dyn := campaign(st, 52)
		staticSOC, staticSlow = soc, dyn/baseDyn

		data, err := core.Collect(app, 200, 53)
		if err != nil {
			b.Fatal(err)
		}
		clss, err := core.Train(data, data.Labels(core.PolicyIPAS), svm.LogGrid(1, 1e4, 3, 1e-4, 1, 3), 1)
		if err != nil {
			b.Fatal(err)
		}
		prot, _, err := core.ProtectModule(app.Module, clss[0], core.PolicyIPAS)
		if err != nil {
			b.Fatal(err)
		}
		soc, dyn = campaign(prot, 54)
		learnedSOC, learnedSlow = soc, dyn/baseDyn
	}
	b.ReportMetric(staticSOC, "SOC%-static")
	b.ReportMetric(learnedSOC, "SOC%-ipas")
	b.ReportMetric(staticSlow, "slow-static")
	b.ReportMetric(learnedSlow, "slow-ipas")
}

// --- helpers ---------------------------------------------------------------

func benchApp(b *testing.B, name string) *core.App {
	b.Helper()
	spec := workloads.MustGet(name, 1)
	m, err := spec.Compile()
	if err != nil {
		b.Fatal(err)
	}
	return &core.App{Module: m, Verify: spec.Verify, Config: spec.BaseConfig(1)}
}

// syntheticProblem builds an imbalanced two-cluster dataset with dim
// dimensions and one positive sample per posEvery samples.
func syntheticProblem(n, dim, posEvery int) *svm.Problem {
	p := &svm.Problem{}
	state := uint64(12345)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		y := -1
		shift := 0.0
		if i%posEvery == 0 {
			y = 1
			shift = 1.2
		}
		for d := range x {
			x[d] = next() + shift
		}
		p.X = append(p.X, x)
		p.Y = append(p.Y, y)
	}
	return p
}

func factorName(f int64) string {
	switch f {
	case 2:
		return "factor2"
	case 10:
		return "factor10"
	default:
		return "factor50"
	}
}
