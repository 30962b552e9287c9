package fault

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"ipas/internal/interp"
	"ipas/internal/ir"
	"ipas/internal/lang"
)

const campaignProg = `
func main() {
	var n int = 32;
	var a *float = malloc_f64(n);
	var seed int = 77;
	for (var i int = 0; i < n; i = i + 1) {
		seed = (seed * 1103515245 + 12345) % 2147483648;
		a[i] = float(seed % 100) / 7.0;
	}
	var s float = 0.0;
	for (var i int = 0; i < n; i = i + 1) {
		s = s + a[i] * a[i];
	}
	out_f64(0, sqrt(s));
}
`

func testCampaign(t *testing.T, seed int64) (*Campaign, *CampaignResult) {
	t.Helper()
	m, err := lang.Compile(campaignProg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	// Exact-match verifier: any change to the output is SOC.
	verify := func(golden, faulty *interp.Result) bool {
		return len(faulty.OutputF) == 1 && faulty.OutputF[0] == golden.OutputF[0]
	}
	c := &Campaign{Prog: p, Verify: verify, Seed: seed}
	res, err := c.Run(120)
	if err != nil {
		t.Fatal(err)
	}
	return c, res
}

func TestCampaignBasics(t *testing.T) {
	_, res := testCampaign(t, 3)
	if len(res.Trials) != 120 {
		t.Fatalf("%d trials", len(res.Trials))
	}
	total := 0
	for _, c := range res.Counts {
		total += c
	}
	if total != 120 {
		t.Fatalf("counts sum to %d", total)
	}
	if res.Counts[OutcomeDetected] != 0 {
		t.Error("unprotected program detected faults")
	}
	if res.Counts[OutcomeSOC] == 0 {
		t.Error("exact-match verifier saw no SOC in 120 flips (implausible)")
	}
	for _, tr := range res.Trials {
		if tr.Site < 0 {
			t.Fatal("trial without a site")
		}
		if tr.Bit < 0 || tr.Bit > 63 {
			t.Fatalf("bit %d out of range", tr.Bit)
		}
	}
	var sum float64
	for _, o := range []Outcome{OutcomeSymptom, OutcomeDetected, OutcomeMasked, OutcomeSOC} {
		sum += res.Proportion(o)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("proportions sum to %v", sum)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	_, r1 := testCampaign(t, 42)
	_, r2 := testCampaign(t, 42)
	if len(r1.Trials) != len(r2.Trials) {
		t.Fatal("trial counts differ")
	}
	for i := range r1.Trials {
		if r1.Trials[i] != r2.Trials[i] {
			t.Fatalf("trial %d differs: %+v vs %+v", i, r1.Trials[i], r2.Trials[i])
		}
	}
	_, r3 := testCampaign(t, 43)
	same := true
	for i := range r1.Trials {
		if r1.Trials[i] != r3.Trials[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical campaigns")
	}
}

func TestInjectablePredicate(t *testing.T) {
	m, err := lang.Compile(campaignProg)
	if err != nil {
		t.Fatal(err)
	}
	sawGEP, sawCall := false, false
	for _, f := range m.Funcs() {
		for _, b := range f.Blocks() {
			for _, in := range b.Instrs() {
				ok := Injectable(in)
				switch in.Op() {
				case ir.OpLoad, ir.OpStore, ir.OpPhi, ir.OpBr, ir.OpCondBr, ir.OpRet, ir.OpTrap:
					if ok {
						t.Fatalf("%s must not be injectable", in.Op())
					}
				case ir.OpGEP:
					sawGEP = true
					if !ok {
						t.Fatal("gep must be injectable")
					}
				case ir.OpCall:
					sawCall = true
					if in.HasResult() != ok {
						t.Fatalf("call injectability must follow HasResult (%v vs %v)", in.HasResult(), ok)
					}
				}
			}
		}
	}
	if !sawGEP || !sawCall {
		t.Fatal("test program lacks GEP/call coverage")
	}
}

func TestClassifyMapping(t *testing.T) {
	g := &interp.Result{OutputF: []float64{1}}
	okVerify := func(_, _ *interp.Result) bool { return true }
	badVerify := func(_, _ *interp.Result) bool { return false }

	cases := []struct {
		trap   interp.Trap
		verify Verifier
		want   Outcome
	}{
		{interp.TrapDetected, badVerify, OutcomeDetected},
		{interp.TrapOOB, okVerify, OutcomeSymptom},
		{interp.TrapBudget, okVerify, OutcomeSymptom},
		{interp.TrapDivZero, okVerify, OutcomeSymptom},
		{interp.TrapDeadlock, okVerify, OutcomeSymptom},
		{interp.TrapNone, okVerify, OutcomeMasked},
		{interp.TrapNone, badVerify, OutcomeSOC},
	}
	for _, c := range cases {
		r := &interp.Result{Trap: c.trap}
		if got := Classify(g, r, c.verify); got != c.want {
			t.Errorf("Classify(trap=%v) = %v, want %v", c.trap, got, c.want)
		}
	}
}

// TestCampaignCoversManySites: uniform dynamic-instance sampling must
// spread across many static sites, not fixate on a few.
func TestCampaignCoversManySites(t *testing.T) {
	_, res := testCampaign(t, 9)
	sites := map[int]bool{}
	for _, tr := range res.Trials {
		sites[tr.Site] = true
	}
	if len(sites) < 10 {
		t.Fatalf("campaign hit only %d distinct sites", len(sites))
	}
}

func TestCampaignRejectsBrokenGolden(t *testing.T) {
	m, err := lang.Compile(`func main() { var z int = 0; out_i64(0, 1 / z); }`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	c := &Campaign{Prog: p, Verify: func(_, _ *interp.Result) bool { return true }}
	if _, err := c.Run(5); err == nil {
		t.Fatal("campaign accepted a trapping golden run")
	}
}

// Prepare refuses a hang factor whose budget, MaxRankDyn × factor plus
// the fixed slack, would overflow int64 (a non-positive budget reads as
// none), and accepts the largest one that fits. The journal header pins
// only a non-default factor, so every default header keeps its bytes.
func TestPrepareHangFactor(t *testing.T) {
	p, verify := compileCampaignProg(t)
	ctx := context.Background()
	prep := func(hang int64) (*Prepared, error) {
		return (&Campaign{Prog: p, Verify: verify, Seed: 3, HangFactor: hang}).Prepare(ctx)
	}
	def, err := prep(0)
	if err != nil {
		t.Fatal(err)
	}
	largest := (math.MaxInt64 - 1_000_000) / def.Golden.MaxRankDyn
	if big, err := prep(largest); err != nil || big.budget <= 0 {
		t.Fatalf("hang factor %d: err %v; want a positive budget", largest, err)
	}
	for _, hang := range []int64{largest + 1, math.MaxInt64} {
		if _, err := prep(hang); err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Fatalf("hang factor %d: err %v, want an overflow refusal", hang, err)
		}
	}

	ten, err := prep(10)
	if err != nil {
		t.Fatal(err)
	}
	twenty, err := prep(20)
	if err != nil {
		t.Fatal(err)
	}
	header, err := json.Marshal(def.Meta(8))
	if err != nil {
		t.Fatal(err)
	}
	if ten.Meta(8) != def.Meta(8) || strings.Contains(string(header), "hang_factor") {
		t.Fatalf("default hang factor changed the header: %s", header)
	}
	if got := twenty.Meta(8).HangFactor; got != 20 {
		t.Fatalf("hang factor 20 pinned as %d", got)
	}
}

// TestCampaignWorkerCountInvariant: the trial sequence must be
// identical regardless of worker parallelism.
func TestCampaignWorkerCountInvariant(t *testing.T) {
	m, err := lang.Compile(campaignProg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	verify := func(golden, faulty *interp.Result) bool {
		return len(faulty.OutputF) == 1 && faulty.OutputF[0] == golden.OutputF[0]
	}
	run := func(workers int) *CampaignResult {
		c := &Campaign{Prog: p, Verify: verify, Seed: 55, Workers: workers}
		res, err := c.Run(60)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(1)
	r4 := run(4)
	for i := range r1.Trials {
		if r1.Trials[i] != r4.Trials[i] {
			t.Fatalf("trial %d differs between 1 and 4 workers", i)
		}
	}
}

// TestSnapshotEligibility checks snapshot eligibility at the campaign
// level: plain and sectioned single-rank campaigns capture lazily, on
// their first trial and never in Prepare, while a Ranks: 2 campaign
// never captures and keeps full re-execution.
func TestSnapshotEligibility(t *testing.T) {
	ctx := context.Background()
	m, err := lang.Compile(campaignProg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	verify := func(golden, faulty *interp.Result) bool {
		return len(faulty.OutputF) == 1 && faulty.OutputF[0] == golden.OutputF[0]
	}
	for _, tc := range []struct {
		name    string
		c       *Campaign
		capture bool
	}{
		{"plain", &Campaign{Prog: p, Verify: verify, Seed: 3}, true},
		{"sectioned", sectionedCampaign(t, 2), true},
		{"ranks-2", deadlockCampaign(3, 0, nil), false},
	} {
		prep, err := tc.c.Prepare(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if prep.snaps != nil {
			t.Fatalf("%s: Prepare captured snapshots", tc.name)
		}
		for i, plan := range prep.Plans(8) {
			if tr := prep.RunTrial(ctx, i, plan); tr.Status != TrialCompleted {
				t.Fatalf("%s: trial %d: %+v", tc.name, i, tr)
			}
			if got := prep.snaps.Len() > 0; got != tc.capture {
				t.Fatalf("%s: %d snapshots after trial %d, want capture=%v", tc.name, prep.snaps.Len(), i, tc.capture)
			}
		}
	}
}
