package experiments

import (
	"context"
	"fmt"

	"ipas/internal/core"
	"ipas/internal/fault"
	"ipas/internal/workloads"
)

// runInputCampaign runs one Figure 9 campaign under the suite's
// context and controls, tolerating infrastructure-degraded results.
func (s *Suite) runInputCampaign(ctx context.Context, cc *core.CampaignControls, stage string, c *fault.Campaign) (*fault.CampaignResult, error) {
	res, err := cc.Run(ctx, c, s.Params.InputTrials, stage)
	if res == nil {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if res.Completed == 0 {
		return nil, fmt.Errorf("no trials completed: %w", err)
	}
	return res, nil
}

// Fig9 reproduces Figure 9: IPAS is trained on input 1 and the
// protection it selects is applied to the same code built for larger
// inputs (Table 5); the SOC reduction per input is reported. The
// paper's claim is that reduction stays comparable across inputs.
func (s *Suite) Fig9() (*Table, error) {
	header := []string{"Code"}
	for in := 1; in <= s.Params.MaxInput; in++ {
		header = append(header, fmt.Sprintf("Input %d", in))
	}
	t := &Table{
		ID:     "Figure9",
		Title:  "SOC reduction (%) as the input is varied; trained on input 1",
		Header: header,
	}
	for _, name := range s.Params.Workloads {
		r, err := s.Result(name)
		if err != nil {
			return nil, err
		}
		best := r.Best(core.PolicyIPAS)
		row := []string{name}
		for in := 1; in <= s.Params.MaxInput; in++ {
			red, err := s.inputReduction(name, in, best.Classifier)
			if err != nil {
				return nil, fmt.Errorf("fig9 %s input %d: %w", name, in, err)
			}
			row = append(row, f1(red))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d injections per input per variant", s.Params.InputTrials))
	return t, nil
}

// inputReduction evaluates the trained classifier's protection on one
// input level and returns the SOC reduction relative to that input's
// unprotected SOC proportion. Its two campaigns inherit the suite's
// context and resilience controls, so Figure 9 is cancellable and
// tolerates degraded (partially failed) campaigns like the workflow.
func (s *Suite) inputReduction(name string, input int, cls *core.Classifier) (float64, error) {
	spec, err := workloads.Get(name, input)
	if err != nil {
		return 0, err
	}
	m, err := spec.Compile()
	if err != nil {
		return 0, err
	}
	cfg := spec.BaseConfig(1)
	ctx := s.context()
	controls := s.optsFor(name).Controls

	unprotProg, err := fault.Compile(m)
	if err != nil {
		return 0, err
	}
	unprotRes, err := s.runInputCampaign(ctx, controls, fmt.Sprintf("fig9 input%d unprot", input), &fault.Campaign{
		Prog: unprotProg, Verify: spec.Verify, Config: cfg, Seed: 101 + int64(input),
	})
	if err != nil {
		return 0, err
	}

	protected, _, err := core.ProtectModule(m, cls, core.PolicyIPAS)
	if err != nil {
		return 0, err
	}
	protProg, err := fault.Compile(protected)
	if err != nil {
		return 0, err
	}
	protRes, err := s.runInputCampaign(ctx, controls, fmt.Sprintf("fig9 input%d prot", input), &fault.Campaign{
		Prog: protProg, Verify: spec.Verify, Config: cfg, Seed: 202 + int64(input),
	})
	if err != nil {
		return 0, err
	}

	unprotSOC := unprotRes.Proportion(fault.OutcomeSOC)
	if unprotSOC == 0 {
		return 100, nil // nothing to corrupt silently at this input
	}
	protSOC := protRes.Proportion(fault.OutcomeSOC)
	return 100 * (unprotSOC - protSOC) / unprotSOC, nil
}
