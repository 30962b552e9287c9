package fault

import (
	"context"

	"ipas/internal/interp"
)

// FullRunTrial runs trial plan from instruction zero — the full
// interp.RunContext a trial resumed from golden-run snapshots must
// equal — and classifies it the way RunTrial does. Exported for the
// external fault_test package, which can import the workloads.
func (p *Prepared) FullRunTrial(ctx context.Context, plan interp.FaultPlan) (Trial, error) {
	cfg := p.config()
	cfg.Fault = &plan
	cfg.MaxInstrs = p.budget
	tr, err := trialFromResult(plan, p.Golden, interp.RunContext(ctx, p.c.Prog, cfg), p.c.Verify)
	tr.Attempts = 1
	return tr, err
}

// Snapshots exposes the substrate's captured snapshots.
func (p *Prepared) Snapshots() *interp.Snapshots { return p.snaps }
