package fault

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"ipas/internal/interp"
	"ipas/internal/ir"
)

// Sectioned campaigns prepared concurrently on one program all see the
// program's one section partition, built once, and draw the same
// allocation and plans as campaigns prepared on separately compiled
// copies of the program. Run it under -race: every golden run builds
// or reads the projection concurrently.
func TestConcurrentSectionedPrepareSharesProjection(t *testing.T) {
	const n = 4
	shared := sectionedCampaign(t, 2)
	type prepared struct {
		prep  *Prepared
		parts *ir.Sections
		plans []interp.FaultPlan
	}
	prepare := func(c *Campaign) (prepared, error) {
		c.NoGoldenCache = true
		prep, err := c.Prepare(context.Background())
		if err != nil {
			return prepared{}, err
		}
		return prepared{prep, c.Prog.Sections(), prep.Plans(prep.SectionTotal())}, nil
	}

	got := make([]prepared, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := *shared
			got[i], errs[i] = prepare(&c)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("prepare %d: %v", i, errs[i])
		}
		if got[i].parts != got[0].parts {
			t.Fatalf("prepare %d saw another section partition than prepare 0", i)
		}
	}

	for i := range got {
		want, err := prepare(sectionedCampaign(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		if want.parts == got[0].parts {
			t.Fatal("a separately compiled program shares the partition")
		}
		if !reflect.DeepEqual(got[i].prep.SectionPlan().Alloc, want.prep.SectionPlan().Alloc) {
			t.Fatalf("prepare %d: allocation differs from a separately compiled program's", i)
		}
		if !reflect.DeepEqual(got[i].plans, want.plans) {
			t.Fatalf("prepare %d: plans differ from a separately compiled program's", i)
		}
		if !reflect.DeepEqual(got[i].prep.Golden.Sections, want.prep.Golden.Sections) {
			t.Fatalf("prepare %d: golden boundary trace differs from a separately compiled program's", i)
		}
	}
}
