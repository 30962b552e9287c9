package workloads

import (
	"testing"

	"ipas/internal/ir"
)

// TestPrintRoundTripDeterminism checks print -> parse -> print
// byte-identity for every corpus module. Section fingerprints hash the
// canonical printed form, so any nondeterminism (map-ordered iteration,
// unstable renaming) in the printer or parser would make fingerprints
// unstable across processes and silently invalidate per-section
// journals.
func TestPrintRoundTripDeterminism(t *testing.T) {
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			m, err := MustGet(name, 1).Compile()
			if err != nil {
				t.Fatal(err)
			}
			first := ir.Print(m)
			if again := ir.Print(m); again != first {
				t.Fatal("Print is not deterministic for one module value")
			}
			reparsed, err := ir.Parse(first)
			if err != nil {
				t.Fatalf("canonical print does not re-parse: %v", err)
			}
			second := ir.Print(reparsed)
			if second != first {
				t.Fatalf("print -> parse -> print not byte-identical (lens %d vs %d)", len(first), len(second))
			}
			// Fingerprints must survive the round trip too: the
			// reparsed module's section partition hashes identically.
			m.AssignSiteIDs()
			reparsed.AssignSiteIDs()
			a, b := ir.ModuleSections(m).All, ir.ModuleSections(reparsed).All
			if len(a) != len(b) {
				t.Fatalf("%d sections before a print/parse round trip, %d after", len(a), len(b))
			}
			for i := range a {
				if a[i].Fingerprint != b[i].Fingerprint {
					t.Fatalf("section %d fingerprint differs across a print/parse round trip", i)
				}
			}
		})
	}
}
