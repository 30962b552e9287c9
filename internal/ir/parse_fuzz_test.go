package ir_test

import (
	"strings"
	"testing"

	"ipas/internal/ir"
	"ipas/internal/lang"
	"ipas/internal/workloads"
)

// fuzzParseSci is a small sci program whose printed IR seeds FuzzParse
// with calls, loops, phis, loads and stores.
const fuzzParseSci = `
func sq(x float) float { return x * x; }
func main() {
	var a *float = malloc_f64(8);
	var s float = 0.0;
	for (var i int = 0; i < 8; i = i + 1) {
		a[i] = sq(float(i));
		if (a[i] > 10.0) { s = s + a[i]; }
	}
	out_f64(0, s);
}
`

// FuzzParse feeds ir.Parse arbitrary text, as irun does with a .ir
// file: it must return an error that names the line, never panic. A
// module it accepts must go through ir.Verify without a panic, and
// one that verifies must print to a form that parses back to the same
// printed form. (The printer writes operand types from the operands,
// so an ill-typed module need not round-trip.)
func FuzzParse(f *testing.F) {
	for _, src := range []string{fuzzParseSci, workloads.MustGet("IS", 1).Source} {
		m, err := lang.Compile(src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ir.Print(m))
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "ir: line ") {
				t.Fatalf("error without a line: %v", err)
			}
			return
		}
		if ir.Verify(m) != nil {
			return
		}
		printed := ir.Print(m)
		again, err := ir.Parse(printed)
		if err != nil {
			t.Fatalf("printed module does not parse: %v\n%s", err, printed)
		}
		if ir.Print(again) != printed {
			t.Fatalf("print -> parse -> print differs:\n%s", printed)
		}
	})
}
