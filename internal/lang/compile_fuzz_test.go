package lang_test

import (
	"strings"
	"testing"

	"ipas/internal/lang"
	"ipas/internal/workloads"
)

// fuzzCompileSci is a small sci program with every statement form:
// functions, pointers, loops, branches, casts and builtins.
const fuzzCompileSci = `
func sq(x float) float { return x * x; }
func main() {
	var a *float = malloc_f64(8);
	var s float = 0.0;
	var n int = 0;
	for (var i int = 0; i < 8; i = i + 1) {
		a[i] = sq(float(i));
		if (a[i] > 10.0 && i % 2 == 0) { s = s + a[i]; } else { n = n + 1; }
	}
	while (n > 0) { n = n - 1; if (n == 2) { break; } }
	out_f64(0, s);
	out_i64(1, n);
}
`

// FuzzCompile feeds lang.Compile arbitrary source, as campaignd does
// with the sci a client submits in a campaign spec: it must return a
// module or an error, never panic, and never generate IR that fails
// ir.Verify (its "internal error").
func FuzzCompile(f *testing.F) {
	for _, src := range []string{fuzzCompileSci, lang.RandomProgram(1), lang.RandomProgram(2), workloads.MustGet("IS", 1).Source} {
		if _, err := lang.Compile(src); err != nil {
			f.Fatalf("seed does not compile: %v", err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := lang.Compile(src)
		if err != nil {
			if strings.Contains(err.Error(), "internal error") {
				t.Fatalf("front end generated invalid IR: %v", err)
			}
			return
		}
		if m == nil {
			t.Fatal("Compile returned neither a module nor an error")
		}
	})
}
