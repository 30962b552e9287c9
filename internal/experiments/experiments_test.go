package experiments

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID:     "TableX",
		Title:  "demo",
		Header: []string{"a", "bbbb"},
		Rows:   [][]string{{"one", "2"}, {"three", "4"}},
		Notes:  []string{"hello"},
	}
	out := tb.Render()
	for _, want := range []string{"TableX", "bbbb", "three", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	s := NewSuite(Smoke())
	_, err := s.Run("fig42")
	want := `experiments: unknown experiment "fig42" (want table3|table5|fig5|fig6|fig7|table4|fig8|fig9|table6)`
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %s", err, want)
	}
}

// IDs come in paper order, and lookup ignores case.
func TestIDsInPaperOrder(t *testing.T) {
	want := "table3 table5 fig5 fig6 fig7 table4 fig8 fig9 table6"
	if got := strings.Join(IDs(), " "); got != want {
		t.Fatalf("IDs() = %s, want %s", got, want)
	}
	tb, err := NewSuite(Params{Opts: Smoke().Opts}).Run("TABLE3")
	if err != nil || tb.ID != "Table3" {
		t.Fatalf("Run(TABLE3) = %v, %v", tb, err)
	}
}

func TestStaticExperiments(t *testing.T) {
	// Table 3 and Table 5 need no campaigns; they must be fast and
	// complete for all five workloads.
	s := NewSuite(Params{Opts: Smoke().Opts, MaxInput: 4})
	t3, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 5 {
		t.Fatalf("table3 rows = %d", len(t3.Rows))
	}
	// Relative code sizes should mirror the paper's Table 3 ordering:
	// CoMD is the largest code, FFT the smallest.
	sizes := map[string]int{}
	for _, row := range t3.Rows {
		var n int
		if _, err := parseInt(row[1], &n); err != nil {
			t.Fatalf("bad count %q", row[1])
		}
		sizes[row[0]] = n
	}
	if !(sizes["CoMD"] > sizes["FFT"]) {
		t.Errorf("expected CoMD > FFT in static size: %v", sizes)
	}

	t5, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) != 5 || len(t5.Rows[0]) != 5 {
		t.Fatalf("table5 shape %dx%d", len(t5.Rows), len(t5.Rows[0]))
	}
}

func parseInt(s string, out *int) (int, error) {
	var n int
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errParse
		}
		n = n*10 + int(c-'0')
	}
	*out = n
	return n, nil
}

var errParse = &parseError{}

type parseError struct{}

func (*parseError) Error() string { return "parse error" }

func TestSmokeSuiteEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke suite runs campaigns")
	}
	s := NewSuite(Smoke("FFT"))
	for _, id := range IDs() {
		tb, err := s.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no rows", id)
		}
		t.Logf("\n%s", tb.Render())
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{
		Header: []string{"a", "b"},
		Rows:   [][]string{{"x,y", `q"z`}, {"plain", "2"}},
	}
	got := tb.CSV()
	want := "a,b\n\"x,y\",\"q\"\"z\"\nplain,2\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}
