package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ipas/internal/fault"
	"ipas/internal/interp"
	"ipas/internal/ir"
	"ipas/internal/lang"
	"ipas/internal/workloads"
)

// scicArgsEnv turns the test binary into scic: TestMain runs main with
// the newline-separated arguments it holds, so each test drives the
// real command line, exit codes included, in a child process.
const scicArgsEnv = "IPAS_SCIC_TEST_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(scicArgsEnv); args != "" {
		os.Args = append([]string{"scic"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// scic runs the command with args in a child process and returns its
// stderr and exit code.
func scic(t *testing.T, args ...string) (stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), scicArgsEnv+"="+strings.Join(args, "\n"))
	var errb bytes.Buffer
	cmd.Stderr = &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return errb.String(), code
}

// The IR scic writes is the IR every campaign runs: for each workload
// at input 1, the file parses and verifies, and with its site IDs
// assigned it lowers to the program lang.Compile builds from the same
// source — the same fingerprint, outputs and dynamic count.
func TestIRMatchesCompile(t *testing.T) {
	for _, name := range append(append([]string{}, workloads.Names...), workloads.ConvergenceNames...) {
		t.Run(name, func(t *testing.T) {
			ws := workloads.MustGet(name, 1)
			dir := t.TempDir()
			src, out := filepath.Join(dir, name+".sci"), filepath.Join(dir, name+".ir")
			if err := os.WriteFile(src, []byte(ws.Source), 0o644); err != nil {
				t.Fatal(err)
			}
			if stderr, code := scic(t, "-o", out, src); code != 0 {
				t.Fatalf("scic exited %d: %s", code, stderr)
			}
			text, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			m, err := ir.Parse(string(text))
			if err == nil {
				err = ir.Verify(m)
			}
			if err != nil {
				t.Fatal(err)
			}
			m.AssignSiteIDs()
			ref, err := lang.Compile(ws.Source)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fault.Compile(m)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fault.Compile(ref)
			if err != nil {
				t.Fatal(err)
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("fingerprint %s, want lang.Compile's %s", got.Fingerprint(), want.Fingerprint())
			}
			cfg := ws.BaseConfig(1)
			gr, wr := interp.Run(got, cfg), interp.Run(want, cfg)
			if gr.Trap != interp.TrapNone || wr.Trap != interp.TrapNone {
				t.Fatalf("traps %v (%s) and %v (%s), want clean runs", gr.Trap, gr.TrapMsg, wr.Trap, wr.TrapMsg)
			}
			if gr.TotalDyn != wr.TotalDyn || !sameOutputs(gr, wr) {
				t.Fatalf("run of scic's IR: %d instructions, outputs %v %v; lang.Compile's: %d, %v %v",
					gr.TotalDyn, gr.OutputI, gr.OutputF, wr.TotalDyn, wr.OutputI, wr.OutputF)
			}
		})
	}
}

// sameOutputs compares two runs' outputs bit for bit.
func sameOutputs(a, b *interp.Result) bool {
	if len(a.OutputF) != len(b.OutputF) || len(a.OutputI) != len(b.OutputI) {
		return false
	}
	for i := range a.OutputF {
		if math.Float64bits(a.OutputF[i]) != math.Float64bits(b.OutputF[i]) {
			return false
		}
	}
	for i := range a.OutputI {
		if a.OutputI[i] != b.OutputI[i] {
			return false
		}
	}
	return true
}

// The command has one pipeline and no flag that selects another: -O
// is a usage error like any unknown flag.
func TestOFlagIsUnknown(t *testing.T) {
	src := filepath.Join(t.TempDir(), "p.sci")
	if err := os.WriteFile(src, []byte("func main() {\n\tout_i64(0, 1);\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if stderr, code := scic(t, "-O", src); code != 2 || !strings.Contains(stderr, "flag provided but not defined: -O") {
		t.Fatalf("-O: exit %d, stderr %q; want exit 2 naming the unknown flag", code, stderr)
	}
}
