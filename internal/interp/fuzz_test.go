package interp

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ipas/internal/lang"
)

// FuzzMPISchedule generates random multi-rank communication programs
// and checks the supervision invariants: the outcome CLASS (clean /
// deadlock / trapped) is a pure function of the program — never of the
// Go scheduler — and for clean and deadlock runs the entire result
// (trap fields, per-rank instruction counts, outputs, and the deadlock
// report) is bit-identical run to run. Trapped runs are only compared
// by class: which rank's trap is recorded as primary, and how far
// other ranks get before observing the abort, legitimately depend on
// scheduling; everything up to the first event does not.
//
// Run as a short smoke in CI (see the fuzz-smoke Makefile target) and
// indefinitely with: go test -fuzz FuzzMPISchedule ./internal/interp
func FuzzMPISchedule(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 0, 2, 0})                // send/recv pairs
	f.Add([]byte{0, 1, 1, 1, 2, 3, 3, 0, 4, 1})       // recv first: deadlock shapes
	f.Add([]byte{1, 2, 0, 3, 3, 1, 2, 2, 5, 9, 0, 0}) // collectives + compute
	f.Add([]byte{2, 6, 200, 6, 200, 1, 0})            // mailbox-full bursts
	f.Fuzz(func(t *testing.T, data []byte) {
		src, ranks := genMPIProgram(data)
		m, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("generator produced invalid program:\n%s\n%v", src, err)
		}
		p, err := Compile(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Ranks: ranks}
		r1 := Run(p, cfg)
		r2 := Run(p, cfg)
		c1, c2 := outcomeClass(r1), outcomeClass(r2)
		if c1 != c2 {
			t.Fatalf("outcome class diverged: %s vs %s\nprogram:\n%s", c1, c2, src)
		}
		if r1.Trap == TrapCancelled || r1.Trap == TrapWatchdog {
			t.Fatalf("infrastructure trap %v from a pure run\nprogram:\n%s", r1.Trap, src)
		}
		if (r1.Deadlock != nil) != (r1.Trap == TrapDeadlock) {
			t.Fatalf("trap %v with report %v\nprogram:\n%s", r1.Trap, r1.Deadlock, src)
		}
		if c1 == "trapped" {
			return
		}
		if fp1, fp2 := fuzzFingerprint(t, r1), fuzzFingerprint(t, r2); fp1 != fp2 {
			t.Fatalf("%s outcome not bit-identical:\n%s\nvs\n%s\nprogram:\n%s", c1, fp1, fp2, src)
		}
	})
}

func outcomeClass(r *Result) string {
	switch r.Trap {
	case TrapNone:
		return "clean"
	case TrapDeadlock:
		return "deadlock"
	}
	return "trapped"
}

func fuzzFingerprint(t *testing.T, r *Result) string {
	t.Helper()
	rep, err := json.Marshal(r.Deadlock)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("trap=%v rank=%d msg=%q dyn=%v outI=%v outF=%v report=%s",
		r.Trap, r.TrapRank, r.TrapMsg, r.DynInstrs, r.OutputI, r.OutputF, rep)
}

// genMPIProgram decodes fuzz bytes into a valid sci program: 2-4 ranks,
// each with a bounded sequence of communication and compute operations
// (peers and tags bounded so matches are plausible), including rare
// large send bursts that exercise the mailbox-full path.
func genMPIProgram(data []byte) (string, int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	ranks := 2 + int(next())%3 // 2..4

	var sb strings.Builder
	sb.WriteString("func main() {\n")
	sb.WriteString("\tvar rank int = mpi_rank();\n")
	sb.WriteString("\tvar acc int = rank + 1;\n")
	opsTotal := 0
	for r := 0; r < ranks && opsTotal < 32; r++ {
		fmt.Fprintf(&sb, "\tif (rank == %d) {\n", r)
		nops := 1 + int(next())%8
		for i := 0; i < nops && opsTotal < 32; i++ {
			opsTotal++
			arg := int(next())
			switch next() % 7 {
			case 0:
				fmt.Fprintf(&sb, "\t\tmpi_send_i64(%d, %d, acc + %d);\n", arg%ranks, arg%4, i)
			case 1:
				fmt.Fprintf(&sb, "\t\tacc = acc + mpi_recv_i64(%d, %d);\n", arg%ranks, arg%4)
			case 2:
				sb.WriteString("\t\tmpi_barrier();\n")
			case 3:
				fmt.Fprintf(&sb, "\t\tacc = acc + mpi_allreduce_i64(acc, %d);\n", arg%3)
			case 4:
				fmt.Fprintf(&sb, "\t\tacc = acc + mpi_bcast_i64(acc, %d);\n", arg%ranks)
			case 5:
				fmt.Fprintf(&sb, "\t\tfor (var j int = 0; j < %d; j = j + 1) { acc = (acc * 31 + j) %% 65521; }\n", 1+arg%64)
			case 6:
				// Burst: enough sends to fill the 4096-slot mailbox
				// when nothing drains it.
				if arg >= 192 {
					fmt.Fprintf(&sb, "\t\tfor (var j int = 0; j < 5000; j = j + 1) { mpi_send_i64(%d, 3, j); }\n", arg%ranks)
				} else {
					fmt.Fprintf(&sb, "\t\tmpi_send_i64(%d, 3, acc);\n", arg%ranks)
				}
			}
		}
		sb.WriteString("\t}\n")
	}
	sb.WriteString("\tout_i64(0, acc);\n")
	sb.WriteString("}\n")
	return sb.String(), ranks
}
