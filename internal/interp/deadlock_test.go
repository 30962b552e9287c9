package interp

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"
)

// The structural-deadlock corpus: every scenario must be detected
// instantly (well inside the 60 s watchdog, so any timer dependence
// fails the elapsed-time check), with exact per-rank attribution, and
// produce bit-identical results across GOMAXPROCS settings.

// runDeadlock executes the program and asserts the run ended in a
// structurally declared deadlock without consuming wall-clock time.
func runDeadlock(t *testing.T, src string, ranks int) *Result {
	t.Helper()
	p := compileSci(t, src)
	start := time.Now()
	res := Run(p, Config{Ranks: ranks})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("detection took %v — structural detection must not wait on a timer", elapsed)
	}
	if res.Trap != TrapDeadlock {
		t.Fatalf("trap = %v (%s), want deadlock", res.Trap, res.TrapMsg)
	}
	if res.Deadlock == nil {
		t.Fatal("TrapDeadlock without a DeadlockReport")
	}
	return res
}

const earlyExitProg = `
func main() {
	var rank int = mpi_rank();
	if (rank == 1) {
		var v int = mpi_recv_i64(0, 5);
		out_i64(0, v);
	}
}
`

func TestDeadlockEarlyRankExit(t *testing.T) {
	// Rank 0 exits cleanly while rank 1 still waits on it: the clean
	// exit itself must complete the deadlock condition.
	res := runDeadlock(t, earlyExitProg, 2)
	rep := res.Deadlock
	if len(rep.Blocked) != 1 || len(rep.Exited) != 1 {
		t.Fatalf("report %+v, want 1 blocked + 1 exited", rep)
	}
	b := rep.Blocked[0]
	if b.Rank != 1 || b.Op != "recv" || b.Peer != 0 || b.Tag != 5 || b.MailboxFull {
		t.Fatalf("blocked = %+v, want rank 1 recv from 0 tag 5", b)
	}
	if rep.Exited[0] != 0 {
		t.Fatalf("exited = %v, want [0]", rep.Exited)
	}
	if res.TrapRank != 1 {
		t.Fatalf("trap rank = %d, want 1 (the only blocked rank)", res.TrapRank)
	}
}

func TestDeadlockMismatchedCollective(t *testing.T) {
	// Rank 0 enters the allreduce; rank 1 never does. Collectives are
	// built on point-to-point, so rank 0 is parked in the gather recv
	// when rank 1's exit completes the condition.
	res := runDeadlock(t, `
func main() {
	var rank int = mpi_rank();
	if (rank == 0) {
		out_i64(0, mpi_allreduce_i64(rank, 0));
	}
}
`, 2)
	rep := res.Deadlock
	if len(rep.Blocked) != 1 || len(rep.Exited) != 1 {
		t.Fatalf("report %+v, want 1 blocked + 1 exited", rep)
	}
	b := rep.Blocked[0]
	if b.Rank != 0 || b.Op != "recv" || b.Peer != 1 {
		t.Fatalf("blocked = %+v, want rank 0 parked in the gather recv from 1", b)
	}
}

func TestDeadlockCorruptedRecvCount(t *testing.T) {
	// Rank 0 sends one message where rank 1 expects two — the shape a
	// corrupted loop bound produces. Rank 1 consumes the first and
	// parks forever on the second.
	res := runDeadlock(t, `
func main() {
	var rank int = mpi_rank();
	if (rank == 0) {
		mpi_send_i64(1, 7, 41);
	}
	if (rank == 1) {
		var a int = mpi_recv_i64(0, 7);
		var b int = mpi_recv_i64(0, 7);
		out_i64(0, a + b);
	}
}
`, 2)
	rep := res.Deadlock
	if len(rep.Blocked) != 1 || len(rep.Exited) != 1 || rep.Exited[0] != 0 {
		t.Fatalf("report %+v, want rank 1 blocked, rank 0 exited", rep)
	}
	b := rep.Blocked[0]
	if b.Rank != 1 || b.Op != "recv" || b.Peer != 0 || b.Tag != 7 {
		t.Fatalf("blocked = %+v, want rank 1 recv from 0 tag 7", b)
	}
	// The first recv completed, so rank 1 blocked strictly later than
	// a rank that never received anything would have.
	if b.Executed <= 0 {
		t.Fatalf("executed = %d, want a positive dynamic instruction count", b.Executed)
	}
}

func TestDeadlockCyclicMailboxFullSends(t *testing.T) {
	// Each rank floods its ring successor without ever receiving: the
	// eager buffers (4096 messages) fill up and every rank parks in a
	// send — a cycle of mailbox-full senders with no receiver.
	res := runDeadlock(t, `
func main() {
	var rank int = mpi_rank();
	var np int = mpi_size();
	var next int = (rank + 1) % np;
	for (var i int = 0; i < 5000; i = i + 1) {
		mpi_send_i64(next, 9, i);
	}
	var v int = mpi_recv_i64((rank + np - 1) % np, 9);
	out_i64(0, v);
}
`, 3)
	rep := res.Deadlock
	if len(rep.Blocked) != 3 || len(rep.Exited) != 0 {
		t.Fatalf("report %+v, want all 3 ranks blocked", rep)
	}
	for i, b := range rep.Blocked {
		if b.Rank != i || b.Op != "send" || b.Peer != (i+1)%3 || b.Tag != 9 {
			t.Fatalf("blocked[%d] = %+v, want rank %d send to %d tag 9", i, b, i, (i+1)%3)
		}
		if !b.MailboxFull {
			t.Fatalf("blocked[%d] = %+v, want MailboxFull", i, b)
		}
	}
}

// fingerprint captures everything a deadlock outcome is allowed to
// depend on; it must be bit-identical across scheduler configurations.
type fingerprint struct {
	Trap      Trap
	TrapRank  int
	TrapMsg   string
	DynInstrs []int64
	Report    string
}

func deadlockFingerprint(t *testing.T, src string, ranks int) fingerprint {
	t.Helper()
	res := runDeadlock(t, src, ranks)
	rep, err := json.Marshal(res.Deadlock)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint{
		Trap: res.Trap, TrapRank: res.TrapRank, TrapMsg: res.TrapMsg,
		DynInstrs: append([]int64(nil), res.DynInstrs...),
		Report:    string(rep),
	}
}

func fingerprintsEqual(a, b fingerprint) bool {
	if a.Trap != b.Trap || a.TrapRank != b.TrapRank || a.TrapMsg != b.TrapMsg || a.Report != b.Report {
		return false
	}
	if len(a.DynInstrs) != len(b.DynInstrs) {
		return false
	}
	for i := range a.DynInstrs {
		if a.DynInstrs[i] != b.DynInstrs[i] {
			return false
		}
	}
	return true
}

func TestDeadlockBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	// The acceptance criterion: no wall-clock value influences the
	// modeled outcome, so the full deadlock fingerprint — trap fields,
	// per-rank instruction counts, and the serialized report — must be
	// identical under serial and parallel Go schedulers.
	const prog = `
func main() {
	var rank int = mpi_rank();
	var np int = mpi_size();
	var acc int = mpi_allreduce_i64(rank * 3, 0);
	if (rank == 0) {
		mpi_send_i64(1, 2, acc);
	}
	if (rank == 1) {
		var v int = mpi_recv_i64(0, 2);
		var w int = mpi_recv_i64(0, 2);
		out_i64(0, v + w);
	}
}
`
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	var ref fingerprint
	for i, procs := range []int{1, 4, old} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 5; rep++ {
			fp := deadlockFingerprint(t, prog, 4)
			if i == 0 && rep == 0 {
				ref = fp
				continue
			}
			if !fingerprintsEqual(ref, fp) {
				t.Fatalf("GOMAXPROCS=%d run %d diverged:\n%+v\nvs reference\n%+v", procs, rep, fp, ref)
			}
		}
	}
}

func TestBlockedDeliveryBeatsAbort(t *testing.T) {
	// Rank 1 sends 42 and then traps. Rank 0's blocked recv resolves
	// message delivery before the job abort by fixed priority, so rank
	// 0 must output 42 on every run — never unwind with TrapAbort
	// first. Repeated to give a racy implementation every chance to
	// show itself.
	p := compileSci(t, `
func main() {
	var rank int = mpi_rank();
	if (rank == 1) {
		mpi_send_i64(0, 1, 42);
		out_i64(0, 5 / (rank - 1));
	}
	if (rank == 0) {
		out_i64(0, mpi_recv_i64(1, 1));
	}
}
`)
	for i := 0; i < 50; i++ {
		res := Run(p, Config{Ranks: 2})
		if res.Trap != TrapDivZero || res.TrapRank != 1 {
			t.Fatalf("run %d: trap = %v on rank %d, want div-by-zero on rank 1", i, res.Trap, res.TrapRank)
		}
		if len(res.OutputI) != 1 || res.OutputI[0] != 42 {
			t.Fatalf("run %d: rank 0 outputs %v — delivery lost the race against abort", i, res.OutputI)
		}
		if res.Deadlock != nil {
			t.Fatalf("run %d: spurious deadlock report %v", i, res.Deadlock)
		}
	}
}

func TestGoroutineHygieneAfterRuns(t *testing.T) {
	// Every run — clean, deadlocked, trapped, cancelled — must leave
	// no rank goroutines or timer machinery behind.
	clean := compileSci(t, `
func main() {
	var s int = mpi_allreduce_i64(mpi_rank(), 0);
	if (mpi_rank() == 0) { out_i64(0, s); }
}
`)
	deadlock := compileSci(t, earlyExitProg)
	spin := compileSci(t, `
func main() {
	var rank int = mpi_rank();
	if (rank == 0) {
		var got int = mpi_recv_i64(1, 5);
		out_i64(0, got);
	} else {
		var s int = 0;
		for (var i int = 0; i < 2000000000; i = i + 1) { s = s + i; }
		mpi_send_i64(0, 5, s);
	}
}
`)

	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		Run(clean, Config{Ranks: 4})
		Run(deadlock, Config{Ranks: 2})
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Millisecond)
			cancel()
		}()
		RunContext(ctx, spin, Config{Ranks: 2})
		cancel()
	}
	// Goroutine teardown is asynchronous; poll briefly before judging.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
