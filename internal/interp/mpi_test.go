package interp

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ipas/internal/lang"
)

func compileSci(t *testing.T, src string) *Program {
	t.Helper()
	m, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMPISendRecvRing(t *testing.T) {
	// Each rank sends its id to the next rank around a ring and adds
	// what it receives; rank 0 reports the total via allreduce.
	p := compileSci(t, `
func main() {
	var rank int = mpi_rank();
	var np int = mpi_size();
	var next int = (rank + 1) % np;
	var prev int = (rank + np - 1) % np;
	mpi_send_i64(next, 5, rank * 10);
	var got int = mpi_recv_i64(prev, 5);
	var total int = mpi_allreduce_i64(got, 0);
	if (rank == 0) {
		out_i64(0, total);
	}
}
`)
	res := Run(p, Config{Ranks: 5})
	if res.Trap != TrapNone {
		t.Fatalf("trap: %v %s", res.Trap, res.TrapMsg)
	}
	if res.OutputI[0] != (0+1+2+3+4)*10 {
		t.Fatalf("total = %d, want 100", res.OutputI[0])
	}
}

func TestMPIVectorSendRecv(t *testing.T) {
	p := compileSci(t, `
func main() {
	var rank int = mpi_rank();
	var buf *float = malloc_f64(4);
	if (rank == 0) {
		for (var i int = 0; i < 4; i = i + 1) {
			buf[i] = float(i) * 2.5;
		}
		mpi_send_f64s(1, 9, buf, 4);
	}
	if (rank == 1) {
		mpi_recv_f64s(0, 9, buf, 4);
		var s float = 0.0;
		for (var i int = 0; i < 4; i = i + 1) {
			s = s + buf[i];
		}
		mpi_send_f64(0, 10, s);
	}
	if (rank == 0) {
		out_f64(0, mpi_recv_f64(1, 10));
	}
}
`)
	res := Run(p, Config{Ranks: 2})
	if res.Trap != TrapNone {
		t.Fatalf("trap: %v %s", res.Trap, res.TrapMsg)
	}
	if res.OutputF[0] != 15 {
		t.Fatalf("sum = %v, want 15", res.OutputF[0])
	}
}

func TestMPIBcastAndReduceOps(t *testing.T) {
	p := compileSci(t, `
func main() {
	var rank int = mpi_rank();
	var v float = float(rank + 1);
	var mn float = mpi_allreduce_f64(v, 1);
	var mx float = mpi_allreduce_f64(v, 2);
	var root float = 0.0;
	if (rank == 2) {
		root = 42.5;
	}
	var bc float = mpi_bcast_f64(root, 2);
	var imn int = mpi_allreduce_i64(rank, 1);
	var imx int = mpi_allreduce_i64(rank, 2);
	var ibc int = mpi_bcast_i64(rank * 7, 1);
	if (rank == 0) {
		out_f64(0, mn);
		out_f64(1, mx);
		out_f64(2, bc);
		out_i64(0, imn);
		out_i64(1, imx);
		out_i64(2, ibc);
	}
}
`)
	res := Run(p, Config{Ranks: 4})
	if res.Trap != TrapNone {
		t.Fatalf("trap: %v %s", res.Trap, res.TrapMsg)
	}
	if res.OutputF[0] != 1 || res.OutputF[1] != 4 || res.OutputF[2] != 42.5 {
		t.Fatalf("float collectives = %v", res.OutputF)
	}
	if res.OutputI[0] != 0 || res.OutputI[1] != 3 || res.OutputI[2] != 7 {
		t.Fatalf("int collectives = %v", res.OutputI)
	}
}

func TestMPIInvalidPeerAborts(t *testing.T) {
	p := compileSci(t, `
func main() {
	mpi_send_i64(99, 1, 5);
}
`)
	res := Run(p, Config{Ranks: 2})
	if res.Trap != TrapAbort {
		t.Fatalf("trap = %v, want abort for invalid peer", res.Trap)
	}
}

func TestMPITagMismatchAborts(t *testing.T) {
	p := compileSci(t, `
func main() {
	var rank int = mpi_rank();
	if (rank == 0) {
		mpi_send_i64(1, 5, 1);
	}
	if (rank == 1) {
		var x int = mpi_recv_i64(0, 6);
		out_i64(0, x);
	}
}
`)
	res := Run(p, Config{Ranks: 2})
	if res.Trap != TrapAbort {
		t.Fatalf("trap = %v, want abort for tag mismatch", res.Trap)
	}
}

func TestMPIDeadlockDetected(t *testing.T) {
	// Both ranks receive first: classic deadlock. Detection is
	// structural (the rank supervisor declares it the instant both
	// ranks are blocked), so it must take far less than the 60 s
	// watchdog.
	p := compileSci(t, `
func main() {
	var rank int = mpi_rank();
	var peer int = 1 - rank;
	var v int = mpi_recv_i64(peer, 1);
	mpi_send_i64(peer, 1, v);
}
`)
	start := time.Now()
	res := Run(p, Config{Ranks: 2})
	if res.Trap != TrapDeadlock {
		t.Fatalf("trap = %v, want deadlock", res.Trap)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("structural detection took %v — it must not wait on any timer", elapsed)
	}
	rep := res.Deadlock
	if rep == nil {
		t.Fatal("deadlock declared but Result.Deadlock is nil")
	}
	if len(rep.Blocked) != 2 || len(rep.Exited) != 0 {
		t.Fatalf("report = %+v, want both ranks blocked, none exited", rep)
	}
	for i, b := range rep.Blocked {
		if b.Rank != i || b.Op != "recv" || b.Peer != 1-i || b.Tag != 1 {
			t.Fatalf("blocked[%d] = %+v, want rank %d recv from %d tag 1", i, b, i, 1-i)
		}
	}
	if res.TrapRank != 0 {
		t.Fatalf("trap rank = %d, want deterministic lowest blocked rank 0", res.TrapRank)
	}
}

func TestMPIRankTrapAbortsJob(t *testing.T) {
	// Rank 1 divides by zero while rank 0 waits on it: the whole job
	// must abort with the primary trap recorded (the paper's §4.4.1
	// symptom-propagation behaviour).
	p := compileSci(t, `
func main() {
	var rank int = mpi_rank();
	if (rank == 1) {
		var z int = rank - 1;
		out_i64(0, 5 / (z - 0));
	} else {
		var v int = mpi_recv_i64(1, 3);
		out_i64(1, v);
	}
}
`)
	res := Run(p, Config{Ranks: 2})
	if res.Trap != TrapDivZero {
		t.Fatalf("trap = %v (rank %d), want div-by-zero from rank 1", res.Trap, res.TrapRank)
	}
	if res.TrapRank != 1 {
		t.Fatalf("trap rank = %d, want 1", res.TrapRank)
	}
}

// slowPeerProg has rank 1 compute for about half a second
// (slowPeerIters iterations) before the send rank 0 waits on: a live
// peer, never a deadlock.
const (
	slowPeerIters = 25000000
	slowPeerProg  = `
func main() {
	var rank int = mpi_rank();
	if (rank == 1) {
		var acc int = 0;
		for (var i int = 0; i < %d; i = i + 1) {
			acc = acc + i;
		}
		mpi_send_i64(0, 4, acc);
	}
	if (rank == 0) {
		out_i64(0, mpi_recv_i64(1, 4));
	}
}
`
)

// The watchdog bounds how long one MPI operation blocks on a live peer.
// Under the default bound the slow send arrives and the run is clean;
// under a 50 ms bound rank 0's recv raises TrapWatchdog, an
// infrastructure condition rather than a symptom. Not parallel: it
// lowers the package's watchdog bound.
func TestWatchdogExpiry(t *testing.T) {
	p := compileSci(t, fmt.Sprintf(slowPeerProg, slowPeerIters))
	res := Run(p, Config{Ranks: 2})
	if want := int64(slowPeerIters * (slowPeerIters - 1) / 2); res.Trap != TrapNone || len(res.OutputI) != 1 || res.OutputI[0] != want {
		t.Fatalf("default watchdog: trap %v (%s), outputs %v; want a clean run with [%d]", res.Trap, res.TrapMsg, res.OutputI, want)
	}

	old := watchdog
	t.Cleanup(func() { watchdog = old })
	watchdog = 50 * time.Millisecond
	res = Run(p, Config{Ranks: 2})
	if res.Trap != TrapWatchdog || res.TrapRank != 0 {
		t.Fatalf("trap %v on rank %d (%s), want the watchdog on rank 0", res.Trap, res.TrapRank, res.TrapMsg)
	}
	if want := "infrastructure watchdog expired after 50ms: recv from 1 tag 4 blocked"; res.TrapMsg != want {
		t.Fatalf("trap message %q, want %q", res.TrapMsg, want)
	}
	if res.Deadlock != nil {
		t.Fatalf("watchdog expiry counted as a deadlock (%v)", res.Deadlock)
	}
}

func TestMPIDeterministicAcrossRuns(t *testing.T) {
	p := compileSci(t, `
func main() {
	var rank int = mpi_rank();
	var np int = mpi_size();
	var acc float = 0.0;
	for (var i int = 0; i < 50; i = i + 1) {
		acc = acc + mpi_allreduce_f64(float(rank * i), 0);
	}
	if (rank == 0) {
		out_f64(0, acc);
		out_f64(1, float(np));
	}
}
`)
	r1 := Run(p, Config{Ranks: 4})
	r2 := Run(p, Config{Ranks: 4})
	if r1.Trap != TrapNone || r2.Trap != TrapNone {
		t.Fatalf("traps: %v %v", r1.Trap, r2.Trap)
	}
	if r1.OutputF[0] != r2.OutputF[0] || r1.TotalDyn != r2.TotalDyn {
		t.Fatal("multi-rank execution not deterministic")
	}
}

// capacityProg makes rank 0's mailbox from rank 1 hold k messages
// before rank 0 reads it: rank 1 sends k messages to rank 0 and then
// one to rank 2, rank 2 forwards a token to rank 0, and rank 0 takes
// the token before the k messages and outputs their sum.
const capacityProg = `
func main() {
	var rank int = mpi_rank();
	if (rank == 1) {
		for (var i int = 0; i < %d; i = i + 1) {
			mpi_send_i64(0, 1, i);
		}
		mpi_send_i64(2, 2, 7);
	}
	if (rank == 2) {
		mpi_send_i64(0, 3, mpi_recv_i64(1, 2));
	}
	if (rank == 0) {
		var token int = mpi_recv_i64(2, 3);
		var sum int = 0;
		for (var i int = 0; i < %d; i = i + 1) {
			sum = sum + mpi_recv_i64(1, 1);
		}
		out_i64(0, sum + token - 7);
	}
}
`

func TestMailboxCapacityBoundary(t *testing.T) {
	// A mailbox holds exactly mailboxCap messages: one more blocks the
	// sender before the token that would let rank 0 drain it leaves.
	full := compileSci(t, fmt.Sprintf(capacityProg, mailboxCap, mailboxCap))
	res := Run(full, Config{Ranks: 3})
	if res.Trap != TrapNone {
		t.Fatalf("k = %d: trap %v (%s), want a clean run", mailboxCap, res.Trap, res.TrapMsg)
	}
	if want := int64(mailboxCap * (mailboxCap - 1) / 2); len(res.OutputI) != 1 || res.OutputI[0] != want {
		t.Fatalf("k = %d: outputs %v, want [%d]", mailboxCap, res.OutputI, want)
	}

	over := runDeadlock(t, fmt.Sprintf(capacityProg, mailboxCap+1, mailboxCap+1), 3)
	rep := over.Deadlock
	if len(rep.Blocked) != 3 || len(rep.Exited) != 0 {
		t.Fatalf("k = %d: report %+v, want all 3 ranks blocked", mailboxCap+1, rep)
	}
	want := []RankBlock{
		{Rank: 0, Op: "recv", Peer: 2, Tag: 3},
		{Rank: 1, Op: "send", Peer: 0, Tag: 1, MailboxFull: true},
		{Rank: 2, Op: "recv", Peer: 1, Tag: 2},
	}
	for i, b := range rep.Blocked {
		b.Executed = 0
		if b != want[i] {
			t.Fatalf("k = %d: blocked[%d] = %+v, want %+v", mailboxCap+1, i, rep.Blocked[i], want[i])
		}
	}
}

func TestNewCommAllocatesNoMailboxBuffers(t *testing.T) {
	// Mailboxes are allocated on first send, so a 16-rank communicator
	// costs its bookkeeping, not 256 eager buffers.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := newComm(16, nil)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("newComm(16) allocated %d bytes, want under 1 MiB", got)
	}
}
