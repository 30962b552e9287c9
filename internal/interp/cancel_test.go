package interp

import (
	"context"
	"testing"
	"time"
)

// A context cancelled before the run starts must stop execution at the
// first poll point with the infrastructure trap, not a symptom.
func TestRunContextPreCancelled(t *testing.T) {
	p := compileSci(t, `
func main() {
	var s int = 0;
	for (var i int = 0; i < 100000; i = i + 1) {
		s = s + i;
	}
	out_i64(0, s);
}
`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RunContext(ctx, p, Config{})
	if res.Trap != TrapCancelled {
		t.Fatalf("trap = %v (%s), want TrapCancelled", res.Trap, res.TrapMsg)
	}
}

// Cancellation must interrupt an execution already deep inside the
// instruction loop (the poll fires every few thousand instructions), so
// a hung or very long run cannot outlive its campaign.
func TestRunContextCancelMidRun(t *testing.T) {
	p := compileSci(t, `
func main() {
	var s int = 0;
	for (var i int = 0; i < 2000000000; i = i + 1) {
		s = s + i % 7;
	}
	out_i64(0, s);
}
`)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := RunContext(ctx, p, Config{})
	if res.Trap != TrapCancelled {
		t.Fatalf("trap = %v (%s), want TrapCancelled", res.Trap, res.TrapMsg)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
}

// A receive blocked on a message that is still (very) far away must
// unblock on cancellation. Rank 1 busy-computes a long finite loop
// before sending, so rank 0's recv is blocked-but-not-deadlocked (a
// rank is still running, so the supervisor must NOT declare deadlock)
// when the cancel lands.
func TestRunContextCancelUnblocksRecv(t *testing.T) {
	p := compileSci(t, `
func main() {
	var rank int = mpi_rank();
	if (rank == 0) {
		var got int = mpi_recv_i64(1, 5);
		out_i64(0, got);
	} else {
		var s int = 0;
		for (var i int = 0; i < 2000000000; i = i + 1) {
			s = s + i % 7;
		}
		mpi_send_i64(0, 5, s);
	}
}
`)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	res := RunContext(ctx, p, Config{Ranks: 2})
	if res.Trap != TrapCancelled {
		t.Fatalf("trap = %v (%s), want TrapCancelled", res.Trap, res.TrapMsg)
	}
	if res.Deadlock != nil {
		t.Fatalf("supervisor declared deadlock %v while a rank was still running", res.Deadlock)
	}
}
