package main

import "time"

// The host reference: a fixed loop timed around every set-up and unit.
//
// On a shared virtual machine the interpreter's dispatch loop runs up to
// twice as slow in phases of seconds to minutes, while a plain arithmetic
// loop on the same vCPU barely moves; raw times of identical units spread
// by 15–45% between runs. The reference loop is a small register machine
// with switch dispatch, data-dependent branches and a 256 KiB memory, the
// same kind of code as the interpreter, so it slows in the same phases.
// A set-up's or unit's normalised time is its wall time × refNominal ÷
// the mean of the two reference times around it: its time at a fixed host
// speed. The loop is the benchmark's own code, so no change to the program
// under test moves it.
const (
	refSteps   = 5_000_000
	refNominal = 10 * time.Millisecond // refSteps' time on an undisturbed vCPU of the baseline machine
)

// refScale converts a time taken between two reference times, before
// and after, to the reference host speed.
func refScale(before, after time.Duration) float64 {
	return 2 * refNominal.Seconds() / (before + after).Seconds()
}

type refInstr struct {
	op      uint8
	a, b, c uint8
	imm     int32
}

const refMemWords = 1 << 15

// refProgram is 512 instructions drawn once from a fixed generator.
var refProgram = func() []refInstr {
	x := uint64(12345)
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 33
	}
	p := make([]refInstr, 512)
	for i := range p {
		in := refInstr{op: uint8(next() % 12), a: uint8(next() % 16), b: uint8(next() % 16), c: uint8(next() % 16)}
		in.imm = int32(next() % uint64(len(p))) // a branch target
		if in.op == 4 || in.op == 5 {
			in.imm = int32(next() % 4096) // a memory offset
		}
		p[i] = in
	}
	return p
}()

var (
	refMem  = make([]uint64, refMemWords)
	refSink uint64 // keeps the loop's result live
)

// refTime runs the reference loop for refSteps instructions and returns
// its wall time.
func refTime() time.Duration {
	start := time.Now()
	prog, mem := refProgram, refMem
	var r [16]uint64
	for i := range r {
		r[i] = uint64(7*i + 1)
	}
	pc := 0
	for n := 0; n < refSteps; n++ {
		in := prog[pc]
		pc++
		switch in.op {
		case 0:
			r[in.a] = r[in.b] + r[in.c]
		case 1:
			r[in.a] = r[in.b] - r[in.c]
		case 2:
			r[in.a] = r[in.b] * (r[in.c] | 1)
		case 3:
			r[in.a] = r[in.b] ^ (r[in.c] >> 3)
		case 4:
			r[in.a] = mem[(r[in.b]+uint64(in.imm))%refMemWords]
		case 5:
			mem[(r[in.b]+uint64(in.imm))%refMemWords] = r[in.a]
		case 6:
			if r[in.a]&1 == 0 {
				pc = int(in.imm)
			}
		case 7:
			if r[in.a] < r[in.b] {
				pc = int(in.imm)
			}
		case 8:
			r[in.a] = r[in.b] + uint64(in.imm)
		case 9:
			r[in.a] = r[in.b] << (r[in.c] & 7)
		case 10:
			r[in.a] = r[in.b]>>1 | r[in.c]<<63
		case 11:
			pc = int(in.imm)
		}
		if pc == len(prog) {
			pc = 0
		}
	}
	refSink += r[0] ^ r[5]
	return time.Since(start)
}
