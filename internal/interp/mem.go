package interp

import (
	"encoding/binary"
	"math"
	"sync"
)

// Memory is a rank's flat byte-addressed address space:
//
//	[0, nullGuard)          unmapped null guard page
//	[nullGuard, heapEnd)    bump-allocated heap (malloc builtins)
//	[stackLimit, stackTop)  stack, growing downwards (allocas)
//
// All accesses are bounds- and alignment-checked; a violation raises
// the corresponding trap, which the campaign classifies as a crash
// symptom (the paper's "observable symptom" category).
type Memory struct {
	data       []byte
	heapPtr    int64
	heapEnd    int64
	stackPtr   int64
	stackLimit int64
	size       int64

	// Dirty-span tracking for pooled reuse. Stores record the extent of
	// written bytes on each side of the address space: the heap dirties
	// upward from nullGuard (heapDirtyHi), the stack downward from the
	// top (stackDirtyLo). Tracking the two sides separately keeps the
	// untouched middle of a mostly-unused heap out of the re-zero: a
	// rank that mallocs 2 MiB of a 64 MiB heap costs 2 MiB of clearing
	// on reuse, not 64. Wild stores (fault trials corrupting an address)
	// still pass check(), so they land in one of the two spans and are
	// cleared like any other write.
	heapDirtyHi  int64
	stackDirtyLo int64

	// frames holds the blocks of the call-frame arena of the rank that
	// owns this address space (rank.frame). They are pooled with it and
	// never cleared on reuse: a verified-SSA function writes every slot
	// of its frame before reading it, and every other frame is zeroed
	// when it is carved (Program.zeroFrames).
	frames [][]Val
}

const nullGuard = 4096

// stackBytes is every rank's stack capacity.
const stackBytes = 1 << 20

// memPool recycles address spaces, with their frame arenas, across
// runs. Zeroing a fresh 64 MiB heap dominates short executions (it is
// pure memclr in the allocator), and campaigns run thousands of short
// executions; reuse plus dirty-span clearing makes per-run memory cost
// proportional to bytes written, not bytes configured.
var memPool sync.Pool

// NewMemory creates an address space with the given heap capacity in
// bytes and a stackBytes stack, reusing a pooled buffer when one is
// large enough.
func NewMemory(heapBytes int64) *Memory {
	size := nullGuard + heapBytes + stackBytes
	if v := memPool.Get(); v != nil {
		m := v.(*Memory)
		if int64(len(m.data)) >= size {
			m.reset(heapBytes)
			return m
		}
		// Too small for this configuration; drop it and allocate.
	}
	m := &Memory{data: make([]byte, size)}
	m.init(heapBytes)
	return m
}

// Release returns the address space to the pool. The caller must not
// touch m afterwards. Results never alias the buffer (outputs, print
// logs and section digests are copied out by the builtins), so release
// at end of run is safe.
func (m *Memory) Release() {
	memPool.Put(m)
}

// reset clears exactly the bytes the previous run wrote and re-initializes
// the layout. The buffer invariant — every byte outside the dirty spans
// is zero — is restored before the new bounds take effect, so reads of
// never-written memory see zero exactly as with a fresh allocation.
func (m *Memory) reset(heapBytes int64) {
	if m.heapDirtyHi > nullGuard {
		clear(m.data[nullGuard:m.heapDirtyHi])
	}
	if m.stackDirtyLo < m.size {
		clear(m.data[m.stackDirtyLo:m.size])
	}
	m.init(heapBytes)
}

func (m *Memory) init(heapBytes int64) {
	size := nullGuard + heapBytes + stackBytes
	m.heapPtr = nullGuard
	m.heapEnd = nullGuard + heapBytes
	m.stackPtr = size
	m.stackLimit = nullGuard + heapBytes
	m.size = size
	m.heapDirtyHi = nullGuard
	m.stackDirtyLo = size
}

// dirty records a store's span. One compare against the heap/stack
// boundary plus one span update; stores through a corrupted address are
// covered because dirty runs after the same check() every store passes.
func (m *Memory) dirty(addr, width int64) {
	if addr >= m.stackLimit {
		if addr < m.stackDirtyLo {
			m.stackDirtyLo = addr
		}
	} else if addr+width > m.heapDirtyHi {
		m.heapDirtyHi = addr + width
	}
}

// Malloc bump-allocates n bytes on the heap (8-byte aligned).
func (m *Memory) Malloc(n int64) int64 {
	if n < 0 {
		panic(trapPanic{TrapAbort, "malloc with negative size"})
	}
	n = align8(n)
	if m.heapPtr+n > m.heapEnd || m.heapPtr+n < m.heapPtr {
		panic(trapPanic{TrapOOM, "heap exhausted"})
	}
	p := m.heapPtr
	m.heapPtr += n
	return p
}

// PushFrame returns the current stack pointer so a call can restore it
// on return.
func (m *Memory) PushFrame() int64 { return m.stackPtr }

// PopFrame restores a saved stack pointer.
func (m *Memory) PopFrame(sp int64) { m.stackPtr = sp }

// Alloca carves n bytes from the stack (8-byte aligned).
func (m *Memory) Alloca(n int64) int64 {
	p := m.stackPtr - align8(n)
	if p < m.stackLimit || p > m.stackPtr {
		panic(trapPanic{TrapStackOverflow, "stack overflow"})
	}
	m.stackPtr = p
	return p
}

// check validates an access of width bytes at addr.
func (m *Memory) check(addr, width int64) {
	if addr >= 0 && addr < nullGuard {
		panic(trapPanic{TrapNull, "null-page access"})
	}
	if addr < 0 || addr+width > m.size || addr+width < addr {
		panic(trapPanic{TrapOOB, "access out of bounds"})
	}
	if width > 1 && addr&(width-1) != 0 {
		panic(trapPanic{TrapUnaligned, "misaligned access"})
	}
}

// Load reads a value of the given width (1, 4, or 8 bytes) at addr.
// isFloat selects the interpretation of 8-byte payloads.
func (m *Memory) Load(addr, width int64, isFloat bool) Val {
	m.check(addr, width)
	switch width {
	case 1:
		return IntVal(int64(int8(m.data[addr])))
	case 4:
		return IntVal(int64(int32(binary.LittleEndian.Uint32(m.data[addr:]))))
	case 8:
		bits := binary.LittleEndian.Uint64(m.data[addr:])
		if isFloat {
			return FloatVal(math.Float64frombits(bits))
		}
		return IntVal(int64(bits))
	}
	panic(trapPanic{TrapAbort, "bad load width"})
}

// Store writes a value of the given width at addr.
func (m *Memory) Store(addr, width int64, v Val, isFloat bool) {
	m.check(addr, width)
	m.dirty(addr, width)
	switch width {
	case 1:
		m.data[addr] = byte(v.I)
	case 4:
		binary.LittleEndian.PutUint32(m.data[addr:], uint32(v.I))
	case 8:
		bits := uint64(v.I)
		if isFloat {
			bits = math.Float64bits(v.F)
		}
		binary.LittleEndian.PutUint64(m.data[addr:], bits)
	default:
		panic(trapPanic{TrapAbort, "bad store width"})
	}
}
