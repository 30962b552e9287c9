package interp

import (
	"math"
	"slices"

	"ipas/internal/ir"
	"ipas/internal/slicer"
)

// This file projects a program's section partition onto its bytecode
// and implements the runtime side of sectioned campaigns:
//
//   - progSections maps every pc of every function onto its section
//     and precomputes, for each block head, the frame slots that are
//     live into the block (via slicer's SSA liveness). The Program
//     builds it once, on first section-tracked use; like the
//     fingerprint, it is a pure function of the compiled program, so
//     golden and trial runs agree exactly.
//
//   - SectionTrace is what a golden capture run records: per-section
//     injectable-instance populations and a boundary digest at each
//     instance exit. A trial targeted at one section compares its own
//     boundary digest at the injected instance's first exit against
//     the golden digest; a match means the architectural state visible
//     to the rest of the run is byte-identical to the fault-free run,
//     so the suffix is the golden suffix and the trial is Masked
//     without executing it.
//
// The digest folds, in execution order from the start of the run, every
// event through which state escapes a section: stores (address and
// payload), atomic RMWs, heap allocations, output and print builtins,
// and MPI payloads. At the boundary it additionally folds the heap and
// stack pointers and the live-in slots of the target block. Equality is
// therefore sound up to 64-bit hash collision: matching digests imply
// matching memory images (same store sequence), matching live
// registers, and matching observable output so far.
//
// Early exit is only armed for single-rank runs: a rank that stops at a
// section boundary would otherwise leave MPI peers blocked.
type progSections struct {
	parts  *ir.Sections
	byFunc map[*progFunc]*funcSections
}

// funcSections is the per-function projection.
type funcSections struct {
	// id is a dense process-independent function index; it enters the
	// boundary digest instead of a pointer so digests are reproducible.
	id int32
	// pcSec maps each pc onto its module-global section ID.
	pcSec []int32
	// liveIn is indexed by pc and non-nil only at block-start pcs: the
	// frame slots (ascending) of values live into that block.
	liveIn [][]int32
}

// Sections returns the section partition of the program's module
// (ir.ModuleSections), building the program's section projection on
// first use. The partition is shared; callers must not mutate it.
func (p *Program) Sections() *ir.Sections { return p.sections().parts }

// sections returns the program's section projection, building it on
// first use.
func (p *Program) sections() *progSections {
	p.secOnce.Do(func() { p.secs = newProgSections(p) })
	return p.secs
}

// newProgSections partitions the program's module and projects the
// partition onto every compiled function.
func newProgSections(p *Program) *progSections {
	parts := ir.ModuleSections(p.mod)
	ps := &progSections{parts: parts, byFunc: map[*progFunc]*funcSections{}}

	// Block -> module-global section ID, across all functions.
	blockSec := map[*ir.Block]int32{}
	for _, s := range parts.All {
		for _, b := range s.Blocks {
			blockSec[b] = int32(s.ID)
		}
	}

	var fid int32
	for _, f := range p.mod.Funcs() {
		pf := p.funcs[f]
		if f.Builtin || len(pf.code) == 0 {
			continue
		}
		fs := &funcSections{
			id:     fid,
			pcSec:  make([]int32, len(pf.code)),
			liveIn: make([][]int32, len(pf.code)),
		}
		fid++

		slot, _ := frameSlots(f)
		live := slicer.NewLiveness(f)
		blocks := f.Blocks()
		for pc := range pf.code {
			b := blocks[pf.blockOf[pc]]
			fs.pcSec[pc] = blockSec[b]
			if pc == 0 || pf.blockOf[pc] != pf.blockOf[pc-1] {
				var slots []int32
				for _, v := range live.LiveIn(b) {
					if s, ok := slot[v]; ok {
						slots = append(slots, s)
					}
				}
				// LiveIn is name-sorted; re-sort by slot for a canonical
				// fold order tied to the frame layout.
				slices.Sort(slots)
				fs.liveIn[pc] = slots
			}
		}
		ps.byFunc[pf] = fs
	}
	return ps
}

// SectionConfig arms section tracking on a run (Config.Sections). The
// program supplies the section projection; a section-tracked run
// without a fault plan records the boundary trace (Result.Sections).
type SectionConfig struct {
	// Golden, when non-nil, enables early-masked exit: a faulty run
	// whose boundary digest at the injected instance's first section
	// exit matches the golden digest stops immediately and reports
	// Result.EarlyMasked.
	Golden *SectionTrace
}

// SectionTrace is the boundary record of one golden run.
type SectionTrace struct {
	// Pops is the per-section injectable dynamic-instance population:
	// the (section x site x occurrence) sampling space.
	Pops []int64
	// Exits holds, per section, the boundary digest of each instance in
	// ordinal order (capped at maxRecordedExits; 0 = unrecorded).
	Exits [][]uint64
}

// maxRecordedExits caps per-section exit recording; instances past the
// cap simply forgo early exit.
const maxRecordedExits = 4096

func newSectionTrace(n int) *SectionTrace {
	return &SectionTrace{
		Pops:  make([]int64, n),
		Exits: make([][]uint64, n),
	}
}

// record stores an instance's exit digest. Instances of one section can
// exit out of ordinal order (recursion), so the slice grows to fit.
func (t *SectionTrace) record(sec int32, ord int64, d uint64) {
	if ord >= maxRecordedExits {
		return
	}
	e := t.Exits[sec]
	for int64(len(e)) <= ord {
		e = append(e, 0)
	}
	e[ord] = d
	t.Exits[sec] = e
}

// exitAt returns the recorded digest for (sec, ord), 0 if absent or t
// is nil.
func (t *SectionTrace) exitAt(sec int32, ord int64) uint64 {
	if t == nil || sec < 0 || int(sec) >= len(t.Exits) {
		return 0
	}
	e := t.Exits[sec]
	if ord < 0 || ord >= int64(len(e)) {
		return 0
	}
	return e[ord]
}

// earlyMaskedExit unwinds a rank that proved its remaining execution
// identical to the golden run; rank.run converts it into a clean stop
// with Result.EarlyMasked set.
type earlyMaskedExit struct{}

// mix folds one value into a running digest (splitmix64 finalizer).
// Order-sensitive: mix(mix(h,a),b) != mix(mix(h,b),a).
func mix(h, v uint64) uint64 {
	h += 0x9e3779b97f4a7c15 + v
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// frameSec is the per-frame section cursor execFull threads through a
// call: the pc-to-section table of the executing function, the current
// section, and the ordinal of the open instance. It is zero when
// section tracking is off.
type frameSec struct {
	tab *funcSections
	cur int32
	ord int64
}

// secEnter opens a new dynamic instance of sec and returns its ordinal.
func (r *rank) secEnter(sec int32) int64 {
	ord := r.secOrd[sec]
	r.secOrd[sec]++
	return ord
}

// secFrame opens the section cursor of a frame entering pf at pc 0
// (the zero cursor when section tracking is off).
func (r *rank) secFrame(pf *progFunc) frameSec {
	if r.sec == nil {
		return frameSec{}
	}
	tab := r.sec.byFunc[pf]
	if tab == nil {
		return frameSec{}
	}
	fs := frameSec{tab: tab, cur: tab.pcSec[0]}
	fs.ord = r.secEnter(fs.cur)
	return fs
}

// secTransition closes the open instance at a branch into a different
// section (target block at pc) and opens the next one. A capture run
// mirrors the new cursor into its frame stack, which snapshots record.
func (r *rank) secTransition(fs *frameSec, ns int32, pc int, slots []Val) {
	d := r.boundaryDigest(fs.tab, pc, slots)
	r.secExit(fs, d)
	fs.cur = ns
	fs.ord = r.secEnter(ns)
	if c := r.capture; c != nil {
		c.frames[len(c.frames)-1].sec = *fs
	}
}

// retBoundaryTag distinguishes return exits (no target pc, digest folds
// the return value instead of block live-ins) from branch exits.
const retBoundaryTag = 0x5ec7_ec17

// secRet closes the open instance at a function return. The caller's
// live registers are untouched since before the instance began, so the
// digest only needs the history, the allocator frontiers and the value
// flowing back.
func (r *rank) secRet(fs *frameSec, ret Val) {
	h := mix(r.hist, uint64(fs.tab.id))
	h = mix(h, retBoundaryTag)
	h = mix(h, uint64(r.mem.heapPtr))
	h = mix(h, uint64(r.mem.stackPtr))
	h = mix(h, valBits(ret))
	r.secExit(fs, h)
}

// boundaryDigest summarizes the state a section hands to its successor:
// the event history so far, the allocator frontiers, and the live-in
// slots of the target block (identified by function and pc).
func (r *rank) boundaryDigest(tab *funcSections, pc int, slots []Val) uint64 {
	h := mix(r.hist, uint64(tab.id))
	h = mix(h, uint64(pc))
	h = mix(h, uint64(r.mem.heapPtr))
	h = mix(h, uint64(r.mem.stackPtr))
	for _, s := range tab.liveIn[pc] {
		h = mix(h, valBits(slots[s]))
	}
	return h
}

// secExit records (capture) or checks (trial) an instance exit.
func (r *rank) secExit(fs *frameSec, d uint64) {
	if d == 0 {
		d = 1 // 0 is the "unrecorded" sentinel
	}
	if r.secCap != nil {
		r.secCap.record(fs.cur, fs.ord, d)
	}
	// Sticky plans keep corrupting the suffix, so a boundary digest
	// matching the golden one proves nothing about the remainder of the
	// run; the early-masked exit is sound only for transient faults.
	if r.injected && !r.injectSticky && fs.cur == r.injSec && fs.ord == r.injOrd {
		if g := r.secGold.exitAt(fs.cur, fs.ord); g != 0 && g == d {
			r.earlyMasked = true
			panic(earlyMaskedExit{})
		}
		// The injected instance closes once: past its check section
		// tracking can no longer change the result.
		r.leaveFull()
	}
}

// valBits canonicalizes a Val for hashing: both lanes fold, so an int
// and a float that happen to share bits still digest differently only
// through context, and the unused lane (always zero for SSA-produced
// values of the other kind) costs nothing semantically.
func valBits(v Val) uint64 {
	return mix(uint64(v.I), math.Float64bits(v.F))
}
