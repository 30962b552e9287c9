package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"
)

// Section is one unit of the per-function partition used by sectioned
// fault-injection campaigns (FastFlip-style compositional analysis):
// either one outermost natural loop nest, or a maximal run of
// consecutive non-loop blocks in layout order. Every block of a
// function belongs to exactly one section.
type Section struct {
	// ID is the module-wide section index (assigned by ModuleSections
	// in deterministic function/layout order).
	ID int
	// Index is the section's index within its function.
	Index int
	// Fn is the owning function.
	Fn *Func
	// Header is the section's first block: the loop header for a loop
	// section, the first block of the run otherwise.
	Header *Block
	// Blocks lists the section's blocks in function layout order.
	Blocks []*Block
	// Loop reports whether the section is an outermost loop nest.
	Loop bool
	// Fingerprint is a stable content hash over the section's canonical
	// printed form (plus its position: function name, section index and
	// header label), so a section's identity survives edits elsewhere in
	// the module and changes whenever its own code changes.
	Fingerprint string
}

// ComputeSections partitions fn's blocks into sections: each outermost
// natural loop nest (all blocks of the loop, including nested loops)
// forms one section, and the remaining blocks form maximal runs of
// consecutive-in-layout-order non-loop blocks. The partition is a pure
// function of the IR, so both sides of a campaign protocol compute the
// identical sections.
func ComputeSections(fn *Func) []*Section {
	if fn.Builtin || len(fn.Blocks()) == 0 {
		return nil
	}
	dom := ComputeDom(fn)
	li := ComputeLoops(fn, dom)

	// An outermost loop is one whose header is inside no other loop.
	outer := map[*Block]*Loop{} // block -> its outermost loop
	for _, l := range li.Loops {
		outermost := true
		for _, o := range li.Loops {
			if o != l && o.Blocks[l.Header] {
				outermost = false
				break
			}
		}
		if !outermost {
			continue
		}
		for b := range l.Blocks {
			outer[b] = l
		}
	}

	var (
		secs    []*Section
		byLoop  = map[*Loop]*Section{}
		current *Section // open straight-line run
	)
	for _, b := range fn.Blocks() {
		if l := outer[b]; l != nil {
			current = nil
			s := byLoop[l]
			if s == nil {
				s = &Section{Fn: fn, Header: l.Header, Loop: true}
				byLoop[l] = s
				secs = append(secs, s)
			}
			s.Blocks = append(s.Blocks, b)
			continue
		}
		if current == nil {
			current = &Section{Fn: fn, Header: b}
			secs = append(secs, current)
		}
		current.Blocks = append(current.Blocks, b)
	}
	for i, s := range secs {
		s.Index = i
		s.Fingerprint = s.fingerprint()
	}
	return secs
}

// fingerprint hashes the section's canonical printed content together
// with its position. Position (function name, in-function index, header
// label) disambiguates textually identical sections — two copies of the
// same helper must not share a plan stream.
func (s *Section) fingerprint() string {
	h := sha256.New()
	h.Write([]byte(s.Fn.Name()))
	h.Write([]byte{0})
	var idx [8]byte
	binary.LittleEndian.PutUint64(idx[:], uint64(s.Index))
	h.Write(idx[:])
	h.Write([]byte(s.Header.Name()))
	h.Write([]byte{0})
	for _, b := range s.Blocks {
		h.Write([]byte(b.Name()))
		h.Write([]byte(":\n"))
		for _, in := range b.Instrs() {
			h.Write([]byte(printInstr(in)))
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// String renders a short human-readable section label.
func (s *Section) String() string {
	kind := "line"
	if s.Loop {
		kind = "loop"
	}
	return "@" + s.Fn.Name() + "#" + strconv.Itoa(s.Index) + "(" + kind + " " + s.Header.Name() + ")"
}

// Sections is the module-wide section partition.
type Sections struct {
	// All lists every section in deterministic order (functions in
	// module order, sections in layout order); Section.ID indexes it.
	All []*Section

	sites [][]int // per-section sorted global SiteIDs (ProtNone instrs)
}

// ModuleSections partitions every non-builtin function of m and lists
// each section's SiteIDs. AssignSiteIDs must have been called (it is by
// every compile path that feeds fault injection).
func ModuleSections(m *Module) *Sections {
	ms := &Sections{}
	numSites := m.NumSites()
	for _, f := range m.Funcs() {
		for _, s := range ComputeSections(f) {
			s.ID = len(ms.All)
			ms.All = append(ms.All, s)
			ms.sites = append(ms.sites, nil)
			for _, b := range s.Blocks {
				for _, in := range b.Instrs() {
					if in.Prot == ProtNone && in.SiteID >= 0 && in.SiteID < numSites {
						ms.sites[s.ID] = append(ms.sites[s.ID], in.SiteID)
					}
				}
			}
		}
	}
	return ms
}

// Sites returns section sec's global SiteIDs in ascending order (site
// IDs are assigned in layout order, which is the iteration order
// above). The slice is shared; callers must not mutate it.
func (ms *Sections) Sites(sec int) []int { return ms.sites[sec] }
