// Package ir implements a typed, SSA-form intermediate representation
// modeled after LLVM IR at the level of abstraction the IPAS paper
// operates on: value-producing instructions grouped into basic blocks,
// basic blocks grouped into functions, with explicit use-def and
// def-use chains.
//
// The IR is deliberately small but complete: integer and floating
// arithmetic, logical operations, comparisons, pointer arithmetic
// (GEP), stack allocation, casts, PHI nodes, calls, loads/stores and
// control flow. Everything the IPAS feature extractor (Table 1 of the
// paper), the Weiser slicer, and the duplication pass need is
// represented directly.
package ir

import (
	"fmt"
	"sync"
)

// TypeKind enumerates the primitive type families of the IR.
type TypeKind int

const (
	// VoidKind is the type of functions that return nothing and of
	// instructions that produce no value (store, br, ret void).
	VoidKind TypeKind = iota
	// I1Kind is the boolean type produced by comparisons.
	I1Kind
	// I8Kind is an 8-bit integer.
	I8Kind
	// I32Kind is a 32-bit integer.
	I32Kind
	// I64Kind is a 64-bit integer.
	I64Kind
	// F64Kind is a 64-bit IEEE-754 float.
	F64Kind
	// PtrKind is a byte-addressed pointer carrying its element type.
	PtrKind
)

// Type describes the type of a Value. Types are interned: compare with ==.
type Type struct {
	kind TypeKind
	elem *Type // element type for PtrKind
}

// Pre-interned primitive types.
var (
	Void = &Type{kind: VoidKind}
	I1   = &Type{kind: I1Kind}
	I8   = &Type{kind: I8Kind}
	I32  = &Type{kind: I32Kind}
	I64  = &Type{kind: I64Kind}
	F64  = &Type{kind: F64Kind}

	// ptrMu guards ptrCache: modules are compiled concurrently
	// (campaignd builds each submitted spec in its own HTTP handler).
	ptrMu    sync.Mutex
	ptrCache = map[*Type]*Type{}
)

// PtrTo returns the (interned) pointer type with element type elem.
// Safe for concurrent use.
func PtrTo(elem *Type) *Type {
	ptrMu.Lock()
	defer ptrMu.Unlock()
	if p, ok := ptrCache[elem]; ok {
		return p
	}
	p := &Type{kind: PtrKind, elem: elem}
	ptrCache[elem] = p
	return p
}

// Kind reports the type's kind.
func (t *Type) Kind() TypeKind { return t.kind }

// Elem returns the element type of a pointer type, or nil.
func (t *Type) Elem() *Type { return t.elem }

// IsInt reports whether t is an integer type (including i1).
func (t *Type) IsInt() bool {
	switch t.kind {
	case I1Kind, I8Kind, I32Kind, I64Kind:
		return true
	}
	return false
}

// IsFloat reports whether t is a floating-point type.
func (t *Type) IsFloat() bool { return t.kind == F64Kind }

// IsPtr reports whether t is a pointer type.
func (t *Type) IsPtr() bool { return t.kind == PtrKind }

// Size returns the size of a value of type t in bytes. Pointers are 8
// bytes; i1 occupies one byte in memory.
func (t *Type) Size() int64 {
	switch t.kind {
	case VoidKind:
		return 0
	case I1Kind, I8Kind:
		return 1
	case I32Kind:
		return 4
	case I64Kind, F64Kind, PtrKind:
		return 8
	}
	panic("ir: unknown type kind")
}

// Bits returns the number of value-carrying bits of type t, used by the
// fault injector to pick a random bit to flip.
func (t *Type) Bits() int {
	switch t.kind {
	case I1Kind:
		return 1
	case I8Kind:
		return 8
	case I32Kind:
		return 32
	case I64Kind, F64Kind, PtrKind:
		return 64
	}
	return 0
}

// String renders the type in LLVM-like syntax.
func (t *Type) String() string {
	switch t.kind {
	case VoidKind:
		return "void"
	case I1Kind:
		return "i1"
	case I8Kind:
		return "i8"
	case I32Kind:
		return "i32"
	case I64Kind:
		return "i64"
	case F64Kind:
		return "f64"
	case PtrKind:
		return t.elem.String() + "*"
	}
	return fmt.Sprintf("?type%d", int(t.kind))
}

// ParseType parses a type written in the String syntax.
func ParseType(s string) (*Type, error) {
	stars := 0
	for len(s) > 0 && s[len(s)-1] == '*' {
		stars++
		s = s[:len(s)-1]
	}
	var base *Type
	switch s {
	case "void":
		base = Void
	case "i1":
		base = I1
	case "i8":
		base = I8
	case "i32":
		base = I32
	case "i64":
		base = I64
	case "f64":
		base = F64
	default:
		return nil, fmt.Errorf("ir: unknown type %q", s)
	}
	if base == Void && stars > 0 {
		return nil, fmt.Errorf("ir: pointer to void")
	}
	for i := 0; i < stars; i++ {
		base = PtrTo(base)
	}
	return base, nil
}
