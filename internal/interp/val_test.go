package interp

import (
	"math"
	"testing"
	"testing/quick"

	"ipas/internal/ir"
)

// flipBit is the single-bit corruption: CorruptValue with mask 0.
func flipBit(v Val, t *ir.Type, bit int) Val {
	w, _ := CorruptValue(v, t, bit, 0, false)
	return w
}

func TestFlipBitInt(t *testing.T) {
	v := IntVal(0b1010)
	if got := flipBit(v, ir.I64, 0).I; got != 0b1011 {
		t.Errorf("flip bit 0: %b", got)
	}
	if got := flipBit(v, ir.I64, 3).I; got != 0b0010 {
		t.Errorf("flip bit 3: %b", got)
	}
	// Bit positions wrap modulo the type width.
	if got := flipBit(IntVal(0), ir.I8, 7).I; got != -128 {
		t.Errorf("i8 sign flip = %d, want -128", got)
	}
	if got := flipBit(IntVal(0), ir.I8, 8).I; got != 1 {
		t.Errorf("i8 bit 8 wraps to bit 0: %d", got)
	}
	if got := flipBit(IntVal(0), ir.I1, 5).I; got != 1 {
		t.Errorf("i1 flip = %d", got)
	}
	if got := flipBit(IntVal(0), ir.I32, 31).I; got != math.MinInt32 {
		t.Errorf("i32 sign flip = %d", got)
	}
}

func TestFlipBitFloat(t *testing.T) {
	v := FloatVal(1.0)
	flipped := flipBit(v, ir.F64, 63).F
	if flipped != -1.0 {
		t.Errorf("sign flip of 1.0 = %v", flipped)
	}
	// Exponent flip: bit 62 of 1.0 gives 2^1024 overflow -> +Inf? The
	// IEEE pattern of 1.0 is 0x3FF0...; flipping bit 62 sets exponent
	// 0x7FF -> Inf.
	if !math.IsInf(flipBit(v, ir.F64, 62).F, 1) {
		t.Errorf("exponent flip of 1.0 = %v, want +Inf", flipBit(v, ir.F64, 62).F)
	}
	// Low mantissa flip barely changes the value.
	d := math.Abs(flipBit(v, ir.F64, 0).F - 1.0)
	if d == 0 || d > 1e-15 {
		t.Errorf("mantissa flip delta = %v", d)
	}
}

// TestFlipBitInvolution: flipping the same bit twice restores the value
// for every type — the property the detector relies on.
func TestFlipBitInvolution(t *testing.T) {
	types := []*ir.Type{ir.I1, ir.I8, ir.I32, ir.I64, ir.F64, ir.PtrTo(ir.F64)}
	f := func(raw int64, bit uint8, ti uint8) bool {
		typ := types[int(ti)%len(types)]
		var v Val
		if typ.IsFloat() {
			v = FloatVal(math.Float64frombits(uint64(raw)))
		} else {
			v = IntVal(truncToType(typ, raw))
		}
		b := int(bit)
		w := flipBit(flipBit(v, typ, b), typ, b)
		if typ.IsFloat() {
			return math.Float64bits(w.F) == math.Float64bits(v.F)
		}
		return w.I == v.I
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFlipBitChangesValue: a flip always changes the stored pattern.
func TestFlipBitChangesValue(t *testing.T) {
	f := func(raw int64, bit uint8) bool {
		v := IntVal(raw)
		w := flipBit(v, ir.I64, int(bit))
		return w.I != v.I
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrapStrings(t *testing.T) {
	for tr := TrapNone; tr <= TrapWatchdog; tr++ {
		if tr.String() == "" {
			t.Errorf("trap %d has empty name", tr)
		}
	}
}

func TestFpToInt(t *testing.T) {
	cases := []struct {
		in   float64
		want int64
	}{
		{1.9, 1},
		{-1.9, -1},
		{math.NaN(), 0},
		{math.Inf(1), math.MaxInt64},
		{math.Inf(-1), math.MinInt64},
		{1e300, math.MaxInt64},
		{-1e300, math.MinInt64},
	}
	for _, c := range cases {
		if got := fpToInt(c.in); got != c.want {
			t.Errorf("fpToInt(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}
