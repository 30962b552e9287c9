package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMarginOfError95(t *testing.T) {
	// p=0.5, n=100 -> 1.96 * sqrt(0.25/100) = 0.098.
	if got := MarginOfError95(0.5, 100); math.Abs(got-0.098) > 0.0005 {
		t.Errorf("moe(0.5,100) = %v", got)
	}
	if MarginOfError95(0, 100) != 0 {
		t.Error("moe at p=0 must be 0")
	}
	if MarginOfError95(0.3, 0) != 0 {
		t.Error("moe with n=0 must be 0")
	}
	// Property: non-negative, maximal at p=0.5, shrinks with n.
	f := func(pq uint8, n uint16) bool {
		p := float64(pq) / 255
		nn := int(n)%1000 + 1
		m := MarginOfError95(p, nn)
		if m < 0 || math.IsNaN(m) {
			return false
		}
		if MarginOfError95(0.5, nn) < m-1e-12 {
			return false
		}
		return MarginOfError95(p, nn*4) <= m+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Errorf("mean = %v", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Error("empty-input behaviour")
	}
}
