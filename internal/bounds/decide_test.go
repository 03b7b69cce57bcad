package bounds

import (
	"math"
	"testing"
)

func TestDecideLessBoundaries(t *testing.T) {
	cases := []struct {
		name                 string
		lb1, ub1, lb2, ub2   float64
		wantLess, wantDecide bool
	}{
		{"disjoint below", 0.1, 0.2, 0.3, 0.4, true, true},
		{"disjoint above", 0.5, 0.6, 0.1, 0.2, false, true},
		{"overlapping", 0.1, 0.5, 0.3, 0.6, false, false},
		{"nested", 0.2, 0.3, 0.1, 0.6, false, false},
		{"touching ub1 == lb2 leaves equality possible", 0.1, 0.3, 0.3, 0.5, false, false},
		{"touching lb1 == ub2 forces not less", 0.3, 0.5, 0.1, 0.3, false, true},
		{"collapsed equal", 0.3, 0.3, 0.3, 0.3, false, true},
		{"collapsed below", 0.2, 0.2, 0.3, 0.3, true, true},
		{"collapsed inside", 0.3, 0.3, 0.1, 0.5, false, false},
		{"self-pair left", 0, 0, 0.1, 0.2, true, true},
		{"self-pair left, unknown right", 0, 0, 0, 1, false, false},
		{"self-pair right", 0.1, 0.2, 0, 0, false, true},
		{"self-pair both", 0, 0, 0, 0, false, true},
		{"unknown both", 0, 1, 0, 1, false, false},
	}
	for _, c := range cases {
		less, decided := DecideLess(c.lb1, c.ub1, c.lb2, c.ub2)
		if less != c.wantLess || decided != c.wantDecide {
			t.Errorf("%s: DecideLess(%v, %v, %v, %v) = (%v, %v), want (%v, %v)",
				c.name, c.lb1, c.ub1, c.lb2, c.ub2, less, decided, c.wantLess, c.wantDecide)
		}
	}
}

func TestDecideLessThanBoundaries(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name                 string
		lb, ub, c            float64
		wantLess, wantDecide bool
	}{
		{"below", 0.1, 0.2, 0.3, true, true},
		{"above", 0.4, 0.5, 0.3, false, true},
		{"straddling", 0.1, 0.5, 0.3, false, false},
		{"ub == c leaves equality possible", 0.1, 0.3, 0.3, false, false},
		{"lb == c forces not less", 0.3, 0.5, 0.3, false, true},
		{"collapsed at c", 0.3, 0.3, 0.3, false, true},
		{"collapsed below c", 0.2, 0.2, 0.3, true, true},
		{"c = +Inf, Prim's initial key", 0.1, 0.9, inf, true, true},
		{"c = +Inf, unbounded ub", 0.1, inf, inf, false, false},
		{"c = 0, nothing is below it", 0, 0.5, 0, false, true},
		{"self-pair, c = 0", 0, 0, 0, false, true},
		{"self-pair, c > 0", 0, 0, 0.1, true, true},
	}
	for _, c := range cases {
		less, decided := DecideLessThan(c.lb, c.ub, c.c)
		if less != c.wantLess || decided != c.wantDecide {
			t.Errorf("%s: DecideLessThan(%v, %v, %v) = (%v, %v), want (%v, %v)",
				c.name, c.lb, c.ub, c.c, less, decided, c.wantLess, c.wantDecide)
		}
		// A constant is a collapsed interval.
		if l2, d2 := DecideLess(c.lb, c.ub, c.c, c.c); l2 != less || d2 != decided {
			t.Errorf("%s: DecideLess with collapsed c = (%v, %v), DecideLessThan = (%v, %v)",
				c.name, l2, d2, less, decided)
		}
	}
}

// FuzzDecideSound draws two true distances and random intervals that
// contain them: whenever the kernel decides, its verdict must be the true
// comparison. This is the soundness half of output preservation — the
// kernel may leave a comparison to the oracle, never answer it wrongly.
// The distances are often equal or one ulp apart, and the endpoints are
// picked from the distances themselves, their one-ulp neighbours, free
// offsets and the other distance, so touching and one-ulp intervals —
// where strict and non-strict comparisons part ways — come up constantly.
func FuzzDecideSound(f *testing.F) {
	f.Add(0.3, 0.5, 0.1, 0.1, uint16(0x0aa))
	f.Add(0.3, 0.3, 0.0, 0.0, uint16(0))
	f.Add(0.0, 0.2, 0.1, 0.3, uint16(0x3f3))
	f.Add(0.7, 0.2, 0.4, 0.5, uint16(0x1e6))
	f.Fuzz(func(t *testing.T, d1, d2, w1, w2 float64, sel uint16) {
		for _, v := range []float64{d1, d2, w1, w2} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		d1 = math.Abs(d1)
		switch sel & 3 {
		case 1:
			d2 = d1
		case 2:
			d2 = math.Nextafter(d1, math.Inf(1))
		default:
			d2 = math.Abs(d2)
		}
		lb1, ub1 := around(d1, d2, w1, sel>>2)
		lb2, ub2 := around(d2, d1, w2, sel>>6)
		if less, decided := DecideLess(lb1, ub1, lb2, ub2); decided && less != (d1 < d2) {
			t.Fatalf("DecideLess([%v,%v], [%v,%v]) = %v, but %v < %v is %v",
				lb1, ub1, lb2, ub2, less, d1, d2, d1 < d2)
		}
		if less, decided := DecideLessThan(lb1, ub1, d2); decided && less != (d1 < d2) {
			t.Fatalf("DecideLessThan([%v,%v], %v) = %v, but %v < %v is %v",
				lb1, ub1, d2, less, d1, d2, d1 < d2)
		}
	})
}

// around returns an interval containing d whose endpoints sel picks from
// d itself, its one-ulp neighbours, d ∓ |w|, and the other distance when
// it lies on that side of d.
func around(d, other, w float64, sel uint16) (lb, ub float64) {
	lbs := [4]float64{d, math.Nextafter(d, math.Inf(-1)), d - math.Abs(w), math.Min(d, other)}
	ubs := [4]float64{d, math.Nextafter(d, math.Inf(1)), d + math.Abs(w), math.Max(d, other)}
	return lbs[sel&3], ubs[sel>>2&3]
}
