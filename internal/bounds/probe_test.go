package bounds

import (
	"math"
	"testing"

	"metricprox/internal/pgraph"
)

// referenceBounds is scalar Tri.Bounds with the probe as it was before
// the branch-free kernel: it stamps the shorter row's positions, answers
// a resolved pair from the stamped cell, and otherwise branches on every
// probed cell's stamp, folding each common neighbour's candidates with
// float compares (NaN candidates skipped, the first zero upper bound
// kept) before the clamp.
func referenceBounds(g *pgraph.Graph, maxDist, rho float64, i, j int) (float64, float64) {
	if i == j {
		return 0, 0
	}
	ni, wi := g.Row(i)
	nj, wj := g.Row(j)
	if len(nj) < len(ni) {
		i, j = j, i
		ni, wi, nj, wj = nj, wj, ni, wi
	}
	pos := make(map[int32]int, len(ni))
	for x, v := range ni {
		pos[v] = x
	}
	if x, ok := pos[int32(j)]; ok {
		return wi[x], wi[x]
	}
	lb, ub := 0.0, maxDist
	for y, v := range nj {
		x, ok := pos[v]
		if !ok {
			continue
		}
		a, b := wi[x], wj[y]
		if rho == 1 {
			if d := a - b; d > lb {
				lb = d
			} else if d := b - a; d > lb {
				lb = d
			}
			if s := a + b; s < ub {
				ub = s
			}
			continue
		}
		if d := a/rho - b; d > lb {
			lb = d
		} else if d := b/rho - a; d > lb {
			lb = d
		}
		if s := rho * (a + b); s < ub {
			ub = s
		}
	}
	return clamp(lb, ub, maxDist)
}

// probeWeight maps a byte to an edge weight for FuzzTriProbeVsReference:
// NaN of either sign, ±0, ±Inf, a negative value, two subnormals, values
// above the cap and equal values among the rest.
func probeWeight(b byte) float64 {
	return [16]float64{
		math.NaN(), math.Float64frombits(0xfff8000000000001), 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), -0.25, 5e-324,
		3 * 5e-324, 1.5, 0.25, 0.5,
		0.5, 0.75, 1, 0.125,
	}[b&15]
}

// FuzzTriProbeVsReference holds scalar Tri.Bounds, whose probe folds the
// candidates as bit patterns with no data-dependent branch, to
// referenceBounds bit for bit (NaN and the sign of zero count) at ρ = 1
// and ρ = 1.5 and a cap of 1, 0.5 or +Inf. The input builds the rows of
// objects 0 and 1 — either may be the shorter, and either may be empty,
// one cell long or hold the other — and some edges among the other
// objects, with probeWeight's weights. The pair (0, 1) is asked both
// ways, then the pairs of other objects, whose stamps leave stale
// weights behind for the next probe, then (0, 1) again.
func FuzzTriProbeVsReference(f *testing.F) {
	f.Add(uint8(6), uint8(0), []byte{})
	f.Add(uint8(4), uint8(0), []byte{1, 0x0a})
	f.Add(uint8(7), uint8(1), []byte{3, 0x0b, 0x0a, 2, 0x0d, 1, 0x0e, 3, 0x00, 0x03})
	f.Add(uint8(12), uint8(2), []byte("\x03\x0a\x0b\x03\x02\x03\x03\x0c\x0c\x01\x0f\x02\x0e\x03\x00\x0a\x03\x01\x09\x03\x06\x0d"))
	f.Add(uint8(20), uint8(3), []byte("\x03\x04\x05\x03\x08\x07\x03\x0a\x0a\x01\x09\x02\x0b\x03\x03\x02\x07\x31\x52\x73\x94\xb5\xd6"))
	f.Add(uint8(9), uint8(4), []byte("\x03\x0e\x0a\x03\x0a\x0e\x03\x0b\x0b\x03\x0f\x0f\x03\x0c\x0d\x03\x0d\x0c\x03\x0a\x0a"))
	f.Fuzz(func(t *testing.T, size, mode uint8, data []byte) {
		in := fuzzInput{data: data}
		n := 3 + int(size%30)
		rho := [2]float64{1, 1.5}[mode%2]
		maxDist := [3]float64{1, 0.5, math.Inf(1)}[mode/2%3]
		g := pgraph.New(n)
		if mode/6%2 == 1 {
			g.AddEdge(0, 1, probeWeight(in.next()))
		}
		for v := 2; v < n; v++ {
			// Bit 0 puts v in 0's row, bit 1 in 1's row: both make v a
			// common neighbour.
			switch in.next() & 3 {
			case 1:
				g.AddEdge(0, v, probeWeight(in.next()))
			case 2:
				g.AddEdge(1, v, probeWeight(in.next()))
			case 3:
				g.AddEdge(0, v, probeWeight(in.next()))
				g.AddEdge(1, v, probeWeight(in.next()))
			}
		}
		var pairs [][2]int
		for in.at < len(in.data) {
			b := in.next()
			i, j := 2+int(b&15)%(n-2), 2+int(b>>4)%(n-2)
			if i != j && !g.Known(i, j) {
				g.AddEdge(i, j, probeWeight(in.next()))
			}
			pairs = append(pairs, [2]int{i, j})
		}
		tri := NewTriRelaxed(g, maxDist, rho)
		check := func(i, j int) {
			t.Helper()
			l, u := tri.Bounds(i, j)
			wl, wu := referenceBounds(g, maxDist, rho, i, j)
			if math.Float64bits(l) != math.Float64bits(wl) || math.Float64bits(u) != math.Float64bits(wu) {
				t.Fatalf("ρ = %v, cap %v: Bounds(%d,%d) = [%v,%v] (%#x,%#x), reference [%v,%v] (%#x,%#x)",
					rho, maxDist, i, j, l, u, math.Float64bits(l), math.Float64bits(u),
					wl, wu, math.Float64bits(wl), math.Float64bits(wu))
			}
		}
		check(0, 1)
		check(1, 0)
		for _, p := range pairs {
			check(p[0], p[1])
			check(p[0], 0)
			check(1, p[1])
		}
		check(0, 1)
	})
}
