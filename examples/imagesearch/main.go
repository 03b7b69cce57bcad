// Imagesearch: similarity search over shapes (point sets) under the
// Hausdorff distance — the computer-vision application family the paper's
// introduction cites (image comparison under Hausdorff distance,
// triangle-inequality-based pruning in image databases).
//
// Each "image" is a 2-D point set; one Hausdorff evaluation costs
// O(|A|·|B|) — a genuinely expensive oracle. The example builds a small
// shape database, then answers k-nearest-shape queries through the
// Session, comparing against the linear scan.
//
//	go run ./examples/imagesearch
package main

import (
	"fmt"
	"math"
	"math/rand"

	"metricprox/internal/core"
	"metricprox/internal/metric"
	"metricprox/internal/prox"
)

// makeShapes synthesises n shapes: noisy samples along circles, boxes and
// line segments of varying size and position.
func makeShapes(n int, rng *rand.Rand) [][][]float64 {
	shapes := make([][][]float64, n)
	for i := range shapes {
		cx, cy := rng.Float64(), rng.Float64()
		size := 0.05 + 0.2*rng.Float64()
		pts := make([][]float64, 40)
		kind := rng.Intn(3)
		for p := range pts {
			t := float64(p) / float64(len(pts)) * 2 * math.Pi
			var x, y float64
			switch kind {
			case 0: // circle
				x, y = math.Cos(t)*size, math.Sin(t)*size
			case 1: // box
				s := float64(p) / float64(len(pts)) * 4
				switch int(s) {
				case 0:
					x, y = s-0.5, -0.5
				case 1:
					x, y = 0.5, s-1.5
				case 2:
					x, y = 2.5-s, 0.5
				default:
					x, y = -0.5, 3.5-s
				}
				x, y = x*size, y*size
			default: // segment
				x, y = (float64(p)/float64(len(pts))-0.5)*2*size, 0
			}
			pts[p] = []float64{
				cx + x + rng.NormFloat64()*0.004,
				cy + y + rng.NormFloat64()*0.004,
			}
		}
		shapes[i] = pts
	}
	return shapes
}

func main() {
	const n = 120
	rng := rand.New(rand.NewSource(23))
	shapes := makeShapes(n, rng)
	// Shapes live in roughly [−0.25, 1.25]²; scale by 1/diameter bound.
	space := metric.NewPointSets(shapes, 1/(1.5*math.Sqrt2))

	run := func(scheme core.Scheme) (int64, []prox.Neighbor) {
		oracle := metric.NewOracle(space)
		s := core.NewSession(oracle, scheme)
		if scheme != core.SchemeNoop {
			s.Bootstrap(core.PickLandmarks(n, 7, 23))
		}
		var last []prox.Neighbor
		for q := 0; q < n; q += 8 {
			last = prox.KNNRow(s, q, 3)
		}
		return oracle.Calls(), last
	}

	fmt.Printf("3-nearest-shape queries over %d Hausdorff-compared shapes\n\n", n)
	vCalls, vRes := run(core.SchemeNoop)
	tCalls, tRes := run(core.SchemeTri)
	for i := range vRes {
		if vRes[i].ID != tRes[i].ID {
			panic("query answers diverged")
		}
	}
	fmt.Printf("Hausdorff evaluations: linear scan %d, session+tri %d (%.1f%% saved)\n",
		vCalls, tCalls, 100*float64(vCalls-tCalls)/float64(vCalls))
	fmt.Printf("\nnearest shapes to shape %d:", n-8)
	for _, r := range tRes {
		fmt.Printf("  #%d (%.4f)", r.ID, r.Dist)
	}
	fmt.Println()
}
