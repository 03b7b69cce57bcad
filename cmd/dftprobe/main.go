// Command dftprobe quantifies how often the DIRECT FEASIBILITY TEST (an LP
// over the full metric polytope) decides a distance comparison that the
// tightest interval bounds (SPLUB/ADM) cannot.
//
// This is the analysis behind a reproduction note in EXPERIMENTS.md: on
// random partial metrics the LP's joint reasoning adds nothing over fresh
// tightest interval bounds for single comparisons — max(x_e − x_f) over
// the metric polytope is attained at the per-edge extremes — so DFT's
// call counts match ADM's in this reproduction, unlike the 27–58% gap the
// paper reports against its ADM baseline.
//
// Usage: dftprobe [-trials 10] [-n 8] [-reveal 0.5]
package main

import (
	"flag"
	"fmt"
	"math/rand"

	"metricprox/internal/bounds"
	"metricprox/internal/buildinfo"
	"metricprox/internal/datasets"
	"metricprox/internal/pgraph"
)

func main() {
	trials := flag.Int("trials", 10, "number of random partial metrics")
	n := flag.Int("n", 8, "objects per instance")
	reveal := flag.Float64("reveal", 0.5, "fraction of edges revealed")
	verFlag := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *verFlag {
		fmt.Println(buildinfo.String("dftprobe"))
		return
	}

	lpWins, intervalDecided, total, unsound := 0, 0, 0, 0
	for trial := int64(0); trial < int64(*trials); trial++ {
		m := datasets.RandomMetric(*n, trial)
		rng := rand.New(rand.NewSource(trial + 100))
		g := pgraph.New(*n)
		splub := bounds.NewSPLUB(g, 1)
		dft := bounds.NewDFT(*n, 1)
		for i := 0; i < *n; i++ {
			for j := i + 1; j < *n; j++ {
				if rng.Float64() < *reveal {
					//proxlint:allow oracleescape -- diagnostic tool: probes bound quality against ground truth directly, deliberately outside any session
					d := m.Distance(i, j)
					g.AddEdge(i, j, d)
					dft.Update(i, j, d)
				}
			}
		}
		for i := 0; i < *n; i++ {
			for j := i + 1; j < *n; j++ {
				if g.Known(i, j) {
					continue
				}
				for k := 0; k < *n; k++ {
					for l := k + 1; l < *n; l++ {
						if g.Known(k, l) || (i == k && j == l) {
							continue
						}
						total++
						lb1, ub1 := splub.Bounds(i, j)
						lb2, ub2 := splub.Bounds(k, l)
						less, decided := bounds.DecideLess(lb1, ub1, lb2, ub2)
						iv := decided && less
						lp := dft.ProveLess(i, j, k, l)
						if iv {
							intervalDecided++
						}
						if lp && !iv {
							lpWins++
						}
						if iv && !lp {
							unsound++ // must stay 0: LP subsumes intervals
						}
					}
				}
			}
		}
	}
	fmt.Printf("comparisons=%d interval-decided=%d lp-extra-wins=%d interval-not-lp=%d\n",
		total, intervalDecided, lpWins, unsound)
}
