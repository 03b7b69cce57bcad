package a

import "metricprox/internal/pgraph"

// reborrow re-borrows after growing: the borrow contract done right.
func reborrow(g *pgraph.Graph) float64 {
	_, wts := g.Row(0)
	total := 0.0
	for _, w := range wts {
		total += w // element copies never alias the row
	}
	g.AddEdge(1, 2, total)
	_, wts = g.Row(0) // fresh borrow after the growth
	return wts[0]
}

// copyOut snapshots the borrow before growing; the copy is immune to
// row moves.
func copyOut(g *pgraph.Graph) []float64 {
	_, wts := g.Row(0)
	out := make([]float64, len(wts))
	copy(out, wts)
	g.AddEdge(1, 2, 0.5)
	return out
}

// readOnly never grows, so the borrow stays valid throughout.
func readOnly(g *pgraph.Graph) int {
	nbrs, _ := g.Row(0)
	count := 0
	for range nbrs {
		count++
	}
	return count + len(nbrs)
}

// snapshot keeps a copy of a weight row.
type snapshot struct {
	wts []float64
}

// appendCopy copies the borrow's elements with a spread append: the
// result is fresh memory, safe to keep past the next growth.
func appendCopy(g *pgraph.Graph, h *snapshot) {
	_, wts := g.Row(0)
	h.wts = append([]float64(nil), wts...)
}
