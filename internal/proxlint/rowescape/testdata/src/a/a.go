package a

import (
	"metricprox/internal/bounds"
	"metricprox/internal/pgraph"
)

var global []int32

type holder struct {
	nbrs []int32
}

func staleUse(g *pgraph.Graph) float64 {
	nbrs, wts := g.Row(0)
	g.AddEdge(1, 2, 0.5)
	_ = nbrs      // want `used after a call that can relocate`
	return wts[0] // want `used after a call that can relocate`
}

func fieldStore(g *pgraph.Graph, h *holder) {
	nbrs, _ := g.Row(0)
	h.nbrs = nbrs // want `stored in a field; it aliases the graph's row`
}

// rowRef keeps a weight row, as a scratch entry might.
type rowRef struct {
	r []float64
}

type rowsHolder struct {
	rows []rowRef
}

// appendStore stores the borrow through append: the appended value, and
// so the grown slice, holds the row.
func appendStore(g *pgraph.Graph, h *rowsHolder) {
	_, ww := g.Row(0)
	var rows []rowRef
	rows = append(rows, rowRef{r: ww})
	h.rows = rows // want `stored in a field`
}

func globalStore(g *pgraph.Graph) {
	global, _ = g.Row(0) // want `package-level variable global; it aliases the graph's row`
}

func sendAcross(g *pgraph.Graph, ch chan []int32) {
	nbrs, _ := g.Row(0)
	ch <- nbrs // want `sent across a channel; the receiver cannot know when the row changes`
}

func goEscape(g *pgraph.Graph) {
	nbrs, _ := g.Row(0)
	go consume(nbrs) // want `passed to a goroutine`
}

func consume(xs []int32) {}

// borrow returns the borrowed row: not a violation, but callers inherit
// the borrow through the exported "borrows" fact.
func borrow(g *pgraph.Graph) []int32 {
	nbrs, _ := g.Row(0)
	return nbrs
}

func useBorrowedAcrossGrow(g *pgraph.Graph) {
	nbrs := borrow(g)
	g.AddEdge(1, 2, 0.5)
	_ = nbrs // want `used after a call that can relocate`
}

// grow earns a "grows" fact; the taint engine treats calls to it like
// AddEdge itself.
func grow(g *pgraph.Graph) { g.AddEdge(3, 4, 1.0) }

func transitiveGrow(g *pgraph.Graph) {
	nbrs, _ := g.Row(0)
	grow(g)
	_ = nbrs // want `used after a call that can relocate`
}

// crossPackage consumes the facts exported by the bounds fake: both the
// borrow and the growth cross a package boundary.
func crossPackage(g *pgraph.Graph) {
	nbrs := bounds.Adjacency(g, 0)
	bounds.Rebuild(g)
	_ = nbrs // want `used after a call that can relocate`
}
