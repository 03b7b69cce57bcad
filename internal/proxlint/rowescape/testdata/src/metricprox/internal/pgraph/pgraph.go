// Package pgraph is a shape-faithful fake of the CSR adjacency store:
// Row borrows slab-aliasing slices, AddEdge may relocate the row.
package pgraph

// Graph is the proximity graph.
type Graph struct{ n int }

// New returns an empty graph on n points.
func New(n int) *Graph { return &Graph{n: n} }

// Row returns slices aliasing the CSR slab, valid until the next AddEdge.
func (g *Graph) Row(u int) ([]int32, []float64) { return nil, nil }

// AddEdge inserts an edge and may relocate the row.
func (g *Graph) AddEdge(i, j int, w float64) {}

// N reports the number of points.
func (g *Graph) N() int { return g.n }
