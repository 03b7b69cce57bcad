// Package pgraph is a shape-faithful fake of the partial graph's rows:
// Row borrows views of a row, AddEdge may shift or move the row.
package pgraph

// Graph is the proximity graph.
type Graph struct{ n int }

// New returns an empty graph on n points.
func New(n int) *Graph { return &Graph{n: n} }

// Row returns views of u's row, valid until the next AddEdge.
func (g *Graph) Row(u int) ([]int32, []float64) { return nil, nil }

// AddEdge inserts an edge and may shift or move the row.
func (g *Graph) AddEdge(i, j int, w float64) {}

// N reports the number of points.
func (g *Graph) N() int { return g.n }
