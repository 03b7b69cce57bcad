// Package pgraph implements the partial distance graph of Section 3.1 of
// the paper: a weighted complete graph over n objects in which only a
// subset of the edges (the distances resolved so far by the oracle) are
// known. It is the shared data model of every bound-computation scheme.
//
// Each node owns its adjacency row (see csr.go): a sorted slice of
// neighbour ids and a parallel slice of weights, moved to fresh slices
// of twice the length when full, serving the Tri Scheme's intersection
// and SPLUB's Dijkstra relaxation allocation-free. The rows are the only
// edge store: an exact lookup binary-searches the shorter of the two
// rows, and SPLUB's "scan all known edges" step walks each row's tail of
// larger neighbour ids, so every resolved distance is held once, in its
// two row cells.
//
// The graph is strictly append-only: a resolved distance is a fact, so
// edges are added and never removed or reweighted, which is what makes
// bound caching in the schemes above sound ("bounds only tighten").
package pgraph
