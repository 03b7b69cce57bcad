package prox_test

import (
	"fmt"

	"metricprox/internal/core"
	"metricprox/internal/metric"
	"metricprox/internal/prox"
)

// lineOracle returns an oracle over five points on a line at positions
// 0.0, 0.1, 0.2, 0.6, 0.7 (scaled L1, so distances are position gaps).
func lineOracle() *metric.Oracle {
	pts := [][]float64{{0.0}, {0.1}, {0.2}, {0.6}, {0.7}}
	return metric.NewOracle(metric.NewVectors(pts, 1, 1))
}

// ExamplePrimMST builds a minimum spanning tree through the Tri Scheme.
func ExamplePrimMST() {
	s := core.NewSession(lineOracle(), core.SchemeTri)
	mst := prox.PrimMST(s)
	fmt.Printf("weight %.1f over %d edges\n", mst.Weight, len(mst.Edges))
	// Output:
	// weight 0.7 over 4 edges
}

// ExampleKNNGraph builds the 2-nearest-neighbour graph.
func ExampleKNNGraph() {
	s := core.NewSession(lineOracle(), core.SchemeTri)
	g := prox.KNNGraph(s, 2)
	fmt.Printf("neighbours of point 0: #%d and #%d\n", g[0][0].ID, g[0][1].ID)
	fmt.Printf("neighbours of point 3: #%d and #%d\n", g[3][0].ID, g[3][1].ID)
	// Output:
	// neighbours of point 0: #1 and #2
	// neighbours of point 3: #4 and #2
}

// ExampleKNNRow answers one nearest-neighbour query.
func ExampleKNNRow() {
	s := core.NewSession(lineOracle(), core.SchemeTri)
	for _, nb := range prox.KNNRow(s, 0, 2) {
		fmt.Printf("#%d at %.1f\n", nb.ID, nb.Dist)
	}
	// Output:
	// #1 at 0.1
	// #2 at 0.2
}

// ExampleSingleLinkage cuts a dendrogram into the two obvious clusters.
func ExampleSingleLinkage() {
	s := core.NewSession(lineOracle(), core.SchemeTri)
	d := prox.SingleLinkage(s)
	labels := d.CutAt(0.2) // gaps of 0.1 merge; the 0.4 gap does not
	fmt.Println("labels:", labels)
	fmt.Println("clusters:", d.Clusters(0.2))
	// Output:
	// labels: [0 0 0 1 1]
	// clusters: 2
}
