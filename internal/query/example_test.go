package query_test

import (
	"fmt"

	"metricprox/internal/core"
	"metricprox/internal/metric"
	"metricprox/internal/query"
)

// ExampleRange answers a radius query.
func ExampleRange() {
	pts := [][]float64{{0.0}, {0.1}, {0.2}, {0.6}, {0.7}}
	oracle := metric.NewOracle(metric.NewVectors(pts, 1, 1))
	s := core.NewSession(oracle, core.SchemeTri)

	for _, r := range query.Range(s, 3, 0.15) {
		fmt.Printf("#%d at %.1f\n", r.ID, r.Dist)
	}
	// Output:
	// #4 at 0.1
}
