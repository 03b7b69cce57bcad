package a

import (
	"metricprox/internal/cachestore"
	"metricprox/internal/core"
	"metricprox/internal/pgraph"
	"metricprox/internal/service/api"
)

// commitEstimate commits a possibly-degraded Dist result: the "degraded"
// fact on core.Session.Dist crosses the package boundary.
func commitEstimate(s *core.Session, g *pgraph.Graph) {
	d := s.Dist(1, 2)
	g.AddEdge(1, 2, d) // want `committed as a pgraph edge weight`
}

func cacheEstimate(s *core.Session, st *cachestore.Store) {
	d := s.Dist(1, 2)
	st.Put(cachestore.Key(1, 2), d) // want `written to cachestore`
}

// cacheEstimateRecords writes estimates through the bulk append: the
// taint rides the Record literal, directly or appended to a slice first.
func cacheEstimateRecords(s *core.Session, st *cachestore.Store) {
	d := s.Dist(1, 2)
	st.Append(cachestore.Record{I: 1, J: 2, Dist: d}) // want `written to cachestore`
	var held []cachestore.Record
	held = append(held, cachestore.Record{I: 1, J: 2, Dist: s.Dist(1, 2)})
	st.Append(held...) // want `written to cachestore`
}

func wireEstimate(s *core.Session) api.DistResponse {
	d := s.Dist(1, 2)
	return api.DistResponse{D: api.WireFloat(d)} // want `converted to api.WireFloat`
}

// approx is a local estimator: the (int, int) float64 "estimate" method
// shape is the contract, wherever it lives.
type approx struct{}

func (approx) estimate(i, j int) float64 { return 0 }

func localEstimate(g *pgraph.Graph) {
	var a approx
	d := a.estimate(1, 2)
	g.AddEdge(0, 1, d) // want `committed as a pgraph edge weight`
}

// degradedWrapper earns a "degraded" fact of its own by forwarding Dist.
func degradedWrapper(s *core.Session) float64 { return s.Dist(1, 2) }

func useWrapper(s *core.Session, g *pgraph.Graph) {
	g.AddEdge(1, 2, degradedWrapper(s)) // want `committed as a pgraph edge weight`
}
