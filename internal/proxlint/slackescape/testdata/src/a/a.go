package a

import (
	"metricprox/internal/cachestore"
	"metricprox/internal/core"
	"metricprox/internal/pgraph"
	"metricprox/internal/service/api"
)

// commitBound commits a relaxed interval endpoint: the "slack" fact on
// core.Session.Bounds crosses the package boundary, and the tuple
// assignment taints both endpoints.
func commitBound(s *core.Session, g *pgraph.Graph) {
	lb, ub := s.Bounds(1, 2)
	_ = lb
	g.AddEdge(1, 2, ub) // want `committed as a pgraph edge weight`
}

func cacheBound(s *core.Session, st *cachestore.Store) {
	lb, _ := s.Bounds(1, 2)
	st.Put(cachestore.Key(1, 2), lb) // want `written to cachestore`
}

// cacheBoundRecords writes relaxed endpoints through the bulk append:
// the taint rides the Record literal, directly or appended to a slice
// first.
func cacheBoundRecords(s *core.Session, st *cachestore.Store) {
	lb, ub := s.Bounds(1, 2)
	st.Append(cachestore.Record{I: 1, J: 2, Dist: lb}) // want `written to cachestore`
	held := []cachestore.Record{{I: 1, J: 2, Dist: 0.5}}
	held = append(held, cachestore.Record{I: 1, J: 2, Dist: ub})
	st.Append(held...) // want `written to cachestore`
}

func wireBound(s *core.Session) api.DistResponse {
	_, ub := s.Bounds(1, 2)
	return api.DistResponse{D: api.WireFloat(ub)} // want `converted to api.WireFloat`
}

// localRelax applies a local relaxation: the Relax method shape is the
// contract, wherever it lives.
type widen struct{}

func (widen) Relax(lb, ub, eps, maxDist float64) (float64, float64) {
	return lb - eps, ub + eps
}

func localRelax(g *pgraph.Graph) {
	var w widen
	lb, ub := w.Relax(0.2, 0.4, 0.1, 1)
	_ = ub
	g.AddEdge(0, 1, lb) // want `committed as a pgraph edge weight`
}

// upperBound earns a "slack" fact of its own by forwarding a relaxed
// endpoint.
func upperBound(s *core.Session) float64 {
	_, ub := s.Bounds(1, 2)
	return ub
}

func useWrapper(s *core.Session, st *cachestore.Store) {
	st.Put(cachestore.Key(1, 2), upperBound(s)) // want `written to cachestore`
}
