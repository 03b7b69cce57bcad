package a

import (
	"metricprox/internal/cachestore"
	"metricprox/internal/core"
	"metricprox/internal/pgraph"
	"metricprox/internal/service/api"
)

// commitResolved commits the exact DistErr resolution: slack never
// touches resolved values, so every sink is fine with the result.
func commitResolved(s *core.Session, g *pgraph.Graph, st *cachestore.Store) (api.DistResponse, error) {
	d, err := s.DistErr(1, 2)
	if err != nil {
		return api.DistResponse{}, err
	}
	g.AddEdge(1, 2, d)
	st.Put(cachestore.Key(1, 2), d)
	st.Append(cachestore.Record{I: 1, J: 2, Dist: d})
	return api.DistResponse{D: api.WireFloat(d)}, nil
}

// pruneThenCommit uses the relaxed interval only for the pruning
// decision — the whole point of slack mode — and commits the resolved
// value.
func pruneThenCommit(s *core.Session, g *pgraph.Graph) error {
	lb, ub := s.Bounds(1, 2)
	if ub-lb < 0.5 {
		return nil
	}
	d, err := s.DistErr(1, 2)
	if err != nil {
		return err
	}
	g.AddEdge(1, 2, d)
	return nil
}
