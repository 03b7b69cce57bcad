package a

import (
	"metricprox/internal/cachestore"
	"metricprox/internal/core"
	"metricprox/internal/pgraph"
	"metricprox/internal/service/api"
)

// commitResolved uses the error-propagating DistErr, which never
// degrades: every sink is fine with its result.
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

// overwritten estimates for a heuristic decision but commits only the
// resolved value.
func overwritten(s *core.Session, g *pgraph.Graph) error {
	d := s.Dist(1, 2)
	if d > 0.5 {
		resolved, err := s.DistErr(1, 2)
		if err != nil {
			return err
		}
		d = resolved
		g.AddEdge(1, 2, d)
	}
	return nil
}
