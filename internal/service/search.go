package service

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"metricprox/internal/core"
	"metricprox/internal/nsw"
	"metricprox/internal/service/api"
)

// handleSearch answers an approximate-kNN query over the session's
// navigable search graph, building the graph on the first call (lazily,
// once — concurrent first searches serialise on the session's searchMu
// and only one pays). Audited Dist* endpoint: neighbour distances are
// raw oracle values by design.
//
// Accepts the POST/JSON body of api.SearchRequest or the equivalent GET
// query parameters. Build-time parameters (m, ef_construction, seed)
// are fixed by whichever request builds first; a later request naming
// different ones is refused with 409/conflict rather than silently
// served from a graph it did not ask for.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request, entry *core.SessionEntry) {
	var req api.SearchRequest
	if r.Method == http.MethodGet {
		if !decodeSearchQuery(w, r, &req) {
			return
		}
	} else if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	if req.Q < 0 || req.Q >= s.n {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Sprintf("query %d out of range [0,%d)", req.Q, s.n))
		return
	}
	if req.K < 1 {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Sprintf("k=%d, want >= 1", req.K))
		return
	}
	st := entry.Data.(*sessionState)
	// The graph is always seeded from the session's own landmarks: their
	// distance rows were resolved by bootstrap, so the seeding is free for
	// the session's IF and the build matches an in-process one over the
	// same landmarks.
	want := nsw.Params{M: req.M, EfConstruction: req.EfConstruction, Seed: req.Seed, Landmarks: st.lms}
	if want.Seed == 0 {
		want.Seed = st.seed
	}
	want = want.WithDefaults()

	g, built, err := s.searchGraph(entry, st, want)
	if err != nil {
		var conflict *graphConflictError
		if errors.As(err, &conflict) {
			writeError(w, http.StatusConflict, api.CodeConflict, conflict.Error())
			return
		}
		writeFailure(w, err)
		return
	}

	ef := req.EfSearch
	if ef <= 0 {
		ef = nsw.DefaultEfConstruction
	}
	if ef < req.K {
		ef = req.K
	}
	res, err := g.Search(entry.Session, req.Q, req.K, ef)
	if err != nil {
		writeFailure(w, err)
		return
	}
	s.met.searchQueries.Inc()
	neighbors := make([]api.WireNeighbor, len(res))
	for i, nb := range res {
		neighbors[i] = api.WireNeighbor{ID: nb.ID, D: api.WireFloat(nb.Dist)}
	}
	writeJSON(w, api.SearchResponse{Neighbors: neighbors, EfSearch: ef, Built: built})
}

// graphConflictError reports a /search whose build parameters contradict
// the session's already-built graph.
type graphConflictError struct{ have, want nsw.Params }

func (e *graphConflictError) Error() string {
	return fmt.Sprintf("search graph built with m=%d ef_construction=%d seed=%d; request wants m=%d ef_construction=%d seed=%d",
		e.have.M, e.have.EfConstruction, e.have.Seed, e.want.M, e.want.EfConstruction, e.want.Seed)
}

// searchGraph returns the session's search graph, building it on first
// use. A failed (aborted) build is not cached: its committed prefix is a
// degraded index, and serving it silently would turn an outage into
// wrong answers — the next request retries the build instead.
func (s *Server) searchGraph(entry *core.SessionEntry, st *sessionState, want nsw.Params) (*nsw.Graph, bool, error) {
	st.searchMu.Lock()
	defer st.searchMu.Unlock()
	if st.graph != nil {
		if !st.graphParams.Equal(want) {
			return nil, false, &graphConflictError{have: st.graphParams, want: want}
		}
		return st.graph, false, nil
	}
	start := time.Now()
	g, err := nsw.Build(entry.Session, want)
	if err != nil {
		return nil, false, err
	}
	s.met.searchBuild.Observe(time.Since(start).Nanoseconds())
	s.met.searchBuilds.Inc()
	st.graph, st.graphParams = g, want
	s.logf("service: session %q built search graph (m=%d efc=%d seed=%d, %d nodes, %d edges)",
		entry.Name, want.M, want.EfConstruction, want.Seed, g.Inserted(), g.Edges())
	return g, true, nil
}

// decodeSearchQuery parses the GET form of a search request — the
// api.SearchRequest fields as URL query parameters — writing a 400 and
// returning false on any malformed value.
func decodeSearchQuery(w http.ResponseWriter, r *http.Request, req *api.SearchRequest) bool {
	q := r.URL.Query()
	intParam := func(key string, dst *int) bool {
		v := q.Get(key)
		if v == "" {
			return true
		}
		x, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest,
				fmt.Sprintf("query parameter %s=%q: not an integer", key, v))
			return false
		}
		*dst = x
		return true
	}
	if !intParam("q", &req.Q) || !intParam("k", &req.K) ||
		!intParam("ef_search", &req.EfSearch) || !intParam("m", &req.M) ||
		!intParam("ef_construction", &req.EfConstruction) {
		return false
	}
	if v := q.Get("seed"); v != "" {
		x, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest,
				fmt.Sprintf("query parameter seed=%q: not an integer", v))
			return false
		}
		req.Seed = x
	}
	return true
}
