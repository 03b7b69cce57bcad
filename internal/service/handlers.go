package service

import (
	"errors"
	"fmt"
	"net/http"

	"metricprox/internal/cachestore"
	"metricprox/internal/cluster"
	"metricprox/internal/core"
	"metricprox/internal/metric"
	"metricprox/internal/prox"
	"metricprox/internal/service/api"
)

// handleHealthz answers liveness probes; it stays mounted during drain so
// orchestrators can watch the daemon go down cleanly.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, api.Healthz{Status: status, N: s.n, Sessions: len(s.reg.Names())})
}

// handleCreate creates a named session or idempotently attaches to an
// existing one; attaching with contradictory parameters is a 409.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req api.CreateSessionRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	if !validName(req.Name) {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Sprintf("invalid session name %q (want [A-Za-z0-9._-]+, no leading dot)", req.Name))
		return
	}
	scheme, err := core.ParseScheme(req.Scheme)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	lmCount := s.landmarkCount(req.Landmarks)
	slack := core.SlackPolicy{
		Additive: float64(req.SlackEps),
		Ratio:    float64(req.SlackRatio),
		Auto:     req.SlackAuto,
	}
	// Validate the slack/scheme combination up front: the core options
	// panic on bad combinations, and a client mistake must be a 400, not a
	// daemon crash.
	if err := core.SlackSupported(slack, scheme); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}

	entry, created, err := s.reg.GetOrCreate(req.Name, func() (*core.Session, any, error) {
		return s.buildSession(req.Name, scheme, lmCount, req.Seed, req.Bootstrap, slack, req.Audit)
	})
	switch {
	case errors.Is(err, core.ErrTooManySessions):
		writeError(w, http.StatusServiceUnavailable, api.CodeTooManySessions, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	st := entry.Data.(*sessionState)
	if !created && (st.scheme != scheme || st.landmarks != lmCount || st.seed != req.Seed ||
		st.slack != slack || st.audit != req.Audit) {
		writeError(w, http.StatusConflict, api.CodeConflict,
			fmt.Sprintf("session %q exists with scheme=%v landmarks=%d seed=%d slack=%+v audit=%v",
				entry.Name, st.scheme, st.landmarks, st.seed, st.slack, st.audit))
		return
	}
	s.met.sessions.Set(float64(s.reg.Len()))
	writeJSON(w, api.SessionInfo{
		Name:        entry.Name,
		Scheme:      st.scheme.String(),
		N:           s.n,
		MaxDistance: api.WireFloat(entry.Session.MaxDistance()),
		Created:     created,
	})
}

// buildSession is the registry build callback: session, optional
// persistent cache (replayed for warm starts), then optional bootstrap.
func (s *Server) buildSession(name string, scheme core.Scheme, lmCount int, seed int64, bootstrap bool, slack core.SlackPolicy, audit bool) (*core.Session, any, error) {
	var opts []core.Option
	if s.cfg.MaxDistance > 0 {
		opts = append(opts, core.WithMaxDistance(s.cfg.MaxDistance))
	}
	if slack.Active() {
		opts = append(opts, core.WithSlack(slack))
	}
	if audit && !slack.Auto { // Auto already attaches its own auditor
		opts = append(opts, core.WithAuditor(metric.NewAuditor(0)))
	}
	lms := core.PickLandmarks(s.n, lmCount, seed)
	sess := core.NewFallibleSessionWithLandmarks(s.cfg.Oracle, scheme, lms, opts...)

	st := &sessionState{
		sem:       make(chan struct{}, s.queue),
		scheme:    scheme,
		landmarks: lmCount,
		lms:       lms,
		seed:      seed,
		slack:     slack,
		audit:     audit,
	}
	if path := s.cachePath(name); path != "" {
		// In cluster mode, prefer adopting this node's replica store over
		// re-opening the path: the replica stream may still be appending
		// through that handle, and adoption atomically halts it (further
		// repl appends answer 409) before the session takes ownership.
		store := s.repl.adopt(name)
		if store == nil {
			var err error
			store, err = cachestore.OpenOrCreate(path, s.n)
			if err != nil {
				return nil, nil, fmt.Errorf("open session cache: %w", err)
			}
		} else {
			s.met.replSessions.Set(float64(s.repl.count()))
		}
		if err := sess.AttachStore(store); err != nil {
			store.Close()
			s.repl.forget(name) // a failed adoption must not leave a tombstone
			return nil, nil, fmt.Errorf("replay session cache: %w", err)
		}
		st.store = store
	}
	if bootstrap && scheme != core.SchemeNoop {
		if _, err := sess.BootstrapErr(lms); err != nil {
			// Partial bootstrap is sound (bounds stay conservative);
			// log and serve rather than refusing the session.
			s.logf("service: session %q bootstrap aborted, continuing with partial bounds: %v", name, err)
		}
	}
	if s.clusterEnabled() && st.store != nil {
		meta := s.replMeta(scheme, lmCount, seed, bootstrap, slack, audit)
		if err := cluster.SaveMeta(s.cfg.CacheDir, name, meta); err != nil {
			s.logf("service: session %q: writing meta sidecar: %v", name, err)
		}
		if s.cfg.Replicator != nil {
			s.cfg.Replicator.Track(name, st.store, meta)
		}
	}
	return sess, st, nil
}

// handleList lists live sessions.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, api.SessionList{Sessions: s.sortedNames()})
}

// handleStats snapshots one session's core.Stats. Like the work
// endpoints it promotes a replicated session on a miss, so any request —
// including a bare stats probe — brings a failed-over session up.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	entry := s.reg.Acquire(r.PathValue("name"))
	if entry == nil {
		entry = s.promote(r.PathValue("name"))
	}
	if entry == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf("no session %q", r.PathValue("name")))
		return
	}
	defer s.reg.Release(entry)
	st := entry.Session.Stats()
	writeJSON(w, api.StatsResponse{
		OracleCalls:         st.OracleCalls,
		BootstrapCalls:      st.BootstrapCalls,
		BoundProbes:         st.BoundProbes,
		SavedComparisons:    st.SavedComparisons,
		ResolvedComparisons: st.ResolvedComparisons,
		CacheHits:           st.CacheHits,
		Retries:             st.Retries,
		Timeouts:            st.Timeouts,
		BreakerOpens:        st.BreakerOpens,
		DegradedAnswers:     st.DegradedAnswers,
		StoreErrors:         st.StoreErrors,
		SlackResolved:       st.SlackResolved,
		Violations:          st.Violations,
	})
}

// handleDelete evicts a session, closing its cache store.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.Evict(name) {
		writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf("no session %q", name))
		return
	}
	writeJSON(w, map[string]string{"deleted": name})
}

// checkPair validates one (i, j) index pair against the universe.
func (s *Server) checkPair(i, j int) error {
	if i < 0 || i >= s.n || j < 0 || j >= s.n {
		return badRequest(fmt.Sprintf("pair (%d,%d) out of range [0,%d)", i, j, s.n))
	}
	if i == j {
		return badRequest(fmt.Sprintf("pair (%d,%d): self-distances are not mediated", i, j))
	}
	return nil
}

// badRequest is an error the request itself made: an invalid pair or an
// unknown op.
type badRequest string

func (e badRequest) Error() string { return string(e) }

// errStatus maps an op or session error onto the wire: 400 bad_request
// for a badRequest, 502 oracle_unavailable when the resilient policy gave
// up, 500 internal otherwise. The server never degrades an answer to an
// estimate — that decision belongs to the client, which knows whether its
// caller can tolerate it. A type assertion recognises badRequest (the
// executor returns it unwrapped); errors.As would move its target to the
// heap.
func errStatus(err error) (int, string) {
	if _, ok := err.(badRequest); ok {
		return http.StatusBadRequest, api.CodeBadRequest
	}
	if errors.Is(err, core.ErrOracleUnavailable) {
		return http.StatusBadGateway, api.CodeOracleUnavailable
	}
	return http.StatusInternalServerError, api.CodeInternal
}

// writeFailure writes err as the JSON error envelope with the status and
// code errStatus gives it.
func writeFailure(w http.ResponseWriter, err error) {
	status, code := errStatus(err)
	writeError(w, status, code, err.Error())
}

// handleDistOp runs one primitive op against the session: the only
// implementation behind the five scalar endpoints and every /batch op,
// so a scalar call and the same op inside a batch cannot answer
// differently. Audited Dist* executor: dist and distifless results carry
// raw oracle values; each scalar endpoint ships only its own contract's
// fields of the result (one bit for less/lessthan, an interval for
// bounds). On error res is left as it was.
func (s *Server) handleDistOp(sess *core.Session, op *api.BatchOp, res *api.BatchResult) error {
	if err := s.checkPair(op.I, op.J); err != nil {
		return err
	}
	switch op.Op {
	case api.OpDist:
		d, err := sess.DistErr(op.I, op.J)
		if err != nil {
			return err
		}
		res.D = api.WireFloat(d)
	case api.OpLess:
		if err := s.checkPair(op.K, op.L); err != nil {
			return err
		}
		less, err := sess.LessErr(op.I, op.J, op.K, op.L)
		if err != nil {
			return err
		}
		res.Less = less
	case api.OpLessThan:
		less, err := sess.LessThanErr(op.I, op.J, float64(op.C))
		if err != nil {
			return err
		}
		res.Less = less
	case api.OpDistIfLess:
		_, less, err := sess.DistIfLessErr(op.I, op.J, float64(op.C))
		if err != nil {
			return err
		}
		res.Less = less
		// D ships from the exact store only: a less answer always resolved
		// the pair, and a not-less one ships the distance when the pair
		// is resolved, so the client need not ask /dist for it later.
		if d, ok := sess.Known(op.I, op.J); ok {
			res.D, res.Exact = api.WireFloat(d), true
		}
	case api.OpBounds:
		// Never an oracle call; lb == ub exactly when the pair is resolved.
		lb, ub := sess.Bounds(op.I, op.J)
		res.LB, res.UB = api.WireFloat(lb), api.WireFloat(ub)
		// Eps is read after Bounds so it is ≥ the slack actually applied (an
		// auto policy can only grow it); the client's escalation detection
		// needs that ordering, not exactness.
		res.Eps = api.WireFloat(sess.SlackEps())
	default:
		return badRequest(fmt.Sprintf("unknown op %q", op.Op))
	}
	return nil
}

// serveOp is a scalar primitive endpoint: it decodes the endpoint's
// request type, runs it as an op through handleDistOp, and writes the
// endpoint's response type from the result.
func serveOp[Req, Resp any](s *Server, w http.ResponseWriter, r *http.Request, entry *core.SessionEntry,
	toOp func(Req) api.BatchOp, toResp func(api.BatchResult) Resp) {
	var req Req
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	op := toOp(req)
	var res api.BatchResult
	if err := s.handleDistOp(entry.Session, &op, &res); err != nil {
		writeFailure(w, err)
		return
	}
	writeJSON(w, toResp(res))
}

// handleDist resolves one exact distance.
func (s *Server) handleDist(w http.ResponseWriter, r *http.Request, entry *core.SessionEntry) {
	serveOp(s, w, r, entry,
		func(q api.PairRequest) api.BatchOp { return api.BatchOp{Op: api.OpDist, I: q.I, J: q.J} },
		func(res api.BatchResult) api.DistResponse { return api.DistResponse{D: res.D} })
}

// handleLess answers dist(i,j) < dist(k,l) — one bit, no distances.
func (s *Server) handleLess(w http.ResponseWriter, r *http.Request, entry *core.SessionEntry) {
	serveOp(s, w, r, entry,
		func(q api.LessRequest) api.BatchOp {
			return api.BatchOp{Op: api.OpLess, I: q.I, J: q.J, K: q.K, L: q.L}
		},
		func(res api.BatchResult) api.LessResponse { return api.LessResponse{Less: res.Less} })
}

// handleLessThan answers dist(i,j) < c — one bit, no distances.
func (s *Server) handleLessThan(w http.ResponseWriter, r *http.Request, entry *core.SessionEntry) {
	serveOp(s, w, r, entry,
		func(q api.LessThanRequest) api.BatchOp {
			return api.BatchOp{Op: api.OpLessThan, I: q.I, J: q.J, C: q.C}
		},
		func(res api.BatchResult) api.LessResponse { return api.LessResponse{Less: res.Less} })
}

// handleDistIfLess conditionally resolves a distance; D is a raw oracle
// value when Exact.
func (s *Server) handleDistIfLess(w http.ResponseWriter, r *http.Request, entry *core.SessionEntry) {
	serveOp(s, w, r, entry,
		func(q api.DistIfLessRequest) api.BatchOp {
			return api.BatchOp{Op: api.OpDistIfLess, I: q.I, J: q.J, C: q.C}
		},
		func(res api.BatchResult) api.DistIfLessResponse {
			return api.DistIfLessResponse{Less: res.Less, D: res.D, Exact: res.Exact}
		})
}

// handleBounds reads the current bounds of a pair — the weak oracle's
// public face (DESIGN.md §10).
func (s *Server) handleBounds(w http.ResponseWriter, r *http.Request, entry *core.SessionEntry) {
	serveOp(s, w, r, entry,
		func(q api.PairRequest) api.BatchOp { return api.BatchOp{Op: api.OpBounds, I: q.I, J: q.J} },
		func(res api.BatchResult) api.BoundsResponse {
			return api.BoundsResponse{LB: res.LB, UB: res.UB, Eps: res.Eps}
		})
}

// handleBootstrap resolves landmark rows up front.
func (s *Server) handleBootstrap(w http.ResponseWriter, r *http.Request, entry *core.SessionEntry) {
	var req api.BootstrapRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	for _, l := range req.Landmarks {
		if l < 0 || l >= s.n {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest,
				fmt.Sprintf("landmark %d out of range [0,%d)", l, s.n))
			return
		}
	}
	calls, err := entry.Session.BootstrapErr(req.Landmarks)
	if err != nil {
		writeFailure(w, err)
		return
	}
	writeJSON(w, api.BootstrapResponse{Calls: calls})
}

// handleDistBatch executes many primitive ops in one round-trip, each
// through handleDistOp, failing them independently via per-result error
// codes.
func (s *Server) handleDistBatch(w http.ResponseWriter, r *http.Request, entry *core.SessionEntry) {
	var req api.BatchRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	results := make([]api.BatchResult, len(req.Ops))
	for idx := 0; idx < len(req.Ops); idx++ {
		if req.Ops[idx].Op == api.OpBounds {
			// A bounds op never mutates session state, so a maximal
			// consecutive run of them answers identically whether served
			// one by one or in a single BoundsBatch sweep — and the sweep
			// takes one lock acquisition and one pass over the bound
			// scheme's state for the whole run (the shape the client's
			// PrefetchBounds emits).
			end := idx + 1
			for end < len(req.Ops) && req.Ops[end].Op == api.OpBounds {
				end++
			}
			s.serveBoundsRun(entry.Session, req.Ops[idx:end], results[idx:end])
			idx = end - 1
			continue
		}
		if err := s.handleDistOp(entry.Session, &req.Ops[idx], &results[idx]); err != nil {
			_, results[idx].Err = errStatus(err)
		}
	}
	writeJSON(w, api.BatchResponse{Results: results})
}

// serveBoundsRun answers a consecutive run of bounds ops with one
// BoundsBatch call. Ops with invalid pairs fail individually with
// CodeBadRequest, exactly as the scalar path would, and do not join the
// batch.
func (s *Server) serveBoundsRun(sess *core.Session, ops []api.BatchOp, results []api.BatchResult) {
	is := make([]int, 0, len(ops))
	js := make([]int, 0, len(ops))
	slots := make([]int, 0, len(ops))
	for x, op := range ops {
		if err := s.checkPair(op.I, op.J); err != nil {
			results[x].Err = api.CodeBadRequest
			continue
		}
		is = append(is, op.I)
		js = append(js, op.J)
		slots = append(slots, x)
	}
	if len(is) == 0 {
		return
	}
	lb := make([]float64, len(is))
	ub := make([]float64, len(is))
	sess.BoundsBatch(is, js, lb, ub)
	eps := api.WireFloat(sess.SlackEps()) // after the batch; see handleDistOp
	for q, x := range slots {
		results[x].LB, results[x].UB = api.WireFloat(lb[q]), api.WireFloat(ub[q])
		results[x].Eps = eps
	}
}

// requestView is the view one algorithm request runs its sequential
// builder over. Each comparison calls the hosted session's
// error-returning form, and the first failure stops the builder with a
// requestAbort panic that runRequest recovers. So a request fails on its
// own resolutions only: not on a failure an earlier request latched into
// the session's OracleErr, and never with an estimate in its answer.
// Bounds and BoundsBatch pass through, so kNN rows keep their one-sweep
// bound read.
type requestView struct{ *core.Session }

// requestAbort carries a resolution failure out of the builder.
type requestAbort struct{ err error }

func (v requestView) Dist(i, j int) float64 {
	//proxlint:allow oracleescape -- feeds the builder behind /knn, /mst and /medoid, whose whole-problem results are all those endpoints ship
	d, err := v.DistErr(i, j)
	abortOn(err)
	return d
}

func (v requestView) Less(i, j, k, l int) bool {
	less, err := v.LessErr(i, j, k, l)
	abortOn(err)
	return less
}

func (v requestView) LessThan(i, j int, c float64) bool {
	less, err := v.LessThanErr(i, j, c)
	abortOn(err)
	return less
}

func (v requestView) DistIfLess(i, j int, c float64) (float64, bool) {
	//proxlint:allow oracleescape -- feeds the builder behind /knn, /mst and /medoid, whose whole-problem results are all those endpoints ship
	d, less, err := v.DistIfLessErr(i, j, c)
	abortOn(err)
	return d, less
}

func abortOn(err error) {
	if err != nil {
		panic(requestAbort{err})
	}
}

// runRequest runs build over a requestView of sess and returns its
// result, or the resolution failure that stopped it.
func runRequest[T any](sess *core.Session, build func(core.View) T) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(requestAbort)
			if !ok {
				panic(r)
			}
			err = a.err
		}
	}()
	return build(requestView{sess}), nil
}

// handleKNN runs the kNN-graph builder server-side over a requestView:
// a resolution that fails during the build fails the request.
func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request, entry *core.SessionEntry) {
	var req api.KNNRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	if req.K < 1 {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Sprintf("k=%d, want >= 1", req.K))
		return
	}
	g, err := runRequest(entry.Session, func(v core.View) [][]prox.Neighbor { return prox.KNNGraph(v, req.K) })
	if err != nil {
		writeFailure(w, err)
		return
	}
	rows := make([][]api.WireNeighbor, len(g))
	for u, ns := range g {
		rows[u] = make([]api.WireNeighbor, len(ns))
		for i, nb := range ns {
			rows[u][i] = api.WireNeighbor{ID: nb.ID, D: api.WireFloat(nb.Dist)}
		}
	}
	writeJSON(w, api.KNNResponse{Rows: rows})
}

// handleMST runs Prim's MST server-side; it fails like handleKNN.
func (s *Server) handleMST(w http.ResponseWriter, r *http.Request, entry *core.SessionEntry) {
	m, err := runRequest(entry.Session, prox.PrimMST)
	if err != nil {
		writeFailure(w, err)
		return
	}
	edges := make([]api.WireEdge, len(m.Edges))
	for i, e := range m.Edges {
		edges[i] = api.WireEdge{U: e.U, V: e.V, W: api.WireFloat(e.W)}
	}
	writeJSON(w, api.MSTResponse{Edges: edges, Weight: api.WireFloat(m.Weight)})
}

// handleMedoid runs PAM server-side; it fails like handleKNN.
func (s *Server) handleMedoid(w http.ResponseWriter, r *http.Request, entry *core.SessionEntry) {
	var req api.MedoidRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	if req.L < 1 {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Sprintf("l=%d, want >= 1", req.L))
		return
	}
	c, err := runRequest(entry.Session, func(v core.View) prox.Clustering { return prox.PAM(v, req.L, req.Seed) })
	if err != nil {
		writeFailure(w, err)
		return
	}
	writeJSON(w, api.MedoidResponse{Medoids: c.Medoids, Assign: c.Assign, Cost: api.WireFloat(c.Cost)})
}
