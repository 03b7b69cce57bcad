package service

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"sync"

	"metricprox/internal/cachestore"
	"metricprox/internal/cluster"
	"metricprox/internal/core"
	"metricprox/internal/service/api"
)

// replState is this node's replica of one session hosted elsewhere: an
// open cachestore receiving the primary's append stream, plus the
// creation parameters needed to promote it into a live session.
type replState struct {
	store *cachestore.Store
	meta  api.ReplMeta
	// promoted is the single-ownership tombstone: the store was adopted by
	// a live local session (failover promotion, or a client create landing
	// here), so further append batches are refused with 409 repl_conflict —
	// two writers on one log would fork it. Cleared when the session is
	// evicted and the store closed, at which point replication may resume
	// from the file.
	promoted bool
}

// replManager owns every replica store on this node. All transitions —
// open, append, adopt-for-promotion, forget — happen under one mutex, so
// exactly one of {replication stream, live session} can own a store file
// at any moment.
type replManager struct {
	mu     sync.Mutex
	states map[string]*replState
}

// peek returns the session's replica meta when a promotable (non-adopted)
// replica exists.
func (m *replManager) peek(name string) (api.ReplMeta, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.states[name]
	if !ok || st.promoted {
		return api.ReplMeta{}, false
	}
	return st.meta, true
}

// adopt hands the session's replica store to a live session being built,
// marking the tombstone. Returns nil when no adoptable replica exists.
func (m *replManager) adopt(name string) *cachestore.Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.states[name]
	if !ok || st.promoted {
		return nil
	}
	st.promoted = true
	store := st.store
	st.store = nil
	return store
}

// forget clears the session's tombstone after the adopting session was
// evicted (its store is closed); a still-open un-adopted replica store is
// closed. Replication for the name can start afresh from the file.
func (m *replManager) forget(name string) {
	m.mu.Lock()
	st, ok := m.states[name]
	delete(m.states, name)
	m.mu.Unlock()
	if ok && st.store != nil {
		st.store.Close()
	}
}

// closeAll closes every un-adopted replica store; part of Server.Close.
func (m *replManager) closeAll() {
	m.mu.Lock()
	states := m.states
	m.states = make(map[string]*replState)
	m.mu.Unlock()
	for _, st := range states {
		if st.store != nil {
			st.store.Close()
		}
	}
}

// count returns the number of live (un-adopted) replica states.
func (m *replManager) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, st := range m.states {
		if !st.promoted {
			n++
		}
	}
	return n
}

// clusterEnabled reports whether this node participates in a cluster (it
// then must have a cache dir: the store file is the replication medium).
func (s *Server) clusterEnabled() bool {
	return s.cfg.Cluster != nil && s.cfg.CacheDir != ""
}

// replMeta renders a session's creation parameters as wire meta.
func (s *Server) replMeta(scheme core.Scheme, lmCount int, seed int64, bootstrap bool, slack core.SlackPolicy, audit bool) api.ReplMeta {
	return api.ReplMeta{
		Scheme:     scheme.String(),
		Landmarks:  lmCount,
		Seed:       seed,
		Bootstrap:  bootstrap,
		SlackEps:   api.WireFloat(slack.Additive),
		SlackRatio: api.WireFloat(slack.Ratio),
		SlackAuto:  slack.Auto,
		Audit:      audit,
		N:          s.n,
	}
}

// handleReplAppend is POST /v1/repl/{name}: apply a sequence-numbered
// batch of replicated resolutions to this node's replica store for the
// session. Idempotent and resumable: the response always carries the
// replica's post-append cursor, and the sender adopts it — including
// rewinding after this replica lost a suffix to a crash. An empty batch
// is a cursor probe. A batch with a malformed record (a pair outside the
// universe or a self pair, a NaN or negative distance) is refused whole
// with 400 bad_request. Refused with 409 repl_conflict while a live local
// session owns the log.
func (s *Server) handleReplAppend(w http.ResponseWriter, r *http.Request) {
	if !s.clusterEnabled() {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "node is not a cluster member (no -cluster/-cache-dir)")
		return
	}
	name := r.PathValue("name")
	if !validName(name) {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Sprintf("invalid session name %q", name))
		return
	}
	var req api.ReplAppendRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	if req.Meta.N != s.n {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest,
			fmt.Sprintf("universe mismatch: sender has n=%d, this node n=%d", req.Meta.N, s.n))
		return
	}
	if req.From < 0 {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Sprintf("negative cursor %d", req.From))
		return
	}
	// Every record is checked before the store is opened: AppendFrom
	// stops at the first record the store rejects, after the ones before
	// it have landed and moved the cursor.
	recs := make([]cachestore.Record, len(req.Records))
	for i, rr := range req.Records {
		d := float64(rr.D)
		if err := s.checkPair(rr.I, rr.J); err != nil {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Sprintf("record %d: %v", i, err))
			return
		}
		if math.IsNaN(d) || d < 0 {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Sprintf("record %d: invalid distance %v", i, d))
			return
		}
		recs[i] = cachestore.Record{I: rr.I, J: rr.J, Dist: d}
	}

	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	st, ok := s.repl.states[name]
	if ok && st.promoted {
		writeError(w, http.StatusConflict, api.CodeReplConflict,
			fmt.Sprintf("session %q is hosted live on this node", name))
		return
	}
	if !ok {
		// The registry check sits behind the repl mutex so a concurrent
		// create (which adopts under the same mutex) cannot interleave.
		if s.reg.Get(name) != nil {
			writeError(w, http.StatusConflict, api.CodeReplConflict,
				fmt.Sprintf("session %q is hosted live on this node", name))
			return
		}
		store, err := cachestore.OpenOrCreate(s.cachePath(name), s.n)
		if err != nil {
			writeError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
			return
		}
		if err := cluster.SaveMeta(s.cfg.CacheDir, name, req.Meta); err != nil {
			store.Close()
			writeError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
			return
		}
		st = &replState{store: store, meta: req.Meta}
		s.repl.states[name] = st
		s.met.replSessions.Set(float64(len(s.repl.states)))
	}

	before, err := st.store.LastSeq()
	if err != nil {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	seq, err := st.store.AppendFrom(req.From, recs)
	switch {
	case errors.Is(err, cachestore.ErrSeqGap):
		// Not an error on the wire: the cursor in the response tells the
		// sender where to rewind to.
	case err != nil:
		writeError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return
	}
	if seq > before {
		s.met.replReceived.Add(seq - before)
	}
	writeJSON(w, api.ReplAppendResponse{Seq: seq})
}

// handleReplStatus is GET /v1/repl/{name}: the replica's cursor and
// promotion state — handoff verification and smoke tests, never the hot
// path.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	if !s.clusterEnabled() {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "node is not a cluster member")
		return
	}
	name := r.PathValue("name")
	s.repl.mu.Lock()
	st, ok := s.repl.states[name]
	var resp api.ReplStatusResponse
	if ok && !st.promoted {
		seq, err := st.store.LastSeq()
		s.repl.mu.Unlock()
		if err != nil {
			writeError(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
			return
		}
		resp.Seq = seq
		writeJSON(w, resp)
		return
	}
	s.repl.mu.Unlock()
	// Promoted, or hosted live without ever having been a replica.
	if entry := s.reg.Acquire(name); entry != nil {
		defer s.reg.Release(entry)
		resp.Promoted = true
		if sst, ok := entry.Data.(*sessionState); ok && sst.store != nil {
			if seq, err := sst.store.LastSeq(); err == nil {
				resp.Seq = seq
			}
		}
		writeJSON(w, resp)
		return
	}
	writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf("no replica state for %q", name))
}

// promote builds a live session from replicated state — the failover
// moment: a request for a session this node does not host arrives (the
// router fell through to us because the primary died), and this node
// holds the session's bound-state log plus its creation parameters. The
// rebuilt session replays the log's strictly-sound prefix, so every
// distance the dead primary resolved and managed to stream is free again;
// only the unreplicated tail is re-paid at the oracle.
//
// Returns an Acquired entry (the caller Releases it), or nil when this
// node holds nothing promotable under the name.
func (s *Server) promote(name string) *core.SessionEntry {
	if !s.clusterEnabled() || !validName(name) {
		return nil
	}
	meta, ok := s.repl.peek(name)
	if !ok {
		// Cold path: a restart dropped the in-memory state, but the replica
		// store and its meta sidecar survive on disk. Only promote names
		// with both artifacts — an absent store would build an empty, cold
		// session and mask a routing bug as a silent slow start.
		m, found, err := cluster.LoadMeta(s.cfg.CacheDir, name)
		if err != nil || !found {
			return nil
		}
		if _, err := os.Stat(s.cachePath(name)); err != nil {
			return nil
		}
		meta = m
	}
	scheme, err := core.ParseScheme(meta.Scheme)
	if err != nil {
		s.logf("service: promote %q: bad replicated scheme: %v", name, err)
		return nil
	}
	slack := core.SlackPolicy{
		Additive: float64(meta.SlackEps),
		Ratio:    float64(meta.SlackRatio),
		Auto:     meta.SlackAuto,
	}
	if err := core.SlackSupported(slack, scheme); err != nil {
		s.logf("service: promote %q: replicated slack unsupported: %v", name, err)
		return nil
	}
	_, created, err := s.reg.GetOrCreate(name, func() (*core.SharedSession, any, error) {
		return s.buildSession(name, scheme, meta.Landmarks, meta.Seed, meta.Bootstrap, slack, meta.Audit)
	})
	if err != nil {
		s.logf("service: promote %q: %v", name, err)
		return nil
	}
	if created {
		s.met.promotions.Inc()
		s.met.sessions.Set(float64(s.reg.Len()))
		s.logf("service: promoted replica of session %q to live (failover)", name)
	}
	return s.reg.Acquire(name)
}
