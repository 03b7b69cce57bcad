package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"metricprox/internal/cachestore"
	"metricprox/internal/cluster"
	"metricprox/internal/core"
	"metricprox/internal/metric"
	"metricprox/internal/nsw"
	"metricprox/internal/obs"
	"metricprox/internal/service/api"
)

// Config parameterises a Server. Oracle is the only required field.
type Config struct {
	// Oracle is the daemon's distance transport — typically a
	// resilient.Oracle wrapping the real (possibly flaky) space. It is
	// shared by every hosted session and must be safe for concurrent use.
	Oracle metric.FallibleOracle
	// MaxDistance overrides the sessions' a-priori distance cap when > 0.
	MaxDistance float64
	// MaxSessions caps the number of live sessions (0 = unlimited).
	MaxSessions int
	// SessionTTL evicts sessions idle this long (0 = never). The sweeper
	// runs at TTL/4 granularity.
	SessionTTL time.Duration
	// Queue is the per-session cap on concurrently executing work
	// requests; requests beyond it are shed with 503 + Retry-After.
	// 0 means DefaultQueue.
	Queue int
	// CacheDir, when non-empty, gives every session a persistent
	// cachestore at <CacheDir>/<name>.cache: resolutions are appended as
	// they happen and replayed on the next create of the same name, so a
	// daemon restart warm-starts instead of re-paying the oracle.
	CacheDir string
	// Cluster, when non-nil, makes this server a cluster member: it
	// accepts replicated bound state on /v1/repl/{name}, promotes replicas
	// to live sessions when requests for them arrive (failover), and
	// writes meta sidecars next to every store. Requires CacheDir — the
	// store file is the replication medium.
	Cluster *cluster.Topology
	// Replicator, when non-nil, streams every hosted session's store to
	// its replica owners: sessions are Tracked on build and Untracked on
	// eviction. The server does not own its lifecycle (the daemon starts,
	// flushes, and closes it around the HTTP drain).
	Replicator *cluster.Replicator
	// Registry receives the service metrics when non-nil.
	Registry *obs.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// DefaultQueue is the per-session admission cap when Config.Queue is 0.
const DefaultQueue = 64

// sessionState is the service-side payload attached to each registry
// entry via SessionEntry.Data: the admission semaphore plus the creation
// parameters used to detect conflicting re-creates, and the cache store
// to close on eviction.
type sessionState struct {
	sem       chan struct{} // admission slots; acquire non-blocking
	store     *cachestore.Store
	scheme    core.Scheme
	landmarks int
	lms       []int // the landmark IDs the session bootstrapped on
	seed      int64
	slack     core.SlackPolicy
	audit     bool

	// The session's navigable search graph (internal/nsw), built lazily by
	// the first successful /search and immutable afterwards; graphParams
	// records what it was built with so conflicting requests can be
	// refused. searchMu serialises the build — concurrent first searches
	// must not each pay for construction.
	searchMu    sync.Mutex
	graph       *nsw.Graph
	graphParams nsw.Params
}

// Server hosts the registry and implements the HTTP API. Create with New,
// mount Handler on a listener (metricproxd composes it with the obshttp
// exposition mux), and on shutdown call BeginDrain, drain the HTTP
// listener, then Close.
type Server struct {
	cfg      Config
	n        int
	queue    int
	reg      *core.SessionRegistry
	mux      *http.ServeMux
	met      *metrics
	repl     replManager
	inflight atomic.Int64
	draining atomic.Bool
	sweep    chan struct{} // closed by Close to stop the sweeper
	wg       sync.WaitGroup
}

// New builds a Server over cfg.Oracle. The universe size is taken from
// the oracle; it is fixed for the daemon's lifetime.
func New(cfg Config) (*Server, error) {
	if cfg.Oracle == nil {
		return nil, fmt.Errorf("service: Config.Oracle is required")
	}
	q := cfg.Queue
	if q <= 0 {
		q = DefaultQueue
	}
	if cfg.Cluster != nil && cfg.CacheDir == "" {
		return nil, fmt.Errorf("service: cluster mode requires CacheDir (the store file is the replication medium)")
	}
	s := &Server{
		cfg:   cfg,
		n:     cfg.Oracle.Len(),
		queue: q,
		met:   newMetrics(cfg.Registry),
		repl:  replManager{states: make(map[string]*replState)},
		sweep: make(chan struct{}),
	}
	s.reg = core.NewSessionRegistry(cfg.MaxSessions, cfg.SessionTTL, s.onEvict)
	s.routes()
	if cfg.SessionTTL > 0 {
		s.wg.Add(1)
		go s.sweeper()
	}
	return s, nil
}

// logf forwards to Config.Logf when set.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// onEvict flushes and closes an evicted session's cache store; it runs
// outside the registry lock. In cluster mode it also stops the session's
// replication stream first (so no pump cycle touches the closing store)
// and clears the promotion tombstone afterwards, making the name
// replicable again from the surviving file.
func (s *Server) onEvict(e *core.SessionEntry) {
	s.met.evictions.Inc()
	s.met.sessions.Set(float64(s.reg.Len()))
	if s.cfg.Replicator != nil {
		s.cfg.Replicator.Untrack(e.Name)
	}
	st, ok := e.Data.(*sessionState)
	if ok && st.store != nil {
		if err := st.store.Close(); err != nil {
			s.logf("service: closing cache of session %q: %v", e.Name, err)
		}
	}
	if s.clusterEnabled() {
		s.repl.forget(e.Name)
		s.met.replSessions.Set(float64(s.repl.count()))
	}
}

// sweeper evicts TTL-expired sessions in the background.
func (s *Server) sweeper() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SessionTTL / 4)
	defer t.Stop()
	for {
		select {
		case <-s.sweep:
			return
		case <-t.C:
			if names := s.reg.Sweep(); len(names) > 0 {
				s.logf("service: evicted idle sessions %v", names)
			}
		}
	}
}

// Handler returns the service's HTTP handler (all /v1/... routes plus
// /healthz).
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips the server into draining mode: every subsequent
// request is refused with 503/draining, while requests already executing
// finish normally (the HTTP server's Shutdown waits for those).
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close stops the TTL sweeper and evicts every session, flushing and
// closing their cache stores. Call after the HTTP listener has drained.
func (s *Server) Close() error {
	select {
	case <-s.sweep:
	default:
		close(s.sweep)
	}
	s.wg.Wait()
	n := s.reg.Clear()
	s.repl.closeAll()
	s.logf("service: closed %d sessions", n)
	return nil
}

// routes mounts every endpoint. Go 1.22 pattern syntax gives us method
// and path-variable matching without a router dependency.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/sessions", s.instrument("create", s.handleCreate))
	s.mux.HandleFunc("GET /v1/sessions", s.instrument("list", s.handleList))
	s.mux.HandleFunc("GET /v1/sessions/{name}", s.instrument("stats", s.handleStats))
	s.mux.HandleFunc("DELETE /v1/sessions/{name}", s.instrument("delete", s.handleDelete))
	work := func(endpoint string, h func(http.ResponseWriter, *http.Request, *core.SessionEntry)) http.HandlerFunc {
		return s.instrument(endpoint, s.admit(endpoint, h))
	}
	s.mux.HandleFunc("POST /v1/sessions/{name}/dist", work("dist", s.handleDist))
	s.mux.HandleFunc("POST /v1/sessions/{name}/less", work("less", s.handleLess))
	s.mux.HandleFunc("POST /v1/sessions/{name}/lessthan", work("lessthan", s.handleLessThan))
	s.mux.HandleFunc("POST /v1/sessions/{name}/distifless", work("distifless", s.handleDistIfLess))
	s.mux.HandleFunc("POST /v1/sessions/{name}/bounds", work("bounds", s.handleBounds))
	s.mux.HandleFunc("POST /v1/sessions/{name}/bootstrap", work("bootstrap", s.handleBootstrap))
	s.mux.HandleFunc("POST /v1/sessions/{name}/batch", work("batch", s.handleDistBatch))
	s.mux.HandleFunc("POST /v1/sessions/{name}/knn", work("knn", s.handleKNN))
	s.mux.HandleFunc("GET /v1/sessions/{name}/search", work("search", s.handleSearch))
	s.mux.HandleFunc("POST /v1/sessions/{name}/search", work("search", s.handleSearch))
	s.mux.HandleFunc("POST /v1/sessions/{name}/mst", work("mst", s.handleMST))
	s.mux.HandleFunc("POST /v1/sessions/{name}/medoid", work("medoid", s.handleMedoid))
	// Cluster replication: node-to-node, not client-facing. Mounted
	// unconditionally; the handlers refuse with 400 outside cluster mode.
	s.mux.HandleFunc("POST /v1/repl/{name}", s.instrument("repl", s.handleReplAppend))
	s.mux.HandleFunc("GET /v1/repl/{name}", s.instrument("replstatus", s.handleReplStatus))
}

// instrument wraps a handler with the drain gate, the request body cap
// (a larger body fails to decode: 400 bad_request), the per-endpoint
// latency histogram, and the request counter.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.met.count(endpoint, http.StatusServiceUnavailable)
			writeError(w, http.StatusServiceUnavailable, api.CodeDraining, "server is draining")
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, api.MaxBodyBytes)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.met.latency(endpoint).Observe(time.Since(start).Nanoseconds())
		s.met.count(endpoint, sw.code)
	}
}

// admit resolves the session named in the path and takes one of its
// admission slots, shedding with 503 + Retry-After when all slots are
// busy. The slot is held for the duration of the wrapped handler — the
// "bounded per-session work queue". The registry entry is held via
// Acquire/Release for the same span, so the TTL sweeper can neither evict
// the session nor close its cache store while the handler runs (the
// drain-era race fixed in core.SessionRegistry). When this node holds
// replicated state for an unknown session, admit promotes it first — the
// failover path: a client routed here after the primary died finds a
// warm, already-replayed session instead of a 404.
func (s *Server) admit(endpoint string, h func(http.ResponseWriter, *http.Request, *core.SessionEntry)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		entry := s.reg.Acquire(r.PathValue("name"))
		if entry == nil {
			entry = s.promote(r.PathValue("name"))
		}
		if entry == nil {
			writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf("no session %q", r.PathValue("name")))
			return
		}
		defer s.reg.Release(entry)
		st := entry.Data.(*sessionState)
		select {
		case st.sem <- struct{}{}:
		default:
			s.met.shed(endpoint).Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, api.CodeOverloaded,
				fmt.Sprintf("session %q has all %d work slots busy", entry.Name, cap(st.sem)))
			return
		}
		depth := s.inflight.Add(1)
		s.met.queueDepth.Set(float64(depth))
		defer func() {
			<-st.sem
			s.met.queueDepth.Set(float64(s.inflight.Add(-1)))
		}()
		h(w, r, entry)
	}
}

// statusWriter records the status code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader captures the code before delegating.
func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// writeError emits the JSON error envelope.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(api.ErrorBody{Code: code, Message: msg})
}

// writeJSON emits a 200 JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// decode parses the first JSON value of a request body into v; an
// unknown field is an error. The bulk requests read that value as raw
// bytes for api.DecodeStrict, which parses their canonical form without
// reflection. It cannot be their UnmarshalJSON: that method would not see
// DisallowUnknownFields.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	switch v.(type) {
	case *api.BatchRequest, *api.ReplAppendRequest:
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return err
		}
		return api.DecodeStrict(raw, v)
	}
	return dec.Decode(v)
}

// validName reports whether a session name is safe for registry keys and
// cache filenames: [A-Za-z0-9._-]+, no leading dot, at most 128 bytes.
func validName(name string) bool {
	if name == "" || len(name) > 128 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// cachePath returns the session's cachestore path, or "" when persistence
// is off.
func (s *Server) cachePath(name string) string {
	if s.cfg.CacheDir == "" {
		return ""
	}
	return filepath.Join(s.cfg.CacheDir, name+".cache")
}

// landmarkCount applies the log2-n default used across the CLIs.
func (s *Server) landmarkCount(req int) int {
	if req > 0 {
		return req
	}
	k := 0
	for v := s.n; v > 1; v /= 2 {
		k++
	}
	return k
}

// sortedNames returns the live session names sorted for stable listings.
func (s *Server) sortedNames() []string {
	names := s.reg.Names()
	sort.Strings(names)
	return names
}
