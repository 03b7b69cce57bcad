package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"metricprox/internal/obs"
	"metricprox/internal/service/api"
)

// Router metric names. Documented in docs/METRICS.md.
const (
	// MetricRouterRequests counts proxied requests by the node that
	// ultimately answered (label node) and its HTTP status (label code).
	MetricRouterRequests = "cluster_requests_total"
	// MetricRouterFailovers counts requests that fell through at least one
	// owner before being answered — the headline number the kill-a-node
	// smoke test asserts is ≥ 1.
	MetricRouterFailovers = "cluster_failovers_total"
	// MetricRouterExhausted counts requests for which every owner failed
	// (answered 503 unavailable).
	MetricRouterExhausted = "cluster_exhausted_total"
)

// RouterConfig parameterises a Router.
type RouterConfig struct {
	// Topology supplies the ring; Self may be empty (the router is not a
	// member).
	Topology *Topology
	// Prober supplies the node liveness view; nil disables reordering
	// (every request walks owners in ring order).
	Prober *Prober
	// HTTPClient issues upstream requests; nil means http.DefaultClient
	// semantics with no overall timeout (work endpoints can legitimately
	// run long — per-request deadlines belong to the caller's context,
	// which is propagated).
	HTTPClient *http.Client
	// Registry receives the cluster_* router instruments when non-nil.
	Registry *obs.Registry
	// Logf receives failover log lines when non-nil.
	Logf func(format string, args ...any)
}

// Router is the thin reverse proxy in front of a metricproxd cluster. It
// terminates nothing and caches nothing: each request is forwarded to the
// named session's primary, falling through the replica list when an owner
// is unreachable, answers 502/504 at the transport level, or reports
// draining. A 503/overloaded from a live node is relayed untouched — that
// is per-session backpressure, and the replicas do not host the session's
// work queue, so failing over would just build the session twice.
//
// The router is stateless: killing it loses nothing, running two behind a
// TCP balancer needs no coordination (they compute the same ring).
type Router struct {
	cfg RouterConfig
	hc  *http.Client

	failovers *obs.Counter
	exhausted *obs.Counter
	requests  func(node string, code int) *obs.Counter
}

// NewRouter builds a Router over the topology.
func NewRouter(cfg RouterConfig) *Router {
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Router{
		cfg:       cfg,
		hc:        hc,
		failovers: reg.Counter(MetricRouterFailovers),
		exhausted: reg.Counter(MetricRouterExhausted),
		requests: func(node string, code int) *obs.Counter {
			return reg.Counter(MetricRouterRequests,
				obs.Label{Key: "node", Value: node},
				obs.Label{Key: "code", Value: fmt.Sprintf("%d", code)})
		},
	}
}

// Handler returns the router's HTTP handler: /healthz plus every /v1/
// route, forwarded by session ownership.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /v1/sessions", rt.handleList)
	mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	mux.HandleFunc("/v1/sessions/{name}", rt.handleSession)
	mux.HandleFunc("/v1/sessions/{name}/{op}", rt.handleSession)
	mux.HandleFunc("/v1/repl/{name}", rt.handleSession)
	return mux
}

// handleHealthz answers with the router's own liveness and its probe view
// of the members.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	nodes := make(map[string]string, len(rt.cfg.Topology.Nodes()))
	for _, n := range rt.cfg.Topology.Nodes() {
		state := "up"
		if rt.cfg.Prober != nil && !rt.cfg.Prober.Up(n.Name) {
			state = "down"
		}
		nodes[n.Name] = state
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(api.ClusterHealthz{Status: "ok", Nodes: nodes})
}

// handleList fans GET /v1/sessions out to every member and answers the
// sorted union — a session lives on one primary, so no single node knows
// the full list.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	nodes := rt.cfg.Topology.Nodes()
	var mu sync.Mutex
	set := make(map[string]bool)
	var wg sync.WaitGroup
	for _, n := range nodes {
		wg.Add(1)
		go func(n Node) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, n.URL+"/v1/sessions", nil)
			if err != nil {
				return
			}
			resp, err := rt.hc.Do(req)
			if err != nil {
				return // a dead node simply contributes nothing to the union
			}
			defer resp.Body.Close()
			var list api.SessionList
			if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&list) != nil {
				return
			}
			mu.Lock()
			for _, s := range list.Sessions {
				set[s] = true
			}
			mu.Unlock()
		}(n)
	}
	wg.Wait()
	names := make([]string, 0, len(set))
	for s := range set {
		names = append(names, s)
	}
	sort.Strings(names)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(api.SessionList{Sessions: names})
}

// handleCreate routes POST /v1/sessions by the name inside the body.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := readRequest(w, r)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, api.CodeBadRequest, "reading body: "+err.Error())
		return
	}
	var peek struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &peek); err != nil || peek.Name == "" {
		rt.writeError(w, http.StatusBadRequest, api.CodeBadRequest, "create body must carry a session name")
		return
	}
	rt.proxy(w, r, peek.Name, body)
}

// handleSession routes every per-session path by the {name} segment.
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	body, err := readRequest(w, r)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, api.CodeBadRequest, "reading body: "+err.Error())
		return
	}
	rt.proxy(w, r, r.PathValue("name"), body)
}

// readRequest reads a request body into a buffer sized from its
// Content-Length, and fails, as a node's decode does, when the body is
// longer than api.MaxBodyBytes: no upstream is asked about a body that
// every owner would refuse.
func readRequest(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return api.ReadBody(http.MaxBytesReader(w, r.Body, api.MaxBodyBytes), r.ContentLength)
}

// proxy forwards the request to the session's owners in failover order,
// relaying the first answer that is not a node-death symptom.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, session string, body []byte) {
	owners := rt.candidates(session)
	var lastErr string
	for i, node := range owners {
		resp, err := rt.forward(r, node, body)
		if err != nil {
			// Transport-level failure: the node is gone or unreachable.
			if rt.cfg.Prober != nil {
				rt.cfg.Prober.MarkDown(node.Name)
			}
			lastErr = fmt.Sprintf("%s: %v", node.Name, err)
			rt.logf("cluster: router: %s %s via %s failed: %v", r.Method, r.URL.Path, node.Name, err)
			if i+1 < len(owners) {
				rt.failovers.Inc()
			}
			continue
		}
		relay, respBody, err := rt.classify(resp)
		if err != nil {
			// Every owner would give the same answer: refuse it here
			// rather than relay it cut or fail over.
			rt.requests(node.Name, http.StatusBadGateway).Inc()
			rt.logf("cluster: router: %s %s via %s: %v", r.Method, r.URL.Path, node.Name, err)
			rt.writeError(w, http.StatusBadGateway, api.CodeInternal, fmt.Sprintf("%s: %v", node.Name, err))
			return
		}
		if relay {
			rt.requests(node.Name, resp.StatusCode).Inc()
			rt.relay(w, resp, respBody)
			return
		}
		lastErr = fmt.Sprintf("%s: status %d", node.Name, resp.StatusCode)
		rt.logf("cluster: router: %s %s via %s answered %d, trying next owner", r.Method, r.URL.Path, node.Name, resp.StatusCode)
		if i+1 < len(owners) {
			rt.failovers.Inc()
		}
	}
	rt.exhausted.Inc()
	rt.writeError(w, http.StatusServiceUnavailable, api.CodeUnavailable,
		fmt.Sprintf("no owner of session %q reachable (last: %s)", session, lastErr))
}

// candidates returns the session's owners with known-down nodes demoted
// to the back — they are still tried (the prober can be stale in both
// directions) but no longer cost every request a connect timeout.
func (rt *Router) candidates(session string) []Node {
	owners := rt.cfg.Topology.Owners(session)
	if rt.cfg.Prober == nil {
		return owners
	}
	up := make([]Node, 0, len(owners))
	var down []Node
	for _, n := range owners {
		if rt.cfg.Prober.Up(n.Name) {
			up = append(up, n)
		} else {
			down = append(down, n)
		}
	}
	return append(up, down...)
}

// forward issues the upstream copy of r to node, propagating the caller's
// context so client-side cancellation crosses the proxy.
func (rt *Router) forward(r *http.Request, node Node, body []byte) (*http.Response, error) {
	url := node.URL + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	return rt.hc.Do(req)
}

// errAnswerTooLarge refuses an upstream answer longer than
// api.MaxBodyBytes.
var errAnswerTooLarge = fmt.Errorf("answer exceeds %d bytes", api.MaxBodyBytes)

// classify decides whether an upstream response is relayed to the client
// or treated as a node-death symptom worth failing over (FailsOver). It
// reads the body whole either way (the relay needs it), into a buffer
// sized from the upstream Content-Length, but parses only a 5xx body,
// for its error code. An answer that breaks off is a symptom. An answer
// longer than api.MaxBodyBytes is neither: classify returns
// errAnswerTooLarge, because the router never relays a cut answer.
func (rt *Router) classify(resp *http.Response) (relay bool, body []byte, err error) {
	body, err = api.ReadBody(io.LimitReader(resp.Body, api.MaxBodyBytes+1), resp.ContentLength)
	resp.Body.Close()
	switch {
	case err != nil:
		return false, nil, nil // truncated upstream answer: try the next owner
	case len(body) > api.MaxBodyBytes:
		return false, nil, errAnswerTooLarge
	}
	code := ""
	if resp.StatusCode >= 500 {
		var eb api.ErrorBody // declared here: decoding moves it to the heap
		if json.Unmarshal(body, &eb) == nil {
			code = eb.Code
		}
	}
	return !FailsOver(resp.StatusCode, code), body, nil
}

// FailsOver reports whether an answer with this HTTP status and API error
// code is a node-death symptom, so the request moves on to the session's
// next owner: the router's failover taxonomy (docs/CLUSTER.md). A 503
// draining (the node is going away) and a bare 502/504 (an intermediary
// failed it) fail over. A 503 overloaded is per-session backpressure and
// a 502 oracle_unavailable a shared oracle outage — failing over on them
// would cold-start session copies under load or re-pay the outage on a
// replica — so they are relayed to the client, like every other answer.
// A transport error has no status and always fails over; callers decide
// that before asking.
func FailsOver(status int, code string) bool {
	switch status {
	case http.StatusServiceUnavailable:
		return code == api.CodeDraining
	case http.StatusBadGateway, http.StatusGatewayTimeout:
		return code != api.CodeOracleUnavailable
	}
	return false
}

// relay copies a whole upstream response to the client, with its
// Content-Length.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, body []byte) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// writeError emits the standard JSON error envelope.
func (rt *Router) writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(api.ErrorBody{Code: code, Message: msg})
}

// logf forwards to the configured logger.
func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}
