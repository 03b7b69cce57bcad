// Package api defines the wire types of the metricproxd HTTP/JSON
// protocol, shared by the server (internal/service) and the client
// (internal/proxclient) so the two cannot drift. Every request and
// response is a small JSON document; distances travel as WireFloat so the
// ±Inf thresholds the prox builders pass to DistIfLess survive encoding
// (encoding/json rejects infinities). docs/API.md is the prose reference
// for these schemas.
package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// Error codes carried in ErrorBody.Code. The client maps them back to
// typed errors; codes, not HTTP statuses, are the stable contract.
const (
	// CodeBadRequest marks malformed or out-of-range request fields.
	CodeBadRequest = "bad_request"
	// CodeNotFound marks an unknown session name.
	CodeNotFound = "not_found"
	// CodeConflict marks a create that contradicts an existing session
	// (same name, different scheme or landmarks).
	CodeConflict = "conflict"
	// CodeOverloaded marks a request shed because the session's work
	// queue was full; retry after the Retry-After delay.
	CodeOverloaded = "overloaded"
	// CodeDraining marks a request refused because the daemon is shutting
	// down.
	CodeDraining = "draining"
	// CodeTooManySessions marks a create refused by the max-sessions cap.
	CodeTooManySessions = "too_many_sessions"
	// CodeOracleUnavailable marks a resolution that failed after the
	// resilient policy exhausted its retries; the answer was NOT degraded
	// to an estimate server-side.
	CodeOracleUnavailable = "oracle_unavailable"
	// CodeReplConflict marks a replication append refused because the
	// receiving node hosts the session itself (it was promoted, or the
	// ring disagrees about ownership). The sender must stop replicating
	// this session here: two live writers would fork the log.
	CodeReplConflict = "repl_conflict"
	// CodeUnavailable marks a request the router could not place on any
	// owner of the session — every candidate node was down or draining.
	CodeUnavailable = "unavailable"
	// CodeInternal marks any other server-side failure.
	CodeInternal = "internal"
)

// MaxBodyBytes caps a request body (64 MiB — far above any legitimate
// API payload; a batch of 10k ops is ~1 MiB). The service answers a
// larger body with 400 bad_request, and so does the router, without
// asking any node; the router refuses an upstream answer longer than
// this with 502 internal rather than relay it cut.
const MaxBodyBytes = 64 << 20

// ErrorBody is the JSON error envelope every non-2xx response carries.
type ErrorBody struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is a human-readable elaboration.
	Message string `json:"message"`
}

// WireFloat is a float64 that survives JSON round-trips for every value
// the session layer produces: finite floats travel in encoding/json's
// float64 format, which round-trips exactly, and ±Inf — which
// encoding/json refuses — travel as the strings "+Inf"/"-Inf". (NaN never crosses the wire: metric.
// ValidateDistance rejects it at the oracle boundary.)
type WireFloat float64

// MarshalJSON encodes ±Inf as quoted strings and finite values as plain
// JSON numbers, formatted as encoding/json formats a float64.
func (w WireFloat) MarshalJSON() ([]byte, error) {
	var buf [32]byte // the longest float64 encoding is 25 bytes
	b, ok := appendFloat(buf[:0], float64(w))
	if !ok {
		return json.Marshal(float64(w)) // NaN: encoding/json's own error
	}
	return bytes.Clone(b), nil
}

// UnmarshalJSON accepts plain numbers plus the "+Inf"/"-Inf" strings.
func (w *WireFloat) UnmarshalJSON(b []byte) error {
	p := parser{b: b}
	if f := p.number(); !p.bad && p.i == len(b) {
		*w = f
		return nil
	}
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf", "Inf":
			*w = WireFloat(math.Inf(1))
			return nil
		case "-Inf":
			*w = WireFloat(math.Inf(-1))
			return nil
		}
		return fmt.Errorf("api: invalid float string %q", s)
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*w = WireFloat(f)
	return nil
}

// CreateSessionRequest creates (or idempotently attaches to) a named
// session. The daemon owns the metric space; a session is a (scheme,
// landmark) view over it. Landmarks are picked server-side with
// core.PickLandmarks(n, Landmarks, Seed) — deterministic, so a client can
// predict them.
type CreateSessionRequest struct {
	// Name identifies the session; [a-zA-Z0-9._-]+.
	Name string `json:"name"`
	// Scheme is the bound scheme name as accepted by core.ParseScheme.
	Scheme string `json:"scheme"`
	// Landmarks is the number of bootstrap landmarks; 0 means log2 n.
	Landmarks int `json:"landmarks,omitempty"`
	// Seed drives the landmark choice.
	Seed int64 `json:"seed,omitempty"`
	// Bootstrap resolves all landmark rows up front when true.
	Bootstrap bool `json:"bootstrap,omitempty"`
	// SlackEps declares the oracle a near-metric with additive violation
	// margin ε and activates ε-slack mode (core.SlackPolicy.Additive).
	// Only single-triangle schemes (noop, tri, laesa, tlaesa) accept it.
	SlackEps WireFloat `json:"slack_eps,omitempty"`
	// SlackRatio declares a multiplicative violation factor ρ ≥ 1
	// (core.SlackPolicy.Ratio); 0 means none. Limited to noop and tri.
	SlackRatio WireFloat `json:"slack_ratio,omitempty"`
	// SlackAuto grows the effective ε with the margins the session's
	// auditor observes (core.SlackPolicy.Auto). Implies an auditor.
	SlackAuto bool `json:"slack_auto,omitempty"`
	// Audit attaches a triangle-violation auditor without any slack:
	// strict mode, where a violation voids output preservation and is
	// surfaced through StatsResponse.Violations.
	Audit bool `json:"audit,omitempty"`
}

// SessionInfo describes one hosted session.
type SessionInfo struct {
	// Name is the session's registry key.
	Name string `json:"name"`
	// Scheme is the bound scheme name.
	Scheme string `json:"scheme"`
	// N is the universe size.
	N int `json:"n"`
	// MaxDistance is the a-priori distance cap.
	MaxDistance WireFloat `json:"max_distance"`
	// Created reports whether this request built the session (false for
	// an attach to an existing one).
	Created bool `json:"created"`
}

// PairRequest addresses one object pair (Dist, Bounds).
type PairRequest struct {
	// I and J are object indices in [0, n).
	I int `json:"i"`
	J int `json:"j"`
}

// DistResponse carries one resolved distance.
type DistResponse struct {
	// D is the exact distance.
	D WireFloat `json:"d"`
}

// LessRequest asks whether dist(i,j) < dist(k,l).
type LessRequest struct {
	// I, J, K, L are object indices; the comparison is dist(I,J) < dist(K,L).
	I int `json:"i"`
	J int `json:"j"`
	K int `json:"k"`
	L int `json:"l"`
}

// LessResponse answers Less and LessThan. It deliberately carries no
// distance value: comparison endpoints reveal one bit, keeping raw oracle
// values confined to the audited Dist* endpoints (see the oracleescape
// analyzer's service rule).
type LessResponse struct {
	// Less is the comparison outcome.
	Less bool `json:"less"`
}

// LessThanRequest asks whether dist(i,j) < c.
type LessThanRequest struct {
	// I and J are object indices.
	I int `json:"i"`
	J int `json:"j"`
	// C is the threshold (may be ±Inf).
	C WireFloat `json:"c"`
}

// DistIfLessRequest resolves dist(i,j) only when the bounds cannot prove
// dist(i,j) ≥ c.
type DistIfLessRequest struct {
	// I and J are object indices.
	I int `json:"i"`
	J int `json:"j"`
	// C is the threshold (may be +Inf, the "always resolve" form).
	C WireFloat `json:"c"`
}

// DistIfLessResponse carries the DistIfLess outcome. D is meaningful only
// when Exact is true.
type DistIfLessResponse struct {
	// Less reports dist(i,j) < c.
	Less bool `json:"less"`
	// D is the exact distance when Exact, 0 otherwise.
	D WireFloat `json:"d,omitempty"`
	// Exact reports that the session holds the pair resolved, so D is its
	// exact distance: always when Less, and on a not-less answer whenever
	// the pair was resolved by this or an earlier call.
	Exact bool `json:"exact,omitempty"`
}

// BoundsResponse carries the current lower/upper bounds of a pair; no
// oracle call is spent answering it. lb == ub exactly when the pair is
// resolved.
type BoundsResponse struct {
	// LB is the lower bound.
	LB WireFloat `json:"lb"`
	// UB is the upper bound.
	UB WireFloat `json:"ub"`
	// Eps is the additive slack the interval was relaxed by — 0 for a
	// strict session. Under an auto slack policy this value can grow
	// between responses; a client mirror that caches intervals must drop
	// them when it sees Eps rise, because "server bounds only tighten"
	// stops holding at the escalation point.
	Eps WireFloat `json:"eps,omitempty"`
}

// BootstrapRequest resolves the given landmark rows up front.
type BootstrapRequest struct {
	// Landmarks are the landmark object indices.
	Landmarks []int `json:"landmarks"`
}

// BootstrapResponse reports the oracle calls the bootstrap spent.
type BootstrapResponse struct {
	// Calls is the number of oracle calls made.
	Calls int64 `json:"calls"`
}

// Batch op names accepted in BatchOp.Op.
const (
	// OpDist resolves a distance.
	OpDist = "dist"
	// OpLess compares two pairs.
	OpLess = "less"
	// OpLessThan compares a pair against a threshold.
	OpLessThan = "lessthan"
	// OpDistIfLess conditionally resolves against a threshold.
	OpDistIfLess = "distifless"
	// OpBounds reads the current bounds of a pair.
	OpBounds = "bounds"
)

// BatchOp is one operation inside a BatchRequest. Fields beyond Op are
// interpreted per the op's scalar request type.
type BatchOp struct {
	// Op is one of the Op* constants.
	Op string `json:"op"`
	// I and J address the primary pair.
	I int `json:"i"`
	J int `json:"j"`
	// K and L address the second pair for OpLess.
	K int `json:"k,omitempty"`
	L int `json:"l,omitempty"`
	// C is the threshold for OpLessThan and OpDistIfLess.
	C WireFloat `json:"c,omitempty"`
}

// BatchRequest executes many ops in one round-trip, in order, against one
// session. Results arrive positionally in BatchResponse.Results.
type BatchRequest struct {
	// Ops are executed sequentially server-side.
	Ops []BatchOp `json:"ops"`
}

// BatchResult is the outcome of one BatchOp; which fields are meaningful
// depends on the op (same contracts as the scalar responses).
type BatchResult struct {
	// Less is set for less / lessthan / distifless ops.
	Less bool `json:"less,omitempty"`
	// D is set for dist ops, and for distifless ops when Exact.
	D WireFloat `json:"d,omitempty"`
	// Exact is set for distifless ops whose pair the session holds
	// resolved (see DistIfLessResponse.Exact).
	Exact bool `json:"exact,omitempty"`
	// LB and UB are set for bounds ops.
	LB WireFloat `json:"lb,omitempty"`
	UB WireFloat `json:"ub,omitempty"`
	// Eps is set for bounds ops: the additive slack applied to the
	// interval (see BoundsResponse.Eps).
	Eps WireFloat `json:"eps,omitempty"`
	// Err is an error code (Code* constant) when this op failed; ops are
	// independent, so one failure does not poison the batch.
	Err string `json:"err,omitempty"`
}

// BatchResponse carries one result per request op, positionally.
type BatchResponse struct {
	// Results aligns 1:1 with the request's Ops.
	Results []BatchResult `json:"results"`
}

// KNNRequest runs the server-side kNN-graph builder on the session.
type KNNRequest struct {
	// K is the neighbour count per object.
	K int `json:"k"`
}

// WireNeighbor is one (id, distance) edge of a kNN row.
type WireNeighbor struct {
	// ID is the neighbour object index.
	ID int `json:"id"`
	// D is the exact distance.
	D WireFloat `json:"d"`
}

// KNNResponse is the full kNN graph in canonical (distance, id) order.
type KNNResponse struct {
	// Rows holds each object's neighbour list, indexed by object.
	Rows [][]WireNeighbor `json:"rows"`
}

// SearchRequest answers an approximate k-nearest-neighbour query over
// the session's navigable search graph (internal/nsw). The first search
// on a session builds the graph — every construction comparison routed
// through the session's IF surface, so the hosted bounds prune it — and
// caches it; later searches reuse it. Graph parameters are fixed at that
// first build: a later request naming different ones is a 409/conflict,
// exactly like a contradictory session re-create.
//
// GET form: the same fields as URL query parameters (q, k, ef_search,
// m, ef_construction, seed).
type SearchRequest struct {
	// Q is the query object index in [0, n). The query is part of the
	// universe; it is traversed but never reported as its own neighbour.
	Q int `json:"q"`
	// K is the number of neighbours wanted.
	K int `json:"k"`
	// EfSearch is the query beam width; larger is more accurate and more
	// expensive. 0 means the server default (nsw.DefaultEfConstruction);
	// values below K are clamped up to K.
	EfSearch int `json:"ef_search,omitempty"`
	// M is the graph's links-per-node parameter; 0 means nsw.DefaultM.
	// Only consulted by the build; conflicting with the built graph is a
	// 409.
	M int `json:"m,omitempty"`
	// EfConstruction is the insertion beam width; 0 means
	// nsw.DefaultEfConstruction. Build-only, conflict rules as M.
	EfConstruction int `json:"ef_construction,omitempty"`
	// Seed drives the insertion order; 0 means the session's create seed.
	// Build-only, conflict rules as M.
	Seed int64 `json:"seed,omitempty"`
}

// SearchResponse carries an approximate-kNN answer. Audited Dist*
// endpoint: neighbour distances are raw oracle values by design.
type SearchResponse struct {
	// Neighbors are the K approximate nearest neighbours in canonical
	// (distance, id) order with exact distances.
	Neighbors []WireNeighbor `json:"neighbors"`
	// EfSearch is the beam width actually used (after defaulting and
	// clamping).
	EfSearch int `json:"ef_search"`
	// Built reports whether this request paid for the graph construction
	// (true exactly once per session graph).
	Built bool `json:"built"`
}

// WireEdge is one MST edge with U < V.
type WireEdge struct {
	// U and V are the endpoint object indices, U < V.
	U int `json:"u"`
	V int `json:"v"`
	// W is the exact edge weight.
	W WireFloat `json:"w"`
}

// MSTResponse is the server-side Prim MST result.
type MSTResponse struct {
	// Edges are the n−1 tree edges in discovery order.
	Edges []WireEdge `json:"edges"`
	// Weight is the summed edge weight.
	Weight WireFloat `json:"weight"`
}

// MedoidRequest runs the server-side PAM clustering.
type MedoidRequest struct {
	// L is the number of medoids.
	L int `json:"l"`
	// Seed drives the random initialisation.
	Seed int64 `json:"seed"`
}

// MedoidResponse is the server-side PAM result.
type MedoidResponse struct {
	// Medoids are the chosen medoid object indices.
	Medoids []int `json:"medoids"`
	// Assign maps each object to an index into Medoids.
	Assign []int `json:"assign"`
	// Cost is the summed point-to-medoid distance.
	Cost WireFloat `json:"cost"`
}

// StatsResponse mirrors core.Stats for one session.
type StatsResponse struct {
	// OracleCalls — see core.Stats.
	OracleCalls int64 `json:"oracle_calls"`
	// BootstrapCalls — see core.Stats.
	BootstrapCalls int64 `json:"bootstrap_calls"`
	// BoundProbes — see core.Stats.
	BoundProbes int64 `json:"bound_probes"`
	// SavedComparisons — see core.Stats.
	SavedComparisons int64 `json:"saved_comparisons"`
	// ResolvedComparisons — see core.Stats.
	ResolvedComparisons int64 `json:"resolved_comparisons"`
	// CacheHits — see core.Stats.
	CacheHits int64 `json:"cache_hits"`
	// Retries — see core.Stats.
	Retries int64 `json:"retries"`
	// Timeouts — see core.Stats.
	Timeouts int64 `json:"timeouts"`
	// BreakerOpens — see core.Stats.
	BreakerOpens int64 `json:"breaker_opens"`
	// DegradedAnswers — see core.Stats.
	DegradedAnswers int64 `json:"degraded_answers"`
	// StoreErrors — see core.Stats.
	StoreErrors int64 `json:"store_errors"`
	// SlackResolved — see core.Stats.
	SlackResolved int64 `json:"slack_resolved,omitempty"`
	// Violations — see core.Stats. Non-zero on a strict (audited,
	// slack-free) session means output preservation is void.
	Violations int64 `json:"violations,omitempty"`
}

// SessionList is the GET /v1/sessions response.
type SessionList struct {
	// Sessions are the live session names, sorted.
	Sessions []string `json:"sessions"`
}

// ReplMeta carries a session's creation parameters alongside its
// replicated bound state, so a replica can rebuild the session — same
// scheme, same landmarks, same slack policy — without ever having seen
// the client's CreateSessionRequest. It travels with every append batch;
// senders keep it constant for a session's lifetime (create parameters
// are immutable after the first build).
type ReplMeta struct {
	// Scheme is the bound scheme name as accepted by core.ParseScheme.
	Scheme string `json:"scheme"`
	// Landmarks is the resolved landmark count (after the log2-n default —
	// replicas must not re-derive it against a different universe).
	Landmarks int `json:"landmarks"`
	// Seed drives the deterministic landmark choice.
	Seed int64 `json:"seed"`
	// Bootstrap mirrors CreateSessionRequest.Bootstrap. A promoted replica
	// honours it so the rebuilt session has the same landmark rows resolved
	// — mostly already free, replayed from the replicated log.
	Bootstrap bool `json:"bootstrap,omitempty"`
	// SlackEps mirrors CreateSessionRequest.SlackEps.
	SlackEps WireFloat `json:"slack_eps,omitempty"`
	// SlackRatio mirrors CreateSessionRequest.SlackRatio.
	SlackRatio WireFloat `json:"slack_ratio,omitempty"`
	// SlackAuto mirrors CreateSessionRequest.SlackAuto.
	SlackAuto bool `json:"slack_auto,omitempty"`
	// Audit mirrors CreateSessionRequest.Audit.
	Audit bool `json:"audit,omitempty"`
	// N is the sender's universe size; a mismatch with the receiver's
	// space is a configuration error and refuses the stream (replaying
	// distances onto wrong indices would be silent corruption).
	N int `json:"n"`
}

// ReplAppendRequest is the POST /v1/repl/{name} body: a sequence-numbered
// batch of committed resolutions from the session's hosting node. From is
// the sequence number of Records[0] in the sender's log; the receiver
// applies idempotently (overlap skipped) and answers with its own cursor,
// which the sender adopts — including rewinding when the replica lost a
// suffix to a crash.
type ReplAppendRequest struct {
	// Node is the sending node's cluster name (diagnostics and conflict
	// messages; the ring, not this field, decides legitimacy).
	Node string `json:"node"`
	// Meta carries the session's creation parameters (see ReplMeta).
	Meta ReplMeta `json:"meta"`
	// From is the sequence number of the first record in Records.
	From int64 `json:"from"`
	// Records are consecutive log records starting at From, as the
	// sender's log holds them: 20 bytes each (cachestore's record layout,
	// checksum included), base64 on the wire as encoding/json writes a
	// []byte. The receiver checks every record before it applies any. An
	// empty batch is a cursor probe: the response still reports the
	// replica's seq.
	Records []byte `json:"records,omitempty"`
}

// ReplAppendResponse acknowledges an append batch.
type ReplAppendResponse struct {
	// Seq is the replica's log length after the append — the cursor the
	// sender should send next. Seq below the request's From+len(Records)
	// means the replica rejected a gap (or tore its tail); the sender
	// rewinds and resends from Seq.
	Seq int64 `json:"seq"`
}

// ReplStatusResponse is the GET /v1/repl/{name} answer: the replica's
// view of one replicated session. Used by handoff verification and the
// cluster smoke tests; never on the hot path.
type ReplStatusResponse struct {
	// Seq is the replica's current log length for the session.
	Seq int64 `json:"seq"`
	// Promoted reports that this node now hosts the session live (the
	// replica state was adopted by a promotion or a client create).
	Promoted bool `json:"promoted"`
}

// ClusterHealthz is the router's GET /healthz response: the router's own
// liveness plus its current view of each node from the health prober.
type ClusterHealthz struct {
	// Status is "ok" while the router serves.
	Status string `json:"status"`
	// Nodes maps node name to "up" or "down".
	Nodes map[string]string `json:"nodes"`
}

// Healthz is the GET /healthz response.
type Healthz struct {
	// Status is "ok" while serving, "draining" during shutdown.
	Status string `json:"status"`
	// N is the universe size of the daemon's space.
	N int `json:"n"`
	// Sessions is the live session count.
	Sessions int `json:"sessions"`
}
