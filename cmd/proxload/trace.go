package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"metricprox/internal/core"
	"metricprox/internal/metric"
)

// kind is one span boundary the benchmark times from outside a layer, by
// wrapping the value the layer exposes. The wrappers are only installed in
// a traced run; an untraced run hands the layers their raw values.
type kind int

const (
	kOp         kind = iota // the op, timed by the load loop
	kView                   // core.View methods other than Bounds, in-process
	kBounds                 // core.View.Bounds and BoundsBatch, in-process
	kProxclient             // every proxclient.Session View method
	kClientRT               // the load client's http.RoundTripper
	kRouter                 // cluster.Router.Handler
	kUpstreamRT             // the router's upstream http.RoundTripper
	kNode                   // service.Server.Handler, op requests only
	kMetric                 // metric.Space.Distance
	numKinds
)

// kindLayer names the repository module each span boundary measures. The
// op's own layer depends on the workload (workload.opLayer).
var kindLayer = [numKinds]string{
	kOp: "", kView: "core", kBounds: "bounds", kProxclient: "proxclient",
	kClientRT: "transport", kRouter: "cluster", kUpstreamRT: "transport",
	kNode: "service", kMetric: "metric",
}

// sampleEvery is the 1-in-N rate at which ops keep their full span tree.
const sampleEvery = 64

// linkHeader carries "<op>/<parent span>" from a RoundTripper to the
// handler on the other side of a hop, so a sampled op's tree crosses the
// wire. The router does not forward it; the router's handler wrapper puts
// the link into the request context, where the upstream RoundTripper
// picks it up and sets the header again.
const linkHeader = "Proxload-Span"

// span is one timed boundary crossing of a sampled op.
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps exact per-boundary busy time and call counts for every op,
// and full span trees for a seeded sample of ops, all in memory.
type tracer struct {
	seed  int64
	t0    time.Time
	busy  [numKinds]atomic.Int64 // ns
	count [numKinds]atomic.Int64

	bytes      atomic.Int64 // request plus response bytes through wrapped RoundTrippers
	primitives atomic.Int64 // proxclient primitive calls
	mirrorHits atomic.Int64 // proxclient primitives answered without a round trip
	shed       atomic.Int64 // node op requests answered 503

	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(seed int64) *tracer { return &tracer{seed: seed, t0: time.Now()} }

// reset zeroes every counter and drops the spans; called when the timed
// phase starts, so set-up traffic is not attributed to ops.
func (t *tracer) reset() {
	for k := range t.busy {
		t.busy[k].Store(0)
		t.count[k].Store(0)
	}
	t.bytes.Store(0)
	t.primitives.Store(0)
	t.mirrorHits.Store(0)
	t.shed.Store(0)
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
	t.t0 = time.Now()
}

// sampled reports whether op x keeps its span tree.
func (t *tracer) sampled(x int) bool {
	return mix(uint64(t.seed), uint64(x))%sampleEvery == 0
}

// mark is an open span: its start, and its identity when it belongs to a
// sampled op (id 0 otherwise).
type mark struct {
	start      time.Time
	id, parent int64
}

// finish closes a span: the busy time always counts, the span itself only
// when it belongs to a sampled op.
func (t *tracer) finish(m mark, op int64, k kind, name string) {
	end := time.Now()
	t.busy[k].Add(int64(end.Sub(m.start)))
	t.count[k].Add(1)
	if m.id == 0 {
		return
	}
	if k != kOp {
		name = kindLayer[k] + "." + name
	}
	s := span{Op: op, ID: m.id, Parent: m.parent, Name: name,
		Start: int64(m.start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// totals is a copy of the tracer's counters.
type totals struct {
	busy, count                         [numKinds]int64
	bytes, primitives, mirrorHits, shed int64
}

func (t *tracer) totals() totals {
	var s totals
	for k := range s.busy {
		s.busy[k], s.count[k] = t.busy[k].Load(), t.count[k].Load()
	}
	s.bytes, s.primitives, s.mirrorHits, s.shed = t.bytes.Load(), t.primitives.Load(), t.mirrorHits.Load(), t.shed.Load()
	return s
}

// selfNs returns each boundary's self time: its busy time minus the busy
// time of its child boundaries. tree maps child to parent. Summed over all
// boundaries the self times equal the op busy time exactly, as long as
// every child span lies inside a parent span.
func (s totals) selfNs(tree map[kind]kind) [numKinds]float64 {
	var self [numKinds]float64
	for k := range self {
		self[k] = float64(s.busy[k])
	}
	for c, p := range tree {
		self[p] -= float64(s.busy[c])
	}
	return self
}

// writeSpans writes the sampled span trees as JSON lines, ordered by op
// and span id.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(a, b int) bool {
		if spans[a].Op != spans[b].Op {
			return spans[a].Op < spans[b].Op
		}
		return spans[a].ID < spans[b].ID
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clientTrace is one load-client goroutine's view of the tracer: the op it
// is running and the stack of that op's open spans. Only its own goroutine
// touches it.
type clientTrace struct {
	t     *tracer
	op    int64 // sampled op in progress, -1 when the op is not sampled
	stack []int64
	trips int64 // round trips through this client's RoundTripper
}

func (t *tracer) client() *clientTrace { return &clientTrace{t: t, op: -1} }

func (c *clientTrace) begin() mark {
	m := mark{start: time.Now()}
	if c.op >= 0 {
		m.id = c.t.ids.Add(1)
		if n := len(c.stack); n > 0 {
			m.parent = c.stack[n-1]
		}
		c.stack = append(c.stack, m.id)
	}
	return m
}

func (c *clientTrace) end(m mark, k kind, name string) {
	if m.id != 0 {
		c.stack = c.stack[:len(c.stack)-1]
	}
	c.t.finish(m, c.op, k, name)
}

// --- core.View wrapper ---

// viewTrace times every core.View and core.FallibleView method of the
// wrapped session. N and MaxDistance read immutable fields without a lock
// and are left untimed; their cost stays in the caller's self time.
type viewTrace struct {
	inner  core.FallibleView
	ct     *clientTrace
	bounds kind // kind of Bounds calls
	other  kind // kind of every other method
	remote bool // count proxclient mirror hits
}

// prefetchView keeps proxclient.Session's core.BoundsPrefetcher: without
// it prox.KNNRow would turn one prefetch batch into n-1 round trips.
type prefetchView struct{ *viewTrace }

// batchView keeps the in-process sessions' core.BatchBoundsView.
type batchView struct{ *viewTrace }

// traceView wraps a session for one client, keeping the optional View
// extensions the session implements. No session implements both
// extensions, so the two wrapper types cover every case.
func traceView(inner core.FallibleView, ct *clientTrace) core.FallibleView {
	v := &viewTrace{inner: inner, ct: ct, bounds: kBounds, other: kView}
	if _, ok := inner.(core.BoundsPrefetcher); ok {
		v.bounds, v.other, v.remote = kProxclient, kProxclient, true
		return prefetchView{v}
	}
	if _, ok := inner.(core.BatchBoundsView); ok {
		return batchView{v}
	}
	return v
}

func (v *viewTrace) begin() (mark, int64) { return v.ct.begin(), v.ct.trips }

// end closes a method span; a primitive of a remote session that made no
// round trip was answered from the client's mirror.
func (v *viewTrace) end(m mark, trips int64, k kind, name string, primitive bool) {
	if v.remote && primitive {
		v.ct.t.primitives.Add(1)
		if v.ct.trips == trips {
			v.ct.t.mirrorHits.Add(1)
		}
	}
	v.ct.end(m, k, name)
}

func (v *viewTrace) N() int               { return v.inner.N() }
func (v *viewTrace) MaxDistance() float64 { return v.inner.MaxDistance() }

func (v *viewTrace) Known(i, j int) (float64, bool) {
	m, n := v.begin()
	d, ok := v.inner.Known(i, j)
	v.end(m, n, v.other, "Known", false)
	return d, ok
}

func (v *viewTrace) Bounds(i, j int) (float64, float64) {
	m, n := v.begin()
	lb, ub := v.inner.Bounds(i, j)
	v.end(m, n, v.bounds, "Bounds", true)
	return lb, ub
}

func (v *viewTrace) Dist(i, j int) float64 {
	m, n := v.begin()
	d := v.inner.Dist(i, j)
	v.end(m, n, v.other, "Dist", true)
	return d
}

func (v *viewTrace) Less(i, j, k, l int) bool {
	m, n := v.begin()
	r := v.inner.Less(i, j, k, l)
	v.end(m, n, v.other, "Less", true)
	return r
}

func (v *viewTrace) LessThan(i, j int, c float64) bool {
	m, n := v.begin()
	r := v.inner.LessThan(i, j, c)
	v.end(m, n, v.other, "LessThan", true)
	return r
}

func (v *viewTrace) DistIfLess(i, j int, c float64) (float64, bool) {
	m, n := v.begin()
	d, less := v.inner.DistIfLess(i, j, c)
	v.end(m, n, v.other, "DistIfLess", true)
	return d, less
}

func (v *viewTrace) Stats() core.Stats {
	m, n := v.begin()
	s := v.inner.Stats()
	v.end(m, n, v.other, "Stats", false)
	return s
}

func (v *viewTrace) DistErr(i, j int) (float64, error) {
	m, n := v.begin()
	d, err := v.inner.DistErr(i, j)
	v.end(m, n, v.other, "DistErr", true)
	return d, err
}

func (v *viewTrace) LessErr(i, j, k, l int) (bool, error) {
	m, n := v.begin()
	r, err := v.inner.LessErr(i, j, k, l)
	v.end(m, n, v.other, "LessErr", true)
	return r, err
}

func (v *viewTrace) LessOutcome(i, j, k, l int) (bool, core.Outcome) {
	m, n := v.begin()
	r, out := v.inner.LessOutcome(i, j, k, l)
	v.end(m, n, v.other, "LessOutcome", true)
	return r, out
}

func (v *viewTrace) LessThanErr(i, j int, c float64) (bool, error) {
	m, n := v.begin()
	r, err := v.inner.LessThanErr(i, j, c)
	v.end(m, n, v.other, "LessThanErr", true)
	return r, err
}

func (v *viewTrace) DistIfLessErr(i, j int, c float64) (float64, bool, error) {
	m, n := v.begin()
	d, less, err := v.inner.DistIfLessErr(i, j, c)
	v.end(m, n, v.other, "DistIfLessErr", true)
	return d, less, err
}

func (v *viewTrace) OracleErr() error {
	m, n := v.begin()
	err := v.inner.OracleErr()
	v.end(m, n, v.other, "OracleErr", false)
	return err
}

func (p prefetchView) PrefetchBounds(pairs []core.Pair) {
	m, n := p.begin()
	p.inner.(core.BoundsPrefetcher).PrefetchBounds(pairs)
	p.end(m, n, p.other, "PrefetchBounds", false)
}

func (b batchView) BoundsBatch(is, js []int, lb, ub []float64) {
	m, n := b.begin()
	b.inner.(core.BatchBoundsView).BoundsBatch(is, js, lb, ub)
	b.end(m, n, b.bounds, "BoundsBatch", false)
}

// --- net/http wrappers ---

// link identifies the span a request was sent from.
type link struct{ op, parent int64 }

type linkKey struct{}

func parseLink(h string) (link, bool) {
	a, b, ok := strings.Cut(h, "/")
	if !ok {
		return link{}, false
	}
	op, err1 := strconv.ParseInt(a, 10, 64)
	parent, err2 := strconv.ParseInt(b, 10, 64)
	if err1 != nil || err2 != nil {
		return link{}, false
	}
	return link{op: op, parent: parent}, true
}

// rtTrace times a RoundTripper from the request until its response body
// is read to the end or closed. ct is set on the load client's side; on
// the router's upstream side ct is nil and the span is linked from the
// request context.
type rtTrace struct {
	base http.RoundTripper
	t    *tracer
	ct   *clientTrace
}

func (r *rtTrace) RoundTrip(req *http.Request) (*http.Response, error) {
	k, op := kUpstreamRT, int64(-1)
	var m mark
	if r.ct != nil {
		k, op = kClientRT, r.ct.op
		m = r.ct.begin()
		r.ct.trips++
	} else {
		m.start = time.Now()
		if l, ok := req.Context().Value(linkKey{}).(link); ok {
			op, m.id, m.parent = l.op, r.t.ids.Add(1), l.parent
		}
	}
	if m.id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(linkHeader, fmt.Sprintf("%d/%d", op, m.id))
	}
	if req.ContentLength > 0 {
		r.t.bytes.Add(req.ContentLength)
	}
	resp, err := r.base.RoundTrip(req)
	if err != nil {
		r.close(m, op, k)
		return nil, err
	}
	resp.Body = &bodyTrace{ReadCloser: resp.Body, rt: r, m: m, op: op, k: k}
	return resp, nil
}

func (r *rtTrace) close(m mark, op int64, k kind) {
	if r.ct != nil {
		r.ct.end(m, k, "RoundTrip")
		return
	}
	r.t.finish(m, op, k, "RoundTrip")
}

// bodyTrace ends its RoundTrip span at the body's EOF or Close, whichever
// comes first, and counts the bytes read.
type bodyTrace struct {
	io.ReadCloser
	rt   *rtTrace
	m    mark
	op   int64
	k    kind
	done bool
}

func (b *bodyTrace) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.rt.t.bytes.Add(int64(n))
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *bodyTrace) Close() error {
	err := b.ReadCloser.Close()
	b.finish()
	return err
}

func (b *bodyTrace) finish() {
	if !b.done {
		b.done = true
		b.rt.close(b.m, b.op, b.k)
	}
}

// opRequest reports whether r is op work: a POST to a session's work
// endpoint. Session creation, stats probes and replication traffic pass
// through the wrappers untimed.
func opRequest(r *http.Request) bool {
	return r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/sessions/") &&
		strings.Count(r.URL.Path, "/") >= 4
}

// statusRecorder captures a handler's status code.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

// handler times h on op requests as kind k (kRouter or kNode).
func (t *tracer) handler(k kind, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !opRequest(r) {
			h.ServeHTTP(w, r)
			return
		}
		m, op := mark{start: time.Now()}, int64(-1)
		if l, ok := parseLink(r.Header.Get(linkHeader)); ok {
			op, m.id, m.parent = l.op, t.ids.Add(1), l.parent
			r = r.WithContext(context.WithValue(r.Context(), linkKey{}, link{op: op, parent: m.id}))
		}
		sw := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h.ServeHTTP(sw, r)
		if k == kNode && sw.code == http.StatusServiceUnavailable {
			t.shed.Add(1)
		}
		t.finish(m, op, k, "ServeHTTP")
	})
}

// --- metric.Space wrapper ---

// spaceTrace times every distance the oracle resolves. Oracle calls run on
// server goroutines or inside core's locks, where no op context is at hand,
// so metric time is kept in aggregate and never appears in span trees.
type spaceTrace struct {
	metric.Space
	t *tracer
}

func (s spaceTrace) Distance(i, j int) float64 {
	start := time.Now()
	d := s.Space.Distance(i, j) //proxlint:allow oracleescape -- timing wrapper below metric.Oracle: the Oracle above it counts this call, the wrapper resolves nothing of its own
	s.t.finish(mark{start: start}, -1, kMetric, "Distance")
	return d
}

// space returns sp wrapped for timing when tr is non-nil.
func (t *tracer) space(sp metric.Space) metric.Space {
	if t == nil {
		return sp
	}
	return spaceTrace{Space: sp, t: t}
}

// wrapHandler returns h wrapped as kind k when tr is non-nil.
func (t *tracer) wrapHandler(k kind, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return t.handler(k, h)
}

// --- layer table ---

// layerRow is one line of the "where an op's time goes" table.
type layerRow struct {
	Layer    string  `json:"layer"`
	SelfMsOp float64 `json:"self_ms_per_op"`
	Share    float64 `json:"share"`
	Calls    int64   `json:"calls"`
}

// layerTable folds the boundaries' self times into the repository's
// layers, in first-seen order of the boundary kinds.
func layerTable(self [numKinds]float64, s totals, opLayer string, ops int64) []layerRow {
	total := 0.0
	for _, v := range self {
		total += v
	}
	var rows []layerRow
	index := map[string]int{}
	for k := kind(0); k < numKinds; k++ {
		calls := s.count[k]
		if calls == 0 {
			continue
		}
		name := kindLayer[k]
		if k == kOp {
			name = opLayer
		}
		x, ok := index[name]
		if !ok {
			x = len(rows)
			index[name] = x
			rows = append(rows, layerRow{Layer: name})
		}
		rows[x].SelfMsOp += self[k] / 1e6 / float64(ops)
		rows[x].Calls += calls
		if total > 0 {
			rows[x].Share += self[k] / total
		}
	}
	return rows
}

// writeLayers writes layers.json: per workload, the layer table and every
// per-layer metric of the traced run.
func writeLayers(dir string, doc map[string]any) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(data, '\n'), 0o644)
}
