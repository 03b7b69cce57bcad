package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of an instrument. Instruments with the
// same name but different label sets are distinct time series; the
// conventional keys in this repository are "scheme" (bound scheme name)
// and "phase" ("bootstrap" | "run").
type Label struct {
	// Key is the label name; it must not contain '=', ',', '{' or '}'.
	Key string
	// Value is the label value; same character restrictions as Key.
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// instrumentID renders the canonical identity of an instrument: the name
// followed by its labels sorted by key, in the text form used as the JSON
// exposition key (e.g. `session_oracle_calls_total{phase="run",scheme="tri"}`).
func instrumentID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Registry hands out metric instruments keyed by (name, labels). Handle
// resolution takes the registry mutex; recording through a resolved
// handle is a single atomic operation and never locks, which is why hot
// paths resolve their handles once at construction time. The zero value
// is not usable; call NewRegistry. A Registry is safe for concurrent use.
type Registry struct {
	mu          sync.Mutex
	instruments map[string]any // id -> *Counter | *Gauge | *Histogram
	order       []string       // ids in first-registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{instruments: make(map[string]any)}
}

// Counter returns the counter registered under (name, labels), creating
// it on first use. Requesting an existing id with a different instrument
// kind panics: it is a programming error, not a runtime condition.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	id := instrumentID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.instruments[id]; ok {
		c, ok := in.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obs: instrument %s already registered as %T", id, in))
		}
		return c
	}
	c := &Counter{}
	r.instruments[id] = c
	r.order = append(r.order, id)
	return c
}

// Gauge returns the gauge registered under (name, labels), creating it on
// first use; see Counter for the collision rule.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	id := instrumentID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.instruments[id]; ok {
		g, ok := in.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obs: instrument %s already registered as %T", id, in))
		}
		return g
	}
	g := &Gauge{}
	r.instruments[id] = g
	r.order = append(r.order, id)
	return g
}

// Histogram returns the histogram registered under (name, labels),
// creating it on first use; see Counter for the collision rule.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	id := instrumentID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.instruments[id]; ok {
		h, ok := in.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("obs: instrument %s already registered as %T", id, in))
		}
		return h
	}
	h := &Histogram{}
	r.instruments[id] = h
	r.order = append(r.order, id)
	return h
}

// each visits every instrument in first-registration order. Callers must
// not hold the registry mutex.
func (r *Registry) each(visit func(id string, in any)) {
	r.mu.Lock()
	ids := append([]string(nil), r.order...)
	ins := make([]any, len(ids))
	for i, id := range ids {
		ins[i] = r.instruments[id]
	}
	r.mu.Unlock()
	for i, id := range ids {
		visit(id, ins[i])
	}
}

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; handles from a Registry share state per (name, labels).
// A component keeps its own Counter per instance and Links it to a
// registry series, so its snapshot counts only its own events while the
// series reads the sum of every linked instance.
type Counter struct {
	v     atomic.Int64
	links atomic.Pointer[links] // set on a series once a counter links to it
}

// links are the counters linked to one series.
type links struct {
	mu sync.Mutex
	cs []*Counter
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n panics (counters are monotone by contract).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: Counter.Add with negative delta; use a Gauge")
	}
	c.v.Add(n)
}

// Value returns the current count: c's own adds plus the count of every
// counter linked to c.
func (c *Counter) Value() int64 {
	n := c.v.Load()
	if l := c.links.Load(); l != nil {
		l.mu.Lock()
		for _, k := range l.cs {
			n += k.Value()
		}
		l.mu.Unlock()
	}
	return n
}

// Link makes series count everything c counts, the events c counted
// before the link and every later one: series reads c's count as part of
// its own. Counting on c stays one atomic add, linked or not, and the
// link is exact while other goroutines count on c. Link a counter to a
// series once; the series keeps it for as long as the series lives.
func (c *Counter) Link(series *Counter) {
	l := series.links.Load()
	if l == nil {
		series.links.CompareAndSwap(nil, &links{})
		l = series.links.Load()
	}
	l.mu.Lock()
	l.cs = append(l.cs, c)
	l.mu.Unlock()
}

// Gauge is an atomic float64 that can move in either direction — breaker
// state, queue depth, last-seen values. The zero value is ready to use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value (0 before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the number of log₂-scale histogram buckets. Bucket k
// (k ≥ 1) covers values v with 2^(k−1) ≤ v ≤ 2^k − 1; bucket 0 holds
// exactly 0 (and clamped negatives). With 49 buckets the top finite
// bucket's upper edge is 2^48 − 1 — about 78 hours in nanoseconds —
// and anything larger lands in the last bucket.
const histBuckets = 49

// Histogram is a fixed-layout log₂-scale histogram of int64 values
// (by convention nanoseconds). Observation is two atomic adds on a
// pre-computed bucket index: no locks, no allocation, safe for any
// number of concurrent writers. The zero value is ready to use.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// bucketIndex maps a value to its bucket: 0 → 0, otherwise the bit length
// of v (so 1 → 1, 2..3 → 2, 4..7 → 3, …), clamped to the last bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	idx := bits.Len64(uint64(v))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// BucketUpper returns the inclusive upper edge of bucket idx: 0 for
// bucket 0, 2^idx − 1 otherwise (the last bucket reports math.MaxInt64,
// as it also absorbs clamped overflow).
func BucketUpper(idx int) int64 {
	switch {
	case idx <= 0:
		return 0
	case idx >= histBuckets-1:
		return math.MaxInt64
	default:
		return int64(1)<<idx - 1
	}
}

// Observe records one value. Negative values are clamped to 0 (they can
// only arise from clock anomalies in latency measurement).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bucket is one non-empty histogram bucket in a snapshot: N observations
// with values ≤ Le (and greater than the previous bucket's Le).
type Bucket struct {
	// Le is the bucket's inclusive upper edge.
	Le int64 `json:"le"`
	// N is the number of observations in this bucket.
	N int64 `json:"n"`
}

// HistogramSnapshot is a point-in-time copy of a histogram, as exposed in
// the metrics JSON. Concurrent writers may make Count/Sum/Buckets
// mutually slightly stale; each field is individually consistent.
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count int64 `json:"count"`
	// Sum is the sum of observed values (same unit as the observations).
	Sum int64 `json:"sum"`
	// Buckets lists the non-empty buckets in increasing Le order.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: BucketUpper(i), N: n})
		}
	}
	return s
}

// Quantile returns an upper estimate of the q-quantile (q in [0, 1]): the
// upper edge of the bucket in which the q-th observation falls. With
// log₂ buckets the estimate is within 2× of the true value. Returns 0
// for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	s := h.Snapshot()
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += b.N
		if seen >= rank {
			return b.Le
		}
	}
	return s.Buckets[len(s.Buckets)-1].Le
}
