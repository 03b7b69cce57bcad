package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestBucketIndexBoundaries pins the log₂ bucket layout at its edges:
// every power of two starts a new bucket, 2^k−1 closes the previous one,
// and the extremes (0, negatives, MaxInt64) land where BucketUpper says
// they do.
func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{math.MinInt64, 0}, {-1, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 20, 21}, {1<<21 - 1, 21},
		{1 << 47, 48}, {1<<48 - 1, 48},
		// Everything past the top finite edge clamps into the last bucket.
		{1 << 48, histBuckets - 1},
		{math.MaxInt64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestBucketUpperMatchesIndex checks the two halves of the layout against
// each other: a value is never above its bucket's upper edge and always
// above the previous bucket's.
func TestBucketUpperMatchesIndex(t *testing.T) {
	if got := BucketUpper(0); got != 0 {
		t.Errorf("BucketUpper(0) = %d, want 0", got)
	}
	if got := BucketUpper(1); got != 1 {
		t.Errorf("BucketUpper(1) = %d, want 1", got)
	}
	if got := BucketUpper(histBuckets - 2); got != 1<<47-1 {
		t.Errorf("BucketUpper(%d) = %d, want 2^47-1", histBuckets-2, got)
	}
	for _, idx := range []int{-1, histBuckets - 1, histBuckets, histBuckets + 10} {
		want := int64(math.MaxInt64)
		if idx <= 0 {
			want = 0
		}
		if got := BucketUpper(idx); got != want {
			t.Errorf("BucketUpper(%d) = %d, want %d", idx, got, want)
		}
	}
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 100, 1<<30 + 7, 1<<48 - 1, 1 << 48, math.MaxInt64} {
		idx := bucketIndex(v)
		if v > BucketUpper(idx) {
			t.Errorf("value %d above its bucket edge BucketUpper(%d)=%d", v, idx, BucketUpper(idx))
		}
		if idx > 0 && v <= BucketUpper(idx-1) {
			t.Errorf("value %d not above previous bucket edge BucketUpper(%d)=%d", v, idx-1, BucketUpper(idx-1))
		}
	}
}

// TestHistogramObserveSnapshot checks counting, negative clamping, and
// the non-empty-buckets-only snapshot shape.
func TestHistogramObserveSnapshot(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, -5, 1, 3, 3, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("Count = %d, want 6", s.Count)
	}
	if s.Sum != 0+0+1+3+3+1000 {
		t.Fatalf("Sum = %d, want 1007 (negatives clamp to 0)", s.Sum)
	}
	want := []Bucket{{Le: 0, N: 2}, {Le: 1, N: 1}, {Le: 3, N: 2}, {Le: 1023, N: 1}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("Buckets = %+v, want %+v", s.Buckets, want)
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Fatalf("Buckets[%d] = %+v, want %+v", i, s.Buckets[i], want[i])
		}
	}
}

// TestHistogramQuantile checks the upper-estimate contract: the returned
// edge is the smallest bucket edge covering the requested rank.
func TestHistogramQuantile(t *testing.T) {
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %d, want 0", got)
	}
	var h Histogram
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	// Rank 50 falls in bucket (32..63]; rank 100 in (64..127].
	if got := h.Quantile(0.5); got != 63 {
		t.Errorf("p50 = %d, want 63", got)
	}
	if got := h.Quantile(1); got != 127 {
		t.Errorf("p100 = %d, want 127", got)
	}
	if got, want := h.Quantile(-1), h.Quantile(0); got != want {
		t.Errorf("q<0 = %d, want clamp to q=0 (%d)", got, want)
	}
	if got, want := h.Quantile(2), h.Quantile(1); got != want {
		t.Errorf("q>1 = %d, want clamp to q=1 (%d)", got, want)
	}
}

// TestRegistryIdentity checks that label order does not split series, that
// distinct labels do, and that kind collisions panic.
func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", L("scheme", "tri"), L("phase", "run"))
	b := r.Counter("x_total", L("phase", "run"), L("scheme", "tri"))
	if a != b {
		t.Fatal("same (name, labels) in different order produced distinct counters")
	}
	if c := r.Counter("x_total", L("phase", "bootstrap"), L("scheme", "tri")); c == a {
		t.Fatal("distinct label values shared a counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering an existing counter id as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", L("scheme", "tri"), L("phase", "run"))
}

// TestCounterNegativeAddPanics pins the monotonicity contract.
func TestCounterNegativeAddPanics(t *testing.T) {
	var c Counter
	defer func() {
		if recover() == nil {
			t.Fatal("Counter.Add(-1) did not panic")
		}
	}()
	c.Add(-1)
}

// TestCounterLink checks that a series sums its own adds and the
// counters linked to it, that each instance keeps its own count, that a
// late link brings the count so far, and that a link racing with
// counting loses and doubles nothing.
func TestCounterLink(t *testing.T) {
	r := NewRegistry()
	series := r.Counter("linked_total")
	var a, b Counter
	a.Add(5) // counted before the link
	a.Link(series)
	b.Link(series)
	a.Inc()
	b.Add(3)
	series.Inc()
	if a.Value() != 6 || b.Value() != 3 || series.Value() != 10 {
		t.Fatalf("a=%d b=%d series=%d, want 6, 3 and 10", a.Value(), b.Value(), series.Value())
	}

	var c Counter
	const workers, per = 4, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	c.Link(series)
	wg.Wait()
	if c.Value() != workers*per || series.Value() != 10+workers*per {
		t.Fatalf("racing link: c=%d series=%d, want %d and %d", c.Value(), series.Value(), workers*per, 10+workers*per)
	}
}

// TestConcurrentRecording hammers one counter, one gauge, and one
// histogram from many goroutines (run under -race in CI) and checks the
// exact totals.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("conc_total")
			g := r.Gauge("conc_gauge")
			h := r.Histogram("conc_hist")
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("conc_total").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	h := r.Histogram("conc_hist")
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	if got, want := h.Sum(), int64(workers)*per*(per-1)/2; got != want {
		t.Fatalf("histogram sum = %d, want %d", got, want)
	}
	var n int64
	for _, b := range h.Snapshot().Buckets {
		n += b.N
	}
	if n != workers*per {
		t.Fatalf("bucket total = %d, want %d", n, workers*per)
	}
}

// TestWriteJSON checks the exposition output is valid JSON keyed by the
// canonical instrument ids.
func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", L("scheme", "tri")).Add(3)
	r.Gauge("b_state").Set(2)
	r.Histogram("c_ns").Observe(100)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("exposition is not valid JSON: %v\n%s", err, b.String())
	}
	for _, id := range []string{`a_total{scheme="tri"}`, "b_state", "c_ns"} {
		if _, ok := out[id]; !ok {
			t.Errorf("exposition missing %s; got keys %v", id, keys(out))
		}
	}
	var hist HistogramSnapshot
	if err := json.Unmarshal(out["c_ns"], &hist); err != nil || hist.Count != 1 {
		t.Errorf("histogram exposition = %s (err %v), want count 1", out["c_ns"], err)
	}
}

func keys(m map[string]json.RawMessage) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
