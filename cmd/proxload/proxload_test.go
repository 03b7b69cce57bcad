package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
	"metricprox/internal/prox"
	"metricprox/internal/proxclient"
	"metricprox/internal/service/api"
)

func toyConfig(clients int) *config {
	return &config{seed: 7, seconds: 1, rounds: 1, clients: clients, toy: true}
}

// TestToyWorkloads runs every workload at toy size through the same path
// an untraced run takes and checks the emitted metrics.
func TestToyWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := measure(context.Background(), w, toyConfig(1), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted != toyOps {
				t.Fatalf("failed %d of %d ops, want 0 of %d", res.Failed, res.Attempted, toyOps)
			}
			if res.verified == 0 {
				t.Fatal("no answer was verified")
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Fatalf("emitted %d metrics, manifest has %d", len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Fatalf("metric %s = %+v, want unit %s", m.Name, v, m.Unit)
				}
				// A toy search graph over 64 objects resolves every distance
				// its queries need while it is built.
				zeroOK := m.Name == "oracle_calls_per_op" && w.name == "search-hot"
				if !(v.Value > 0 || zeroOK && v.Value == 0) || math.IsInf(v.Value, 0) {
					t.Errorf("metric %s = %v, want a positive finite value", m.Name, v.Value)
				}
			}
		})
	}
}

// TestTracedToyRun checks the traced round against an untraced one: the
// same answers, the same oracle calls, non-negative self times that add
// up to the op time, and every per-layer metric present.
func TestTracedToyRun(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// One client keeps the call count independent of interleaving.
			b, err := w.prepare(toyConfig(1))
			if err != nil {
				t.Fatal(err)
			}
			plain, err := runRound(ctx, b, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer(7)
			r, err := runRound(ctx, b, 0, tr)
			if err != nil {
				t.Fatal(err)
			}
			if r.calls != plain.calls {
				t.Errorf("traced round made %d oracle calls, untraced %d", r.calls, plain.calls)
			}
			for x := range r.digests {
				if r.digests[x] != plain.digests[x] {
					t.Fatalf("op %d answered differently with tracing on", x)
				}
			}
			self := r.trace.selfNs(w.tree)
			sum := 0.0
			for k, v := range self {
				if v < 0 {
					t.Errorf("%s self time %v ns < 0", kindLayer[k], v)
				}
				sum += v
			}
			op := float64(r.trace.busy[kOp])
			if op <= 0 || math.Abs(sum-op) > 0.05*op {
				t.Errorf("self times sum to %v ns, op time %v ns", sum, op)
			}
			for c := range w.tree {
				if r.trace.count[c] == 0 && !(c == kMetric && r.calls == 0) {
					t.Errorf("boundary %s of the workload's tree saw no calls", kindLayer[c])
				}
			}
			vals, rows := layerMetrics(w, r, plain)
			if len(rows) == 0 {
				t.Fatal("empty layer table")
			}
			for _, m := range perLayer {
				if v := vals[m.Name]; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", m.Name, v)
				}
			}
			if _, err := b.verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTracedRunWritesSpans drives the command line end to end.
func TestTracedRunWritesSpans(t *testing.T) {
	dir := t.TempDir()
	cfgs := []string{"-workload", "knn-inproc", "-seed", "3", "-seconds", "5", "-trace", dir}
	var out, errOut bytes.Buffer
	// The command line has no toy switch; a five-second knn-inproc run
	// (half a second a round) is small enough to keep here.
	if code := run(context.Background(), cfgs, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(perLayer) {
		t.Fatalf("result %+v", res)
	}
	for _, f := range []string{"layers.json", "knn-inproc.spans.jsonl"} {
		if st, err := os.Stat(dir + "/" + f); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// TestVerifiersRejectCorruptAnswers feeds each verifier a corrupted
// answer: the checks must be live.
func TestVerifiersRejectCorruptAnswers(t *testing.T) {
	ctx := context.Background()
	isWrong := func(err error) bool {
		var w *wrongAnswer
		return errors.As(err, &w)
	}

	t.Run("search-hot", func(t *testing.T) {
		b, err := prepareSearchHot(toyConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runRound(ctx, b, 0, nil); err != nil {
			t.Fatal(err)
		}
		sh := b.(*searchHot)
		if len(sh.answers) == 0 {
			t.Fatal("no sampled answers")
		}
		body := sh.answers[0].body
		sh.answers[0].body = bytes.Replace(body, []byte(`"id":`), []byte(`"id":1`), 1)
		if _, err := b.verify(); !isWrong(err) {
			t.Fatalf("corrupted /search body: verify = %v", err)
		}
	})

	for _, name := range []string{"knn-edit", "knn-inproc"} {
		t.Run(name, func(t *testing.T) {
			w, _ := selectWorkloads(name)
			b, err := w[0].prepare(toyConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runRound(ctx, b, 0, nil); err != nil {
				t.Fatal(err)
			}
			var kb *knnBench
			switch v := b.(type) {
			case *knnEdit:
				kb = v.knnBench
			case *knnInproc:
				kb = v.knnBench
			}
			if len(kb.rows) == 0 {
				t.Fatal("no sampled rows")
			}
			for _, rows := range kb.rows {
				last := &rows[0][len(rows[0])-1]
				last.Dist = math.Nextafter(last.Dist, 2)
				break
			}
			if _, err := b.verify(); !isWrong(err) {
				t.Fatalf("corrupted kNN row: verify = %v", err)
			}
		})
	}

	t.Run("cluster-batch", func(t *testing.T) {
		bb, err := prepareClusterBatch(toyConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		b := bb.(*clusterBatch)
		req := b.batch(0)
		truth := func(op api.BatchOp) float64 {
			return b.space.Distance(op.I, op.J)
		}
		honest := api.BatchResponse{Results: make([]api.BatchResult, len(req.Ops))}
		for k, op := range req.Ops {
			d := truth(op)
			switch op.Op {
			case api.OpDist:
				honest.Results[k].D = api.WireFloat(d)
			case api.OpBounds:
				honest.Results[k].LB, honest.Results[k].UB = api.WireFloat(d), api.WireFloat(d)
			case api.OpDistIfLess:
				honest.Results[k].Less = d < float64(op.C)
				if honest.Results[k].Less {
					honest.Results[k].D = api.WireFloat(d)
				}
			}
		}
		slack := boundsSlack(1)
		if n, err := checkBatch(b.space, slack, req, honest); err != nil || n != 0 {
			t.Fatalf("honest batch: %d bounds within slack, err %v", n, err)
		}
		// A bound off by one ulp passes, and is counted.
		rounded := api.BatchResponse{Results: append([]api.BatchResult(nil), honest.Results...)}
		for k, op := range req.Ops {
			if op.Op == api.OpBounds {
				rounded.Results[k].LB = api.WireFloat(math.Nextafter(truth(op), 2))
				break
			}
		}
		if n, err := checkBatch(b.space, slack, req, rounded); err != nil || n != 1 {
			t.Fatalf("bound one ulp off: %d bounds within slack, err %v", n, err)
		}
		for _, kind := range []string{api.OpDist, api.OpBounds, api.OpDistIfLess} {
			bad := api.BatchResponse{Results: append([]api.BatchResult(nil), honest.Results...)}
			for k, op := range req.Ops {
				if op.Op != kind {
					continue
				}
				res := &bad.Results[k]
				switch kind {
				case api.OpDist:
					res.D = api.WireFloat(math.Nextafter(float64(res.D), 2))
				case api.OpBounds:
					res.UB = api.WireFloat(truth(op) - 1e-9)
				case api.OpDistIfLess:
					res.Less = !res.Less
				}
				break
			}
			if _, err := checkBatch(b.space, slack, req, bad); !isWrong(err) {
				t.Errorf("corrupted %s result: check = %v", kind, err)
			}
		}
	})
}

// TestStolenShare checks the share of wanted CPU time the host withheld.
func TestStolenShare(t *testing.T) {
	a := cpuTicks{busy: 1000, steal: 50}
	for _, c := range []struct {
		b    cpuTicks
		want float64
	}{
		{cpuTicks{busy: 1080, steal: 70}, 0.2},
		{cpuTicks{busy: 1100, steal: 50}, 0},
		{cpuTicks{}, 0}, // /proc/stat unreadable
	} {
		if got := stolenShare(a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("stolenShare(%+v, %+v) = %v, want %v", a, c.b, got, c.want)
		}
	}
}

// TestTraceViewKeepsOptionalInterfaces checks the View wrapper exposes
// exactly the optional extensions of each session it wraps.
func TestTraceViewKeepsOptionalInterfaces(t *testing.T) {
	ct := newTracer(1).client()
	shared := core.Share(core.NewSession(metric.NewOracle(datasets.SFPOIPlanar(8, 1)), core.SchemeTri))
	views := map[string]core.FallibleView{"SharedSession": shared, "proxclient.Session": &proxclient.Session{}}
	for name, inner := range views {
		w := traceView(inner, ct)
		_, pf := inner.(core.BoundsPrefetcher)
		_, wpf := w.(core.BoundsPrefetcher)
		_, bb := inner.(core.BatchBoundsView)
		_, wbb := w.(core.BatchBoundsView)
		if pf != wpf || bb != wbb {
			t.Errorf("%s: prefetcher %v->%v, batch bounds %v->%v", name, pf, wpf, bb, wbb)
		}
	}
	// The in-process wrapper answers exactly what the session answers.
	w := traceView(shared, ct)
	if got, want := prox.KNNRow(w, 3, 2), prox.KNNRow(shared, 3, 2); !sameRows(got, want) {
		t.Fatalf("wrapped KNNRow %v, raw %v", got, want)
	}
}

func sameRows(a, b []prox.Neighbor) bool { return sameRow(0, a, b) == nil }

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json and the binary's
// manifest identical.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloads) || len(workloads) > 8 {
		t.Fatalf("BENCHMARK.json has %d workloads, binary %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, binary %q %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, binary %d", len(doc.EndToEnd), len(endToEnd))
	}
	// Only the time metrics, which follow the machine's speed, may carry a
	// bound above 0.10; counts and bytes repeat from run to run.
	timeMetric := map[string]bool{"setup_s": true, "ops_per_s": true, "latency_p50_ms": true, "cpu_ms_per_op": true}
	maxBound := 0.0
	for i, m := range endToEnd {
		checkName(m.Name)
		got := doc.EndToEnd[i]
		if got.metricDef != m || !unit.MatchString(m.Unit) {
			t.Errorf("end-to-end %d: json %+v, binary %+v", i, got.metricDef, m)
		}
		limit := 0.10
		if timeMetric[m.Name] {
			limit = 0.25
		}
		if got.Bound <= 0 || got.Bound > limit {
			t.Errorf("%s bound %v outside (0, %v]", m.Name, got.Bound, limit)
		}
		maxBound = math.Max(maxBound, got.Bound)
	}
	if doc.EndToEnd[0].Name != "setup_s" || doc.EndToEnd[0].Bound < maxBound {
		t.Errorf("setup_s must carry the largest bound")
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, binary %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		checkName(m.Name)
		if doc.PerLayer[i] != m || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer %d: json %+v, binary %+v", i, doc.PerLayer[i], m)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "cmd/proxload" {
		t.Errorf("paths = %v", doc.Paths)
	}
}
