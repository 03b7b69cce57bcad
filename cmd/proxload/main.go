// Command proxload is metricprox's end-to-end benchmark: a single-process,
// seeded load generator that runs named workloads against the real
// layers — core sessions, the metricproxd service, the proxclient smart
// client, the cluster router and replication — verifies every answer, and
// prints each metric by name and unit.
//
//	go -C cmd/proxload run . -workload all -seed 1
//	go -C cmd/proxload run . -workload knn-inproc,search-hot -seed 2 -trace out
//
// The module is self-contained (it has its own go.mod), so it runs from
// its own directory; bench.sh builds and runs it from the repository root
// with every build artifact under .bench_build/.
//
// Each workload runs twelve rounds from fresh state, each sized by
// -seconds to a fixed number of ops and each running its own slice of the
// seeded traffic on one closed-loop client. Time metrics are the median
// over rounds, and counts are totals over all rounds. -trace runs one
// untraced and one traced round instead and prints the per-layer metrics;
// see README.md.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics of the run. A wrong answer exits 1
// before that line is printed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"

	"metricprox/internal/buildinfo"
)

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

// defaultTraceDir is where -trace 1 writes spans, relative to the
// working directory.
const defaultTraceDir = ".bench_build/proxload-trace"

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("proxload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "workload name, comma list, or all")
	seed := fs.Int64("seed", 1, "traffic seed: every workload generates its traffic from it")
	seconds := fs.Float64("seconds", 12, "measured seconds per workload on the reference machine; sets the ops per round")
	trace := fs.String("trace", "0", "0: untraced; 1: traced, spans under "+defaultTraceDir+"; otherwise the span directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(stderr, "proxload: unexpected arguments (see -h)")
		return 2
	}
	ws, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(stderr, "proxload:", err)
		return 2
	}
	traceDir := ""
	switch *trace {
	case "0", "":
	case "1":
		traceDir = defaultTraceDir
	default:
		traceDir = *trace
	}
	cfg := &config{seed: *seed, seconds: *seconds, rounds: 12, clients: 1}
	fmt.Fprintf(stdout, "# %s GOMAXPROCS=%d nproc=%d seed=%d seconds=%g trace=%q\n",
		buildinfo.String("proxload"), runtime.GOMAXPROCS(0), runtime.NumCPU(), cfg.seed, cfg.seconds, traceDir)

	res, err := runAll(ctx, ws, cfg, traceDir, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "proxload:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "proxload:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func selectWorkloads(spec string) ([]workload, error) {
	if spec == "all" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(spec, ",") {
		found := false
		for _, w := range workloads {
			if w.name == strings.TrimSpace(name) {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q (have search-hot, knn-edit, knn-inproc, cluster-batch, all)", name)
		}
	}
	return out, nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON summary line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	verified  int              // answers verified against a reference
	p90, p99  float64          // latency tail, printed but not metrics
	// slacked counts the bounds that held only within rounding slack; nil
	// when the workload checks no bounds.
	slacked *int64
}

// verify runs b's final verification and records its counts in res.
func verify(b bench, res *result) error {
	checked, err := b.verify()
	if err != nil {
		return err
	}
	res.verified = checked
	if s, ok := b.(interface{ slacked() int64 }); ok {
		n := s.slacked()
		res.slacked = &n
	}
	return nil
}

// runAll runs every selected workload and folds them into one result. A
// single workload reports its metrics under their own names; several are
// keyed "<workload>/<metric>".
func runAll(ctx context.Context, ws []workload, cfg *config, traceDir string, stdout io.Writer) (*result, error) {
	total := &result{Correct: true, Metrics: map[string]value{}}
	layerDoc := map[string]any{}
	for _, w := range ws {
		var res *result
		var err error
		if traceDir == "" {
			res, err = measure(ctx, w, cfg, stdout)
		} else {
			res, err = traced(ctx, w, cfg, traceDir, layerDoc, stdout)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		printMetrics(stdout, w.name, res)
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for name, v := range res.Metrics {
			if len(ws) > 1 {
				name = w.name + "/" + name
			}
			total.Metrics[name] = v
		}
	}
	if traceDir != "" {
		if err := writeLayers(traceDir, layerDoc); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// measure is an untraced run: cfg.rounds rounds, the end-to-end metrics.
// Each round prints its own line, with the shares of set-up and timed
// phase the host withheld, so a run shows how steady it was.
func measure(ctx context.Context, w workload, cfg *config, stdout io.Writer) (*result, error) {
	b, err := w.prepare(cfg)
	if err != nil {
		return nil, err
	}
	var rounds []*round
	for i := 0; i < cfg.rounds; i++ {
		r, err := runRound(ctx, b, i, nil)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		fmt.Fprintf(stdout, "# %s round %d: stolen %.3f/%.3f, setup %.4f s, %.2f ops/s, p50 %.4f ms, p90 %.4f ms, p99 %.4f ms, cpu %.4f ms/op\n",
			w.name, i, r.setupStolen, r.stolen, r.setup.Seconds(), float64(r.ops)/r.wall.Seconds(),
			quantile(r.latMs, 0.50), quantile(r.latMs, 0.90), quantile(r.latMs, 0.99), ms(r.cpu)/float64(r.ops))
	}
	res := endToEndResult(rounds)
	if err := verify(b, res); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEndResult folds rounds into the end-to-end metrics. Time metrics
// are medians over rounds, so a spell of the machine that spoils a few
// rounds does not move them. Set-up time and the timed phase behind
// ops_per_s leave out the share the host withheld (see steal.go); the
// latency percentiles are per op and keep it, since a short op either
// misses the host's pauses or carries a whole one. Oracle calls are
// totals over all rounds. The p90 and p99 latencies are printed but are
// no metrics: they ride on the host's pauses and spread from run to run
// by more than any bound.
func endToEndResult(rounds []*round) *result {
	res := &result{Correct: true, Metrics: map[string]value{}}
	var setup, rate, cpu, alloc, heap, p50, p90, p99 []float64
	var calls int64
	for _, r := range rounds {
		ops := float64(r.ops)
		res.Attempted += r.ops
		res.Failed += r.failed
		calls += r.calls
		setup = append(setup, r.setup.Seconds()*(1-r.setupStolen))
		rate = append(rate, ops/(r.wall.Seconds()*(1-r.stolen)))
		cpu = append(cpu, ms(r.cpu)/ops)
		alloc = append(alloc, float64(r.alloc)/ops)
		heap = append(heap, float64(r.heap)/(1<<20))
		p50 = append(p50, quantile(r.latMs, 0.50))
		p90 = append(p90, quantile(r.latMs, 0.90))
		p99 = append(p99, quantile(r.latMs, 0.99))
	}
	vals := map[string]float64{
		"setup_s":             median(setup),
		"ops_per_s":           median(rate),
		"latency_p50_ms":      median(p50),
		"cpu_ms_per_op":       median(cpu),
		"oracle_calls_per_op": float64(calls) / float64(res.Attempted),
		"alloc_bytes_per_op":  median(alloc),
		"live_heap_mb":        median(heap),
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = value{Value: finite(vals[m.Name]), Unit: m.Unit}
	}
	res.p90, res.p99 = finite(median(p90)), finite(median(p99))
	return res
}

// finite caps a percentile that landed on a failed op (+Inf) so the
// result line stays valid JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// traced runs one untraced and one traced round of the same ops, checks
// that both gave the same answers, and reports the per-layer metrics.
func traced(ctx context.Context, w workload, cfg *config, dir string, doc map[string]any, stdout io.Writer) (*result, error) {
	// The seeded traffic of a one-round run, sized like one round of a
	// measurement run: every answer sampled for verification is in it.
	one := *cfg
	one.seconds, one.rounds = cfg.seconds/float64(cfg.rounds), 1
	b, err := w.prepare(&one)
	if err != nil {
		return nil, err
	}
	plain, err := runRound(ctx, b, 0, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(cfg.seed)
	r, err := runRound(ctx, b, 0, tr)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: plain.ops + r.ops, Failed: plain.failed + r.failed, Metrics: map[string]value{}}
	if err := verify(b, res); err != nil {
		return nil, err
	}
	for x := range r.digests {
		if r.digests[x] != plain.digests[x] {
			return nil, &wrongAnswer{fmt.Sprintf("op %d answered differently with tracing on", x)}
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeSpans(filepath.Join(dir, w.name+".spans.jsonl")); err != nil {
		return nil, err
	}

	vals, rows := layerMetrics(w, r, plain)
	printLayers(stdout, w.name, rows, vals)
	doc[w.name] = map[string]any{"layers": rows, "metrics": vals,
		"oracle_calls_per_op": map[string]float64{
			"untraced": float64(plain.calls) / float64(plain.ops),
			"traced":   float64(r.calls) / float64(r.ops),
		}}
	for _, m := range perLayer {
		// A layer the workload does not cross reports 0.
		res.Metrics[m.Name] = value{Value: vals[m.Name], Unit: m.Unit}
	}
	return res, nil
}

// layerMetrics computes every per-layer metric from the traced round r;
// the runtime and load-generator metrics come from the untraced round,
// which tracing cannot perturb.
func layerMetrics(w workload, r, plain *round) (map[string]float64, []layerRow) {
	ops := float64(r.ops)
	t := r.trace
	self := t.selfNs(w.tree)
	perOp := func(ns float64) float64 { return ns / 1e6 / ops }
	vals := map[string]float64{}
	for name, v := range r.layer {
		vals[name] = v
	}
	vals[w.opLayer+".self_ms_per_op"] = perOp(self[kOp])
	vals["proxclient.self_ms_per_op"] = perOp(self[kProxclient])
	if t.count[kProxclient] > 0 {
		vals["proxclient.round_trips_per_op"] = float64(t.count[kClientRT]) / ops
	}
	if t.primitives > 0 {
		vals["proxclient.mirror_hit_frac"] = float64(t.mirrorHits) / float64(t.primitives)
	}
	vals["transport.self_ms_per_op"] = perOp(self[kClientRT] + self[kUpstreamRT])
	vals["transport.bytes_per_op"] = float64(t.bytes) / ops
	vals["cluster.router_self_ms_per_op"] = perOp(self[kRouter])
	vals["service.self_ms_per_op"] = perOp(self[kNode])
	vals["service.requests_per_op"] = float64(t.count[kNode]) / ops
	if t.count[kNode] > 0 {
		vals["service.shed_frac"] = float64(t.shed) / float64(t.count[kNode])
	}
	vals["core.self_ms_per_op"] = perOp(self[kView])
	vals["bounds.ms_per_op"] = perOp(self[kBounds])
	if n := t.count[kBounds]; n > 0 {
		vals["bounds.ns_per_query"] = float64(t.busy[kBounds]) / float64(n)
	}
	vals["metric.busy_ms_per_op"] = perOp(self[kMetric])
	if n := t.count[kMetric]; n > 0 {
		vals["metric.us_per_call"] = float64(t.busy[kMetric]) / 1e3 / float64(n)
	}
	vals["nsw.build_s"] = plain.layer["nsw.build_s"]
	vals["runtime.gc_cycles_per_kop"] = float64(plain.gcs) * 1000 / float64(plain.ops)
	vals["runtime.gc_cpu_frac"] = plain.gcFrac
	plainCPU := ms(plain.cpu) / float64(plain.ops)
	if plainCPU > 0 {
		vals["proxload.trace_overhead_frac"] = ms(r.cpu)/ops/plainCPU - 1
	}
	return vals, layerTable(self, t, w.opLayer, r.ops)
}

func printMetrics(w io.Writer, workload string, res *result) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	defs := endToEnd
	if _, ok := res.Metrics[perLayer[0].Name]; ok {
		defs = perLayer
	}
	for _, m := range defs {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t\n", workload, m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	if defs[0] == endToEnd[0] {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t\n", workload, "latency_p90_ms", res.p90, "ms")
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t\n", workload, "latency_p99_ms", res.p99, "ms")
	}
	errFrac := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t\n", workload, "error_frac", errFrac, "failed/attempted")
	fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t\n", workload, "verified", res.verified, "answers")
	if res.slacked != nil {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t\n", workload, "bounds_within_slack", *res.slacked, "bounds")
	}
	tw.Flush()
}

// printLayers prints the "where an op's time goes" table.
func printLayers(w io.Writer, workload string, rows []layerRow, vals map[string]float64) {
	fmt.Fprintf(w, "## %s: where an op's time goes (traced round)\n", workload)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "layer\tself ms/op\tshare\tcalls\t\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.4f\t%.1f%%\t%d\t\n", r.Layer, r.SelfMsOp, 100*r.Share, r.Calls)
	}
	tw.Flush()
	fmt.Fprintf(w, "runtime gc cpu share %.1f%%; tracing overhead %+.1f%% cpu_ms_per_op\n",
		100*vals["runtime.gc_cpu_frac"], 100*vals["proxload.trace_overhead_frac"])
}
