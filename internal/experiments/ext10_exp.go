package experiments

import (
	"fmt"
	"reflect"
	"time"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
	"metricprox/internal/prox"
	"metricprox/internal/stats"
)

func init() {
	register("ext10", "Wall clock vs workers under injected oracle latency (parallel kNN + Borůvka, planar SF)", ext10)
}

// ext10 measures what the concurrency layer buys: the same parallel
// builds over a physically latency-injected oracle (the paper's Figure
// 7d/8a cost regime, really slept rather than modelled) at increasing
// worker counts. Because the Session releases its lock around every
// oracle round-trip and deduplicates in-flight pairs, workers overlap
// their oracle waits and wall clock falls with the worker count; a lock
// held across the oracle call would pin every row to ~1×. The call count
// depends on the resolution interleaving, so it is reported, not
// assumed. The data is planar SF, whose oracle answers a pair the same
// whichever goroutine asks first, and every build is checked against the
// 1-worker build's output.
func ext10(cfg Config) *stats.Table {
	t, _ := ext10Run(cfg)
	return t
}

// ext10Run is ext10 plus its verdict: whether every worker count's kNN
// rows and MST equal the 1-worker build's.
func ext10Run(cfg Config) (*stats.Table, bool) {
	n, k := 64, 4
	latency := 1 * time.Millisecond
	if cfg.Quick {
		n, latency = 32, 300*time.Microsecond
	}
	if cfg.Full {
		n, latency = 96, 2*time.Millisecond
	}
	workerCounts := []int{1, 2, 4, 8}
	space := datasets.SFPOIPlanar(n, cfg.Seed)

	t := &stats.Table{
		ID:      "ext10",
		Title:   fmt.Sprintf("Parallel wall clock vs workers (planar SF, n=%d, oracle latency %v, Tri)", n, latency),
		Columns: []string{"Algorithm", "Workers", "Oracle calls", "Wall clock", "Speedup"},
	}

	builds := []struct {
		name string
		run  func(s *core.Session, workers int) any
	}{
		{"kNN graph", func(s *core.Session, workers int) any { return prox.KNNGraphParallel(s, k, workers) }},
		{"Boruvka MST", func(s *core.Session, workers int) any { return prox.BoruvkaMSTParallel(s, workers) }},
	}
	identical := true
	for _, b := range builds {
		var base time.Duration
		var want any
		for _, workers := range workerCounts {
			o := metric.NewLatencyOracle(space, latency)
			s := core.NewSession(o, core.SchemeTri)
			start := time.Now()
			got := b.run(s, workers)
			elapsed := time.Since(start)
			if workers == 1 {
				base, want = elapsed, got
			} else if !reflect.DeepEqual(got, want) {
				identical = false
			}
			t.AddRow(b.name, fmt.Sprintf("%d", workers), stats.Int(o.Calls()),
				stats.Dur(elapsed), fmt.Sprintf("%.1fx", float64(base)/float64(elapsed)))
		}
	}
	t.Note("Latency is physically slept per oracle call (not the analytical cost model), so the wall-clock column measures the Session's unlocked-oracle resolve path directly. The call count varies with the resolution interleaving. kNN rows and MST at every worker count equal the 1-worker build's: %v.", identical)
	return t, identical
}
