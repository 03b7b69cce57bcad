package prox

import (
	"fmt"
	"math"
	"testing"
	"time"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
)

// gridTieSpace returns a matrix metric with massive distance ties: points
// of a side×side integer grid under Manhattan distance. Nearly every node
// has several candidates at exactly its k-th-nearest distance, which is
// the regime where naive threshold handling makes the neighbour set
// depend on scan order.
func gridTieSpace(t *testing.T, side int) *metric.Matrix {
	t.Helper()
	n := side * side
	d := make([][]float64, n)
	scale := 1.0 / float64(2*(side-1))
	for i := 0; i < n; i++ {
		d[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			dx := math.Abs(float64(i%side - j%side))
			dy := math.Abs(float64(i/side - j/side))
			d[i][j] = (dx + dy) * scale
		}
	}
	m, err := metric.NewMatrix(d)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestKNNGraphParallelMatchesSequential(t *testing.T) {
	m := datasets.RandomMetric(60, 51)
	want := refKNN(m, 4)

	o := metric.NewOracle(m)
	s := core.NewSession(o, core.SchemeTri)
	got := KNNGraphParallel(s, 4, 4)
	if !knnEqual(got, want) {
		t.Fatal("parallel kNN graph diverged from brute force")
	}
}

func TestKNNGraphParallelSavesCalls(t *testing.T) {
	m := datasets.SFPOI(80, 52)
	oN := metric.NewOracle(m)
	noop := core.NewSession(oN, core.SchemeNoop)
	KNNGraphParallel(noop, 5, 4)

	oT := metric.NewOracle(m)
	tri := core.NewSession(oT, core.SchemeTri)
	KNNGraphParallel(tri, 5, 4)

	if oT.Calls() >= oN.Calls() {
		t.Fatalf("parallel Tri kNN made %d calls, Noop %d", oT.Calls(), oN.Calls())
	}
}

func TestKNNGraphParallelSingleWorker(t *testing.T) {
	// One worker must match the sequential builder exactly, calls included.
	m := datasets.RandomMetric(40, 53)
	oSeq := metric.NewOracle(m)
	seq := core.NewSession(oSeq, core.SchemeTri)
	wantG := KNNGraph(seq, 3)

	oPar := metric.NewOracle(m)
	par := core.NewSession(oPar, core.SchemeTri)
	gotG := KNNGraphParallel(par, 3, 1)

	if !knnEqual(gotG, wantG) {
		t.Fatal("single-worker parallel build diverged from sequential")
	}
	if oPar.Calls() != oSeq.Calls() {
		t.Fatalf("single worker made %d calls, sequential %d", oPar.Calls(), oSeq.Calls())
	}
}

// TestKNNGraphTiedDistances is the tied-distance regression test: with
// many candidates at exactly the k-th distance, sequential KNNGraph,
// parallel KNNGraphParallel at every worker count, and the brute-force
// (distance, id) reference must all agree — the canonical tie rule keeps
// the neighbour set independent of scan interleaving.
func TestKNNGraphTiedDistances(t *testing.T) {
	m := gridTieSpace(t, 5)
	const k = 4
	want := refKNN(m, k)

	for _, sc := range []core.Scheme{core.SchemeNoop, core.SchemeTri, core.SchemeSPLUB} {
		seq, _ := sessionFor(m, sc, nil)
		got := KNNGraph(seq, k)
		if !knnEqual(got, want) {
			t.Fatalf("scheme %v: sequential kNN diverged from reference under ties", sc)
		}
		for _, workers := range []int{1, 4, 8} {
			// Several repetitions: the interleaving (and hence the bound
			// tightening order) differs run to run.
			for rep := 0; rep < 3; rep++ {
				sh := core.NewSession(metric.NewOracle(m), sc)
				gotP := KNNGraphParallel(sh, k, workers)
				if !knnEqual(gotP, want) {
					t.Fatalf("scheme %v, workers=%d: parallel kNN diverged from reference under ties", sc, workers)
				}
			}
		}
	}
}

// TestKNNGraphNonPositiveK pins the k ≤ 0 guard: both builders return one
// empty neighbour list per node instead of panicking or emitting lists
// built against an uninitialised threshold.
func TestKNNGraphNonPositiveK(t *testing.T) {
	m := datasets.RandomMetric(12, 55)
	for _, k := range []int{0, -3} {
		s, o := sessionFor(m, core.SchemeTri, nil)
		g := KNNGraph(s, k)
		sh := core.NewSession(metric.NewOracle(m), core.SchemeTri)
		gp := KNNGraphParallel(sh, k, 4)
		if len(g) != 12 || len(gp) != 12 {
			t.Fatalf("k=%d: got %d/%d lists, want 12", k, len(g), len(gp))
		}
		for u := range g {
			if len(g[u]) != 0 || len(gp[u]) != 0 {
				t.Fatalf("k=%d: node %d has non-empty neighbours", k, u)
			}
		}
		if o.Calls() != 0 {
			t.Fatalf("k=%d: spent %d oracle calls on an empty graph", k, o.Calls())
		}
	}
}

func TestBoruvkaParallelMatchesSequential(t *testing.T) {
	m := datasets.RandomMetric(40, 56)
	for _, sc := range []core.Scheme{core.SchemeNoop, core.SchemeTri, core.SchemeSPLUB} {
		seq, _ := sessionFor(m, sc, nil)
		want := BoruvkaMST(seq)
		for _, workers := range []int{1, 2, 4, 8} {
			// The cases share only the read-only metric and want, so they
			// run in parallel once every scheme's reference is built.
			t.Run(fmt.Sprintf("%v_workers=%d", sc, workers), func(t *testing.T) {
				t.Parallel()
				sh := core.NewSession(metric.NewOracle(m), sc)
				got := BoruvkaMSTParallel(sh, workers)
				if math.Abs(got.Weight-want.Weight) > 1e-12 || !sameEdges(got.Edges, want.Edges) {
					t.Fatalf("parallel Borůvka weight %v vs sequential %v", got.Weight, want.Weight)
				}
			})
		}
	}
}

func TestBoruvkaParallelUnderLatency(t *testing.T) {
	// The same parity with a physically slow oracle — the regime the
	// unlocked resolve path exists for.
	m := datasets.RandomMetric(24, 57)
	seq, _ := sessionFor(m, core.SchemeTri, nil)
	want := BoruvkaMST(seq)

	inst := metric.NewInstrumented(m, 200*time.Microsecond)
	sh := core.NewSession(metric.NewOracle(inst), core.SchemeTri)
	got := BoruvkaMSTParallel(sh, 8)
	if math.Abs(got.Weight-want.Weight) > 1e-12 || !sameEdges(got.Edges, want.Edges) {
		t.Fatalf("parallel Borůvka diverged under latency: %v vs %v", got.Weight, want.Weight)
	}
	if max := inst.MaxPairCalls(); max > 1 {
		t.Fatalf("some pair cost %d oracle calls, want at most 1", max)
	}
}

// TestKNNGraphParallelSpeedup is the wall-clock acceptance criterion for
// the unlocked-oracle concurrency layer: with a 10ms injected oracle
// latency on the SF POI dataset, 8 workers must finish the kNN build at
// least 4× faster than 1 worker (the old lock-across-the-oracle design
// pinned this to ~1×), with zero duplicate oracle calls for any pair and
// neighbour sets identical to the sequential builder's.
func TestKNNGraphParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second latency-injection benchmark skipped in -short mode")
	}
	const (
		n       = 40
		k       = 3
		latency = 10 * time.Millisecond
	)
	m := datasets.SFPOI(n, 52)
	seqSession, _ := sessionFor(m, core.SchemeTri, nil)
	want := KNNGraph(seqSession, k)

	runAt := func(workers int) (time.Duration, [][]Neighbor, *metric.Instrumented) {
		inst := metric.NewInstrumented(m, latency)
		s := core.NewSession(metric.NewOracle(inst), core.SchemeTri)
		start := time.Now()
		g := KNNGraphParallel(s, k, workers)
		return time.Since(start), g, inst
	}

	serial, gSerial, instSerial := runAt(1)
	parallel, gParallel, instParallel := runAt(8)

	if !knnEqual(gSerial, want) || !knnEqual(gParallel, want) {
		t.Fatal("latency-injected builds diverged from sequential KNNGraph")
	}
	for _, inst := range []*metric.Instrumented{instSerial, instParallel} {
		if max := inst.MaxPairCalls(); max > 1 {
			t.Fatalf("some pair cost %d oracle calls, want at most 1 (single-flight)", max)
		}
	}
	if speedup := float64(serial) / float64(parallel); speedup < 4 {
		t.Fatalf("8 workers only %.2fx faster than 1 (serial %v, parallel %v), want >= 4x",
			speedup, serial, parallel)
	}
}

func TestSharedSessionStats(t *testing.T) {
	m := datasets.RandomMetric(20, 54)
	o := metric.NewOracle(m)
	s := core.NewSession(o, core.SchemeTri)
	if _, err := s.BootstrapErr(core.PickLandmarks(20, 4, 1)); err != nil {
		t.Fatal(err)
	}
	s.Dist(0, 1)
	s.Less(0, 2, 3, 4)
	s.LessThan(5, 6, 0.5)
	st := s.Stats()
	if st.OracleCalls != o.Calls() {
		t.Fatalf("stats count %d, oracle %d", st.OracleCalls, o.Calls())
	}
	if st.BootstrapCalls == 0 {
		t.Fatal("bootstrap not recorded through shared view")
	}
}
