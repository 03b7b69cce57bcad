package nsw

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
	"metricprox/internal/prox"
)

// newSession builds an in-process session over the planar SF surrogate —
// a pure function of (n, seed), so every test run and every process sees
// identical distances (the same reason the CI smoke jobs use it).
func newSession(t testing.TB, n int, scheme core.Scheme) *core.Session {
	t.Helper()
	space := datasets.SFPOIPlanar(n, 1)
	lms := core.PickLandmarks(n, 8, 1)
	s := core.NewSessionWithLandmarks(metric.NewOracle(space), scheme, lms)
	if scheme != core.SchemeNoop {
		s.Bootstrap(lms)
	}
	return s
}

func dumpString(t *testing.T, g *Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Dump(&buf); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	return buf.String()
}

func TestBuildDeterministic(t *testing.T) {
	const n = 120
	p := Params{M: 6, EfConstruction: 24, Seed: 7}
	g1, err := Build(newSession(t, n, core.SchemeTri), p)
	if err != nil {
		t.Fatalf("build 1: %v", err)
	}
	g2, err := Build(newSession(t, n, core.SchemeTri), p)
	if err != nil {
		t.Fatalf("build 2: %v", err)
	}
	if d1, d2 := dumpString(t, g1), dumpString(t, g2); d1 != d2 {
		t.Fatalf("same seed produced different graphs:\n%s\nvs\n%s", d1, d2)
	}
	if g1.Inserted() != n || g1.N() != n {
		t.Fatalf("complete build: inserted %d of %d", g1.Inserted(), g1.N())
	}
}

// TestBuildSchemeIdentity is the package's output-preservation claim:
// bound schemes change which comparisons are paid for, never how they
// resolve, so Noop (exhaustive) and Tri (pruned) builds are identical —
// and Tri pays strictly fewer oracle calls doing it.
func TestBuildSchemeIdentity(t *testing.T) {
	const n = 120
	p := Params{M: 6, EfConstruction: 24, Seed: 3}

	noop := newSession(t, n, core.SchemeNoop)
	gNoop, err := Build(noop, p)
	if err != nil {
		t.Fatalf("noop build: %v", err)
	}
	tri := newSession(t, n, core.SchemeTri)
	gTri, err := Build(tri, p)
	if err != nil {
		t.Fatalf("tri build: %v", err)
	}
	if dn, dt := dumpString(t, gNoop), dumpString(t, gTri); dn != dt {
		t.Fatalf("noop and tri builds diverged:\n%s\nvs\n%s", dn, dt)
	}
	// Stats().OracleCalls already folds bootstrap calls in.
	nc, tc := noop.Stats().OracleCalls, tri.Stats().OracleCalls
	if tc >= nc {
		t.Fatalf("tri build saved nothing: %d calls (incl. bootstrap) vs noop %d", tc, nc)
	}
	t.Logf("build calls: noop %d, tri %d (%.2fx saved)", nc, tc, float64(nc)/float64(tc))
}

// TestBuildLandmarkSeeded pins the seeded builder's contracts: the
// landmark list is part of the build's identity (seeded ≠ unseeded,
// same seeds ⇒ byte-identical), scheme identity still holds, and the
// seeding is what unlocks the large savings — a bootstrapped Tri
// session answers every d(landmark, ·) resolution from cache, so the
// seeded IF build must beat the unseeded naive one by a wide margin
// (ext13 measures ~1.9× on this space at n=400).
func TestBuildLandmarkSeeded(t *testing.T) {
	// n must be large enough that the one-time bootstrap (8·n calls) is
	// amortised; at n=400 the seeded build clears the gate with margin.
	const n = 400
	lms := core.PickLandmarks(n, 8, 1)
	p := Params{M: 8, EfConstruction: 32, Seed: 3, Landmarks: lms}

	noop := newSession(t, n, core.SchemeNoop)
	gNoop, err := Build(noop, p)
	if err != nil {
		t.Fatalf("noop build: %v", err)
	}
	tri := newSession(t, n, core.SchemeTri)
	gTri, err := Build(tri, p)
	if err != nil {
		t.Fatalf("tri build: %v", err)
	}
	if dn, dt := dumpString(t, gNoop), dumpString(t, gTri); dn != dt {
		t.Fatalf("seeded noop and tri builds diverged:\n%s\nvs\n%s", dn, dt)
	}

	// Seeding changes the traversal, so the graph differs from the
	// unseeded one built from the same insertion order.
	plain, err := Build(newSession(t, n, core.SchemeTri), Params{M: 8, EfConstruction: 32, Seed: 3})
	if err != nil {
		t.Fatalf("plain build: %v", err)
	}
	if dumpString(t, plain) == dumpString(t, gTri) {
		t.Fatal("landmark seeding produced the identical graph to the unseeded build")
	}

	// The headline economics: seeded Tri (bootstrap included) beats the
	// naive unseeded build by well over the ext13 gate's 1.5×.
	naive := newSession(t, n, core.SchemeNoop)
	if _, err := Build(naive, Params{M: 8, EfConstruction: 32, Seed: 3}); err != nil {
		t.Fatalf("naive build: %v", err)
	}
	nc, tc := naive.Stats().OracleCalls, tri.Stats().OracleCalls
	if ratio := float64(nc) / float64(tc); ratio < 1.5 {
		t.Fatalf("seeded tri build ratio %.2f (naive %d vs %d incl. bootstrap) below 1.5", ratio, nc, tc)
	} else {
		t.Logf("build calls: naive %d, seeded tri %d (%.2fx saved)", nc, tc, ratio)
	}

	// Seeded graphs answer seeded queries; recall stays perfect at this
	// scale (the beam starts next to q).
	exact := newSession(t, n, core.SchemeNoop)
	for q := 0; q < n; q += 17 {
		got, err := gTri.Search(tri, q, 5, 24)
		if err != nil {
			t.Fatalf("seeded search %d: %v", q, err)
		}
		want := prox.KNNRow(exact, q, 5)
		for x := range want {
			if got[x].ID != want[x].ID {
				t.Fatalf("seeded search %d: got %v, want %v", q, got, want)
			}
		}
	}
}

// TestSearchRecallFloor pins the approximate-search quality on the
// planar surrogate: recall@10 over every in-universe query must clear
// 0.9 at the default parameters. The floor is deliberately below the
// measured value (1.0 at n=200) so dataset-neutral tweaks don't flake
// the suite, while a navigability regression still fails it.
func TestSearchRecallFloor(t *testing.T) {
	const (
		n        = 200
		k        = 10
		efSearch = 64
		floor    = 0.90
	)
	s := newSession(t, n, core.SchemeTri)
	g, err := Build(s, Params{Seed: 1})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	exact := newSession(t, n, core.SchemeNoop)
	hits, total := 0, 0
	for q := 0; q < n; q++ {
		got, err := g.Search(s, q, k, efSearch)
		if err != nil {
			t.Fatalf("search %d: %v", q, err)
		}
		if len(got) != k {
			t.Fatalf("search %d returned %d results, want %d", q, len(got), k)
		}
		truth := prox.KNNRow(exact, q, k)
		want := make(map[int]bool, k)
		for _, nb := range truth {
			want[nb.ID] = true
		}
		for _, nb := range got {
			if nb.ID == q {
				t.Fatalf("search %d returned the query itself", q)
			}
			if want[nb.ID] {
				hits++
			}
		}
		total += k
	}
	recall := float64(hits) / float64(total)
	t.Logf("recall@%d over %d queries: %.4f", k, n, recall)
	if recall < floor {
		t.Fatalf("recall@%d = %.4f below the %.2f floor", k, recall, floor)
	}
}

func TestSearchArgumentErrors(t *testing.T) {
	s := newSession(t, 40, core.SchemeTri)
	g, err := Build(s, Params{Seed: 1})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := g.Search(s, -1, 5, 16); err == nil {
		t.Error("negative query accepted")
	}
	if _, err := g.Search(s, 40, 5, 16); err == nil {
		t.Error("out-of-range query accepted")
	}
	if _, err := g.Search(s, 0, 0, 16); err == nil {
		t.Error("k=0 accepted")
	}
}

// budgetOracle fails every resolution after the first `budget` calls —
// the sharpest possible mid-build outage, placed exactly where the test
// wants it.
type budgetOracle struct {
	inner  metric.FallibleOracle
	budget int
	calls  int
}

// errBudget is the injected backend failure.
var errBudget = errors.New("budget oracle: out of calls")

func (b *budgetOracle) Len() int { return b.inner.Len() }

func (b *budgetOracle) DistanceCtx(ctx context.Context, i, j int) (float64, error) {
	b.calls++
	if b.calls > b.budget {
		return 0, errBudget
	}
	return b.inner.DistanceCtx(ctx, i, j)
}

// TestBuildAbortCommittedPrefix drives the oracle into a permanent
// outage mid-build and checks the degraded-path contract: a typed
// *BuildError wrapping core.ErrOracleUnavailable, a graph holding
// exactly the committed prefix (no half-linked node, no edge touching an
// uninserted node), deterministic across runs, and still searchable.
func TestBuildAbortCommittedPrefix(t *testing.T) {
	const n, budget = 120, 900
	p := Params{M: 6, EfConstruction: 24, Seed: 7}
	space := datasets.SFPOIPlanar(n, 1)
	build := func() (*Graph, *core.Session, error) {
		s := core.NewFallibleSession(&budgetOracle{inner: metric.NewOracle(space), budget: budget}, core.SchemeTri)
		g, err := Build(s, p)
		return g, s, err
	}
	g, _, err := build()
	if err == nil {
		t.Fatalf("budget %d survived a %d-node build; raise the test's pressure", budget, n)
	}
	var be *BuildError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *BuildError: %v", err, err)
	}
	if !errors.Is(err, core.ErrOracleUnavailable) || !errors.Is(err, errBudget) {
		t.Fatalf("error chain lost the cause: %v", err)
	}
	if g == nil {
		t.Fatal("aborted build returned a nil graph")
	}
	if be.Inserted != g.Inserted() || g.Inserted() < 1 || g.Inserted() >= n {
		t.Fatalf("committed prefix %d (error says %d) out of (0, %d)", g.Inserted(), be.Inserted, n)
	}

	// Committed-prefix shape: every node at or past the abort point is
	// untouched — no adjacency of its own, no edge pointing at it.
	inGraph := make(map[int]bool, g.Inserted())
	for _, u := range g.Order()[:g.Inserted()] {
		inGraph[u] = true
	}
	for _, u := range g.Order()[g.Inserted():] {
		if len(g.Neighbors(u)) != 0 {
			t.Fatalf("uninserted node %d has %d neighbours", u, len(g.Neighbors(u)))
		}
	}
	for u := 0; u < n; u++ {
		for _, nb := range g.Neighbors(u) {
			if !inGraph[u] || !inGraph[nb.ID] {
				t.Fatalf("edge %d→%d touches an uninserted node", u, nb.ID)
			}
		}
	}

	// Determinism of the degraded path: the same budget aborts at the
	// same node with the same committed prefix.
	g2, _, err2 := build()
	if err2 == nil {
		t.Fatal("second run did not abort")
	}
	if d1, d2 := dumpString(t, g), dumpString(t, g2); d1 != d2 {
		t.Fatalf("aborted builds diverged:\n%s\nvs\n%s", d1, d2)
	}

	// The committed prefix stays a serviceable index: a healthy session
	// can search it, and only committed nodes are ever reported.
	healthy := newSession(t, n, core.SchemeTri)
	res, err := g.Search(healthy, g.Entry(), 5, 24)
	if err != nil {
		t.Fatalf("search over committed prefix: %v", err)
	}
	if len(res) == 0 {
		t.Fatal("search over committed prefix returned nothing")
	}
	for _, nb := range res {
		if !inGraph[nb.ID] {
			t.Fatalf("search reported uninserted node %d", nb.ID)
		}
	}
}

// TestSearchAbortNoPartialResults pins Search's failure contract: an
// oracle failure yields a nil result, not a half-filled beam.
func TestSearchAbortNoPartialResults(t *testing.T) {
	const n = 120
	space := datasets.SFPOIPlanar(n, 1)
	s := core.NewFallibleSession(metric.NewOracle(space), core.SchemeTri)
	g, err := Build(s, Params{M: 6, EfConstruction: 24, Seed: 7})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// A fresh session with a one-call budget fails inside the beam.
	starved := core.NewFallibleSession(&budgetOracle{inner: metric.NewOracle(space), budget: 1}, core.SchemeNoop)
	res, err := g.Search(starved, 0, 5, 24)
	if err == nil {
		t.Fatal("starved search succeeded")
	}
	if !errors.Is(err, core.ErrOracleUnavailable) {
		t.Fatalf("starved search error %v does not wrap ErrOracleUnavailable", err)
	}
	if res != nil {
		t.Fatalf("starved search returned partial results: %v", res)
	}
}

// TestParamsWithDefaults pins the documented default knobs.
func TestParamsWithDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.M != DefaultM || p.EfConstruction != DefaultEfConstruction {
		t.Fatalf("defaults = %+v, want M=%d efc=%d", p, DefaultM, DefaultEfConstruction)
	}
	if q := (Params{M: 16, EfConstruction: 4}).WithDefaults(); q.EfConstruction != 16 {
		t.Fatalf("efConstruction not clamped up to M: %+v", q)
	}
}

// ExampleBuild demonstrates the build-then-query flow the service's
// /search endpoint wraps.
func ExampleBuild() {
	space := datasets.SFPOIPlanar(60, 1)
	s := core.NewSession(metric.NewOracle(space), core.SchemeTri)
	g, err := Build(s, Params{M: 4, EfConstruction: 16, Seed: 1})
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	res, err := g.Search(s, 0, 3, 16)
	if err != nil {
		fmt.Println("search:", err)
		return
	}
	fmt.Println(g.Inserted(), "nodes,", len(res), "answers")
	// Output: 60 nodes, 3 answers
}

// TestSearchConcurrentMatchesSequential: searches share pooled scratch,
// never one search's scratch. Several goroutines search two graphs of
// different sizes, each over one session shared by all of them, in
// different query orders; every answer must equal the one a sequential
// search gives over a fresh session.
func TestSearchConcurrentMatchesSequential(t *testing.T) {
	const (
		workers  = 4
		k        = 5
		efSearch = 24
	)
	type fixture struct {
		g    *Graph
		s    *core.Session
		want [][]prox.Neighbor
	}
	var fixtures []fixture
	for _, n := range []int{150, 40} {
		s := newSession(t, n, core.SchemeTri)
		g, err := Build(s, Params{Seed: 3})
		if err != nil {
			t.Fatalf("build n=%d: %v", n, err)
		}
		ref := newSession(t, n, core.SchemeTri)
		want := make([][]prox.Neighbor, n)
		for q := range want {
			if want[q], err = g.Search(ref, q, k, efSearch); err != nil {
				t.Fatalf("sequential search %d: %v", q, err)
			}
		}
		fixtures = append(fixtures, fixture{g, s, want})
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for step := 0; step < 150; step++ {
				f := fixtures[(step+w)%len(fixtures)]
				q := (step*(w+1) + w*37) % f.g.N()
				got, err := f.g.Search(f.s, q, k, efSearch)
				if err != nil {
					errs <- fmt.Errorf("worker %d search %d: %v", w, q, err)
					return
				}
				if !reflect.DeepEqual(got, f.want[q]) {
					errs <- fmt.Errorf("worker %d search %d of %d objects = %v, sequential %v", w, q, f.g.N(), got, f.want[q])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
