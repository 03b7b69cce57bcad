package core

import (
	"bytes"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metricprox/internal/cachestore"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
)

func TestAttachStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dist.cache")
	m := datasets.RandomMetric(20, 31)

	// First run: resolve some pairs, persisting them.
	store, err := cachestore.Create(path, 20)
	if err != nil {
		t.Fatal(err)
	}
	o1 := metric.NewOracle(m)
	s1 := NewSession(o1, SchemeTri)
	if err := s1.AttachStore(store); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s1.Dist(i, i+5)
	}
	if s1.StoreErr() != nil {
		t.Fatal(s1.StoreErr())
	}
	firstCalls := o1.Calls()
	store.Close()

	// Second run over the same universe: the replayed cache answers
	// everything the first run resolved.
	store2, err := cachestore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	o2 := metric.NewOracle(m)
	s2 := NewSession(o2, SchemeTri)
	if err := s2.AttachStore(store2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got, want := s2.Dist(i, i+5), m.Distance(i, i+5); got != want {
			t.Fatalf("replayed Dist(%d,%d) = %v, want %v", i, i+5, got, want)
		}
	}
	if o2.Calls() != 0 {
		t.Fatalf("second run made %d oracle calls, want 0 (all cached)", o2.Calls())
	}
	// A genuinely new pair still costs a call and is persisted.
	s2.Dist(0, 19)
	if o2.Calls() != 1 {
		t.Fatalf("new pair cost %d calls, want 1", o2.Calls())
	}
	n, _ := store2.Len()
	if n != int(firstCalls)+1 {
		t.Fatalf("store holds %d records, want %d", n, firstCalls+1)
	}
}

func TestAttachStoreUniverseMismatch(t *testing.T) {
	store, err := cachestore.Create(filepath.Join(t.TempDir(), "x.cache"), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	m := datasets.RandomMetric(8, 32)
	s := NewSession(metric.NewOracle(m), SchemeTri)
	if err := s.AttachStore(store); err == nil {
		t.Fatal("universe mismatch accepted")
	}
}

func TestAttachStoreFeedsBounds(t *testing.T) {
	// Replayed edges must tighten bounds exactly like live resolutions.
	path := filepath.Join(t.TempDir(), "b.cache")
	m := datasets.RandomMetric(10, 33)
	store, _ := cachestore.Create(path, 10)
	o1 := metric.NewOracle(m)
	s1 := NewSession(o1, SchemeTri)
	s1.AttachStore(store)
	s1.Dist(0, 1)
	s1.Dist(1, 2)
	store.Close()

	store2, _ := cachestore.Open(path)
	defer store2.Close()
	s2 := NewSession(metric.NewOracle(m), SchemeTri)
	s2.AttachStore(store2)
	lb, ub := s2.Bounds(0, 2)
	if lb == 0 && ub == 1 {
		t.Fatal("replayed edges did not tighten bounds")
	}
}

func TestStoreSyncAndLenPaths(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.cache")
	store, err := cachestore.Create(path, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Append(cachestore.Record{I: 0, J: 1, Dist: 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, err := store.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v", n, err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// callLog is a space that logs every distance it computes, in order, and
// panics at call panicAt (counting from 1; 0 never).
type callLog struct {
	metric.Space
	calls   []cachestore.Record
	panicAt int
}

func (c *callLog) Distance(i, j int) float64 {
	if len(c.calls)+1 == c.panicAt {
		panic("callLog: planted failure")
	}
	d := c.Space.Distance(i, j)
	c.calls = append(c.calls, cachestore.Record{I: i, J: j, Dist: d})
	return d
}

// perRecordFile returns the bytes of a store of n objects written one
// record per Append call, the path a session takes outside a bootstrap.
func perRecordFile(t *testing.T, n int, recs []cachestore.Record) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "per-record.cache")
	st, err := cachestore.Create(path, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if _, err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertReplays opens path a second time, leaving the writer's handle
// open, as a process that lost the writer would find the file, and fails
// unless it replays exactly want, in order, pairs normalised.
func assertReplays(t *testing.T, path string, want []cachestore.Record, when string) {
	t.Helper()
	st, err := cachestore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got []cachestore.Record
	if err := st.Replay(func(r cachestore.Record) bool { got = append(got, r); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: the file replays %d records, %d were committed", when, len(got), len(want))
	}
	for k, w := range want {
		if w.I > w.J {
			w.I, w.J = w.J, w.I
		}
		if got[k] != w {
			t.Fatalf("%s: record %d replays as %+v, committed %+v", when, k, got[k], w)
		}
	}
}

// A bootstrap writes its resolutions 512 at a time, and the file it
// leaves is byte for byte the one a record-per-call writer leaves for the
// same commits: across chunk boundaries, for the Bootstrapper (TLAESA)
// and the plain landmark rows, and with per-record appends after it.
// Once BootstrapErr returns, a second handle replays every committed
// resolution before anything is closed.
func TestBootstrapStoreMatchesPerRecordPath(t *testing.T) {
	const n = 300
	landmarks := []int{0, 97, 211} // 894 records: one full chunk and a part
	for _, scheme := range []Scheme{SchemeTri, SchemeLAESA, SchemeTLAESA, SchemeSPLUB} {
		t.Run(scheme.String(), func(t *testing.T) {
			space := &callLog{Space: datasets.RandomMetric(n, 66)}
			s := NewSessionWithLandmarks(metric.NewOracle(space), scheme, landmarks)
			path := filepath.Join(t.TempDir(), "boot.cache")
			store, err := cachestore.Create(path, n)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if err := s.AttachStore(store); err != nil {
				t.Fatal(err)
			}
			spent, err := s.BootstrapErr(landmarks)
			// TLAESA resolves its representatives' rows after the landmarks'.
			if err != nil || spent < 894 || spent != int64(len(space.calls)) {
				t.Fatalf("BootstrapErr = %d, %v; want one call per committed pair, at least 894", spent, err)
			}
			assertReplays(t, path, space.calls, "after BootstrapErr")
			rng := rand.New(rand.NewSource(1))
			for k := 0; k < 300; k++ {
				if i, j := rng.Intn(n), rng.Intn(n); i != j {
					s.DistIfLess(i, j, 0.5)
				}
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := perRecordFile(t, n, space.calls); !bytes.Equal(got, want) {
				t.Fatalf("the store holds %d bytes that differ from the %d a record-per-call writer leaves", len(got), len(want))
			}
			if st := s.Stats(); st.OracleCalls != int64(len(space.calls)) || st.StoreErrors != 0 {
				t.Fatalf("OracleCalls %d, StoreErrors %d; want %d, 0", st.OracleCalls, st.StoreErrors, len(space.calls))
			}
		})
	}
}

// A bootstrap that ends early, by a panic inside the oracle, still
// writes everything it committed before the panic leaves it.
func TestBootstrapPanicFlushesHeld(t *testing.T) {
	const n = 300
	space := &callLog{Space: datasets.RandomMetric(n, 67), panicAt: 600}
	s := NewSessionWithLandmarks(metric.NewOracle(space), SchemeLAESA, []int{0, 97, 211})
	path := filepath.Join(t.TempDir(), "panic.cache")
	store, err := cachestore.Create(path, n)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := s.AttachStore(store); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("the planted panic did not surface")
			}
		}()
		s.BootstrapErr([]int{0, 97, 211})
	}()
	if len(space.calls) != 599 {
		t.Fatalf("%d calls logged before the panic, want 599", len(space.calls))
	}
	assertReplays(t, path, space.calls, "after the panic")
}

// A failed write counts in StoreErrors once per record it did not write:
// with the store's file gone, every one of a bootstrap's 894 resolutions,
// in two chunks, is one error, latched and logged once.
func TestBootstrapStoreErrorsCountRecords(t *testing.T) {
	const n = 300
	var logs bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logs)
	s := NewSessionWithLandmarks(metric.NewOracle(datasets.RandomMetric(n, 68)), SchemeTri, nil)
	store, err := cachestore.Create(filepath.Join(t.TempDir(), "gone.cache"), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachStore(store); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil { // the disk goes away
		t.Fatal(err)
	}
	if _, err := s.BootstrapErr([]int{0, 97, 211}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.BootstrapCalls != 894 || st.StoreErrors != 894 {
		t.Fatalf("BootstrapCalls %d, StoreErrors %d; want 894 each", st.BootstrapCalls, st.StoreErrors)
	}
	if s.StoreErr() == nil {
		t.Fatal("StoreErr not latched")
	}
	if lines := strings.Split(strings.TrimSuffix(logs.String(), "\n"), "\n"); len(lines) != 1 {
		t.Fatalf("store failure logged %d times, want exactly once: %q", len(lines), lines)
	}
}
