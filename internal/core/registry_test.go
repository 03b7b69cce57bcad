package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metricprox/internal/metric"
)

func registrySpace() metric.Space {
	return metric.NewVectors([][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0.5, 0.5}}, 2, 0.5)
}

func buildShared() (*Session, any, error) {
	s := NewSession(metric.NewOracle(registrySpace()), SchemeTri)
	return s, "payload", nil
}

func TestRegistryGetOrCreateSingleFlight(t *testing.T) {
	r := NewSessionRegistry(0, 0, nil)
	var builds atomic.Int64
	const workers = 16
	entries := make([]*SessionEntry, workers)
	createdCount := atomic.Int64{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e, created, err := r.GetOrCreate("shared", func() (*Session, any, error) {
				builds.Add(1)
				time.Sleep(10 * time.Millisecond) // widen the race window
				return buildShared()
			})
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			if created {
				createdCount.Add(1)
			}
			entries[w] = e
		}(w)
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("build ran %d times, want 1 (single-flight)", got)
	}
	if got := createdCount.Load(); got != 1 {
		t.Fatalf("%d workers reported created=true, want 1", got)
	}
	for w := 1; w < workers; w++ {
		if entries[w] != entries[0] {
			t.Fatalf("worker %d got a different entry than worker 0", w)
		}
	}
	if entries[0].Data != "payload" {
		t.Fatalf("Data = %v, want payload", entries[0].Data)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestRegistryFailedBuildNotCached(t *testing.T) {
	r := NewSessionRegistry(0, 0, nil)
	boom := errors.New("bootstrap exploded")
	_, _, err := r.GetOrCreate("s", func() (*Session, any, error) { return nil, nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if r.Len() != 0 {
		t.Fatalf("failed build left %d entries in the registry", r.Len())
	}
	// The next caller retries the build and can succeed.
	e, created, err := r.GetOrCreate("s", buildShared)
	if err != nil || !created || e == nil {
		t.Fatalf("retry after failed build: entry=%v created=%v err=%v", e, created, err)
	}
}

func TestRegistryMaxSessions(t *testing.T) {
	r := NewSessionRegistry(2, 0, nil)
	for _, name := range []string{"a", "b"} {
		if _, _, err := r.GetOrCreate(name, buildShared); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
	}
	_, _, err := r.GetOrCreate("c", buildShared)
	if !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("third session err = %v, want ErrTooManySessions", err)
	}
	// Attaching to an existing session is still fine at the cap.
	if _, created, err := r.GetOrCreate("a", buildShared); err != nil || created {
		t.Fatalf("attach at cap: created=%v err=%v", created, err)
	}
	// Evicting frees a slot.
	if !r.Evict("b") {
		t.Fatal("Evict(b) = false")
	}
	if _, _, err := r.GetOrCreate("c", buildShared); err != nil {
		t.Fatalf("create after evict: %v", err)
	}
}

func TestRegistryTTLSweep(t *testing.T) {
	clock := time.Unix(5000, 0)
	var evicted []string
	r := NewSessionRegistry(0, time.Minute, func(e *SessionEntry) { evicted = append(evicted, e.Name) })
	r.now = func() time.Time { return clock }

	if _, _, err := r.GetOrCreate("old", buildShared); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(45 * time.Second)
	if _, _, err := r.GetOrCreate("young", buildShared); err != nil {
		t.Fatal(err)
	}
	// "old" is 45s idle, "young" fresh: nothing to sweep yet.
	if names := r.Sweep(); len(names) != 0 {
		t.Fatalf("premature sweep evicted %v", names)
	}
	// Touching "old" resets its idle clock.
	if r.Get("old") == nil {
		t.Fatal("Get(old) = nil")
	}
	clock = clock.Add(50 * time.Second)
	// Now "young" is 50s idle, "old" 50s idle too (touched) — still under.
	if names := r.Sweep(); len(names) != 0 {
		t.Fatalf("sweep at 50s idle evicted %v", names)
	}
	clock = clock.Add(15 * time.Second)
	names := r.Sweep()
	if len(names) != 2 {
		t.Fatalf("sweep evicted %v, want both sessions", names)
	}
	if len(evicted) != 2 {
		t.Fatalf("onEvict ran for %v, want both", evicted)
	}
	if r.Len() != 0 {
		t.Fatalf("Len after sweep = %d", r.Len())
	}
}

func TestRegistryClearRunsOnEvict(t *testing.T) {
	var mu sync.Mutex
	var evicted []string
	r := NewSessionRegistry(0, 0, func(e *SessionEntry) {
		mu.Lock()
		evicted = append(evicted, e.Name)
		mu.Unlock()
	})
	for _, name := range []string{"a", "b", "c"} {
		if _, _, err := r.GetOrCreate(name, buildShared); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Clear(); got != 3 {
		t.Fatalf("Clear = %d, want 3", got)
	}
	if len(evicted) != 3 {
		t.Fatalf("onEvict ran for %v, want 3 entries", evicted)
	}
	if got := r.Names(); len(got) != 0 {
		t.Fatalf("Names after Clear = %v", got)
	}
}

func TestRegistryGetDoesNotBlockOnPendingBuild(t *testing.T) {
	r := NewSessionRegistry(0, 0, nil)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.GetOrCreate("slow", func() (*Session, any, error) {
			<-release
			return buildShared()
		})
	}()
	// Wait until the pending entry is registered.
	for r.Len() == 0 {
		time.Sleep(time.Millisecond)
	}
	if e := r.Get("slow"); e != nil {
		t.Fatalf("Get returned a half-built entry: %v", e)
	}
	if names := r.Names(); len(names) != 0 {
		t.Fatalf("Names lists a pending build: %v", names)
	}
	if r.Evict("slow") {
		t.Fatal("Evict removed a pending build")
	}
	close(release)
	<-done
	if e := r.Get("slow"); e == nil {
		t.Fatal("Get = nil after build completed")
	}
}

func TestRegistryAcquireBlocksSweep(t *testing.T) {
	// Regression test for the TTL-sweeper vs drain-era handler race: a
	// handler that acquired a session must keep it alive — and its onEvict
	// hook unrun — no matter how stale its idle clock looks to the sweeper.
	clock := time.Unix(9000, 0)
	var evicted []string
	r := NewSessionRegistry(0, time.Minute, func(e *SessionEntry) { evicted = append(evicted, e.Name) })
	r.now = func() time.Time { return clock }

	if _, _, err := r.GetOrCreate("held", buildShared); err != nil {
		t.Fatal(err)
	}
	e := r.Acquire("held")
	if e == nil {
		t.Fatal("Acquire(held) = nil")
	}
	// Way past the TTL while the handler still holds the entry.
	clock = clock.Add(time.Hour)
	if names := r.Sweep(); len(names) != 0 {
		t.Fatalf("sweep evicted in-use session %v", names)
	}
	if len(evicted) != 0 {
		t.Fatalf("onEvict ran for in-use session: %v", evicted)
	}
	// Release touches the idle clock, so the session is fresh again.
	r.Release(e)
	if names := r.Sweep(); len(names) != 0 {
		t.Fatalf("sweep evicted freshly-released session %v", names)
	}
	// Only once it has truly idled out does the sweeper take it.
	clock = clock.Add(2 * time.Minute)
	if names := r.Sweep(); len(names) != 1 || names[0] != "held" {
		t.Fatalf("sweep after release = %v, want [held]", names)
	}
	if len(evicted) != 1 {
		t.Fatalf("onEvict ran %d times, want 1", len(evicted))
	}
}

func TestRegistryEvictWhileHeldDefersHook(t *testing.T) {
	var evicted []string
	r := NewSessionRegistry(0, 0, func(e *SessionEntry) { evicted = append(evicted, e.Name) })
	if _, _, err := r.GetOrCreate("s", buildShared); err != nil {
		t.Fatal(err)
	}
	e1 := r.Acquire("s")
	e2 := r.Acquire("s")
	if e1 == nil || e2 == nil {
		t.Fatal("Acquire returned nil")
	}
	// Explicit DELETE while two handlers are in flight: the name leaves
	// the registry at once, the hook waits for the last holder.
	if !r.Evict("s") {
		t.Fatal("Evict(s) = false")
	}
	if r.Get("s") != nil {
		t.Fatal("evicted session still visible")
	}
	if len(evicted) != 0 {
		t.Fatalf("onEvict ran with holders in flight: %v", evicted)
	}
	r.Release(e1)
	if len(evicted) != 0 {
		t.Fatalf("onEvict ran before last release: %v", evicted)
	}
	r.Release(e2)
	if len(evicted) != 1 || evicted[0] != "s" {
		t.Fatalf("onEvict after last release = %v, want [s]", evicted)
	}
	// The name is free for a new generation; releasing the old entry again
	// must not touch the newcomer.
	if _, _, err := r.GetOrCreate("s", buildShared); err != nil {
		t.Fatal(err)
	}
	r.Release(e1) // stale release of the dead generation: no-op
	if r.Get("s") == nil {
		t.Fatal("stale Release damaged the new generation")
	}
	if len(evicted) != 1 {
		t.Fatalf("stale Release re-ran onEvict: %v", evicted)
	}
}

func TestRegistryClearDefersHookForHeldEntries(t *testing.T) {
	var mu sync.Mutex
	var evicted []string
	r := NewSessionRegistry(0, 0, func(e *SessionEntry) {
		mu.Lock()
		evicted = append(evicted, e.Name)
		mu.Unlock()
	})
	for _, name := range []string{"a", "b"} {
		if _, _, err := r.GetOrCreate(name, buildShared); err != nil {
			t.Fatal(err)
		}
	}
	e := r.Acquire("a")
	if got := r.Clear(); got != 2 {
		t.Fatalf("Clear = %d, want 2", got)
	}
	mu.Lock()
	n := len(evicted)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("onEvict ran %d times during Clear with one entry held, want 1", n)
	}
	r.Release(e)
	mu.Lock()
	defer mu.Unlock()
	if len(evicted) != 2 {
		t.Fatalf("onEvict total after release = %d, want 2", len(evicted))
	}
}
