// Package b exercises the lockheldoracle analyzer: oracle-reaching calls
// under a held sync.Mutex/RWMutex must be flagged; calls after release,
// in goroutine bodies, or on non-reaching methods must not.
package b

import (
	"context"
	"sync"

	"metricprox/internal/core"
)

type space struct{ n int }

func (s *space) Len() int                  { return s.n }
func (s *space) Distance(i, j int) float64 { return 0 }

type guarded struct {
	mu sync.Mutex
	rw sync.RWMutex
	s  *core.Session
	sp *space
}

func directUnderLock(g *guarded) float64 {
	g.mu.Lock()
	d := g.s.Dist(1, 2) // want `call to Dist may reach the distance oracle while "g\.mu" is held`
	g.mu.Unlock()
	return d
}

func rawSpaceUnderLock(g *guarded) float64 {
	g.rw.RLock()
	d := g.sp.Distance(1, 2) // want `call to Distance may reach the distance oracle while "g\.rw" is held`
	g.rw.RUnlock()
	return d
}

// helper reaches the oracle transitively; callers holding a lock must be
// flagged at the helper call site.
func helper(g *guarded) float64 { return g.s.Dist(3, 4) }

func transitiveUnderLock(g *guarded) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return helper(g) // want `call to helper may reach the distance oracle while "g\.mu" is held`
}

func unlockFirst(g *guarded) float64 {
	g.mu.Lock()
	if w, ok := g.s.Known(1, 2); ok {
		g.mu.Unlock()
		return w
	}
	g.mu.Unlock()
	return g.s.Dist(1, 2) // resolved with the lock released: fine
}

func earlyReturnKeepsHeld(g *guarded) float64 {
	g.mu.Lock()
	if w, ok := g.s.Known(1, 2); ok {
		g.mu.Unlock()
		return w
	}
	d := g.s.Dist(1, 2) // want `call to Dist may reach the distance oracle while "g\.mu" is held`
	g.mu.Unlock()
	return d
}

func deferKeepsHeld(g *guarded) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.s.Dist(1, 2) // want `call to Dist may reach the distance oracle while "g\.mu" is held`
}

func bookkeepingUnderLockIsFine(g *guarded) (float64, float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	lb, ub := g.s.Bounds(1, 2) // Bounds never calls the oracle
	return lb, ub
}

func goroutineBodyStartsUnlocked(g *guarded) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = g.s.Dist(1, 2) // runs concurrently, not under this lock
	}()
}

func allowlisted(g *guarded) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	//proxlint:allow lockheldoracle -- bootstrap is a setup phase, not a hot path
	return g.s.Bootstrap(nil)
}

func differentLockReleased(g *guarded) float64 {
	g.mu.Lock()
	g.mu.Unlock()
	g.rw.Lock()
	d := g.s.Dist(5, 6) // want `call to Dist may reach the distance oracle while "g\.rw" is held`
	g.rw.Unlock()
	return d
}

// fallibleSpace is the context-aware oracle shape: raw DistanceCtx calls
// are oracle round-trips just like Distance.
type fallibleSpace struct{ n int }

func (f *fallibleSpace) Len() int { return f.n }
func (f *fallibleSpace) DistanceCtx(ctx context.Context, i, j int) (float64, error) {
	return 0, nil
}

func rawFallibleUnderLock(g *guarded, fo *fallibleSpace) (float64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return fo.DistanceCtx(context.Background(), 1, 2) // want `call to DistanceCtx may reach the distance oracle while "g\.mu" is held`
}

func errVariantUnderLock(g *guarded) (float64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.s.DistErr(1, 2) // want `call to DistErr may reach the distance oracle while "g\.mu" is held`
}

func errVariantAfterUnlock(g *guarded) (bool, error) {
	g.mu.Lock()
	_ = g.s.OracleErr() // error inspection is bookkeeping, never an oracle call
	g.mu.Unlock()
	return g.s.LessErr(1, 2, 3, 4) // resolved with the lock released: fine
}

// tail has the shape of the core comparison tail: an unexported method
// that reaches the oracle through a session entrypoint, wrapped by a
// degrading method that takes the lock only around its estimate.
func (g *guarded) tail(i, j int) (float64, error) { return g.s.DistErr(i, j) }

func (g *guarded) lenient(i, j int) float64 {
	d, err := g.tail(i, j) // resolved with the lock released: fine
	if err != nil {
		g.mu.Lock()
		lb, ub := g.s.Bounds(i, j) // the estimate is bookkeeping: fine
		g.mu.Unlock()
		d = (lb + ub) / 2
	}
	return d
}

func tailUnderLock(g *guarded) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	d, _ := g.tail(1, 2) // want `call to tail may reach the distance oracle while "g\.mu" is held`
	e := g.lenient(3, 4) // want `call to lenient may reach the distance oracle while "g\.mu" is held`
	return d + e
}
