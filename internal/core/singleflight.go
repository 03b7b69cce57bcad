package core

// flight is one in-progress oracle resolution, as its waiters see it.
// The first goroutine that needs an unresolved pair claims it under the
// Session lock, performs the oracle round-trip with the lock released,
// commits the result and, if any waiter arrived, publishes it and closes
// done. Every other goroutine that needs the same pair while the call is
// outstanding blocks on done instead of issuing a duplicate oracle call —
// the single-flight guarantee. The first waiter allocates the flight;
// until one arrives the claim's flight is nil.
type flight struct {
	done chan struct{}
	// d and err are written exactly once, before done is closed; the
	// channel close is the happens-before edge that makes the reads in
	// waiters safe. A failed flight shares its error with every waiter —
	// the attempt is shared, success or not — but commits nothing, so a
	// later call for the same pair starts a fresh flight.
	d   float64
	err error
}

// claimed is one pair some goroutine is resolving: its key and, once a
// second goroutine needs the pair, the flight that goroutine waits on.
type claimed struct {
	key int64
	f   *flight
}

func newFlight() *flight { return &flight{done: make(chan struct{})} }

// finish publishes the resolution (or its failure) and releases all
// waiters.
func (f *flight) finish(d float64, err error) {
	f.d, f.err = d, err
	close(f.done)
}

// wait blocks until the resolution lands and returns it.
func (f *flight) wait() (float64, error) {
	<-f.done
	return f.d, f.err
}
