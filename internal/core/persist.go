package core

import (
	"fmt"
	"log"

	"metricprox/internal/cachestore"
)

// AttachStore binds a persistent distance cache to the session: every
// record already in the store is replayed into the partial graph (and the
// bound scheme) without touching the oracle, and every future resolution
// is appended to the store. Re-running an algorithm over the same object
// universe therefore only pays for distances no previous run resolved —
// the natural complement to an oracle that bills per call.
//
// The store's universe size must match the session's. Attach before
// running algorithms; attaching twice or after resolutions is allowed (the
// partial graph deduplicates), but replayed distances must agree with any
// already-resolved pair or the graph panics on the conflict, surfacing
// oracle non-determinism instead of silently corrupting bounds.
func (s *Session) AttachStore(store *cachestore.Store) error {
	if store.N() != s.N() {
		return fmt.Errorf("core: store universe %d does not match session universe %d", store.N(), s.N())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := store.Replay(func(r cachestore.Record) bool {
		if !s.g.Known(r.I, r.J) {
			s.record(r.I, r.J, r.Dist)
		}
		return true
	})
	if err != nil {
		return err
	}
	s.store = store
	return nil
}

// holdChunk is how many resolutions a bootstrap holds before it writes
// them to the store in one write.
const holdChunk = 512

// persistResolution appends a fresh oracle resolution to the attached
// store, if any. While a bootstrap runs, s.hold is non-nil and the
// resolution joins it instead, to be written with the others in one
// write once holdChunk of them are held or the bootstrap flushes
// (flushHold). The caller holds the lock.
func (s *Session) persistResolution(i, j int, d float64) {
	if s.store == nil {
		return
	}
	r := cachestore.Record{I: i, J: j, Dist: d}
	if s.hold == nil {
		s.appendStore(r)
		return
	}
	s.hold = append(s.hold, r)
	if len(s.hold) == holdChunk {
		s.flushHold()
	}
}

// flushHold writes the resolutions a bootstrap holds, in commit order.
// A bootstrap calls it before every point where it lets go of the lock,
// so whenever the lock is free the store holds every committed
// resolution. The caller holds the lock.
func (s *Session) flushHold() {
	if len(s.hold) > 0 {
		s.appendStore(s.hold...)
		s.hold = s.hold[:0]
	}
}

// appendStore writes recs to the attached store. Append errors are
// surfaced three ways, because the hot path cannot return them: every
// record not written bumps Stats.StoreErrors, the first failure is
// latched in StoreErr, and that first failure is logged once so a
// silently filling disk is noticed without flooding the log at
// oracle-call rate. The caller holds the lock.
func (s *Session) appendStore(recs ...cachestore.Record) {
	written, err := s.store.Append(recs...)
	if err == nil {
		return
	}
	s.ins.StoreErrors.Add(int64(len(recs) - written))
	if s.storeErr == nil {
		s.storeErr = err
		log.Printf("core: cache store append failed; resolutions stay in memory but the on-disk cache is now incomplete: %v", err)
	}
}

// StoreErr returns the first error encountered while appending to the
// attached store (nil if none). A failed append never loses the in-memory
// resolution; it only means the cache on disk is incomplete.
func (s *Session) StoreErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.storeErr
}
