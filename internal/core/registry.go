package core

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrTooManySessions is returned by SessionRegistry.GetOrCreate when
// admitting one more session would exceed the registry's cap. Callers
// (the service layer) translate it into a load-shedding response rather
// than evicting someone else's bound state.
var ErrTooManySessions = errors.New("session registry full")

// SessionEntry is one named session hosted by a SessionRegistry: the
// shared session itself plus an opaque Data payload the owner attaches at
// build time (the service layer stores its admission queue and cache
// store there, keeping the registry free of service concerns).
type SessionEntry struct {
	// Name is the registry key the entry was created under.
	Name string
	// Session is the hosted multi-tenant session.
	Session *Session
	// Data is the owner's payload, set by the build callback and carried
	// untouched; nil if the builder did not provide one.
	Data any

	// re backlinks to the registry bookkeeping so Release can find the
	// exact generation that was acquired even after the name has been
	// evicted and re-created.
	re *regEntry
}

// regEntry wraps a SessionEntry with the registry's bookkeeping: the
// single-flight ready latch, the idle clock for TTL eviction, and the
// in-use generation that keeps an entry's resources alive while handlers
// hold it.
type regEntry struct {
	entry    *SessionEntry
	err      error         // build failure, set before ready closes
	ready    chan struct{} // closed once the build callback returns
	lastUsed time.Time     // guarded by the registry mutex
	active   int           // handlers currently holding the entry (Acquire/Release)
	removed  bool          // evicted while active; onEvict deferred to last Release
}

// SessionRegistry hosts named Sessions with single-flight creation,
// a max-sessions cap, and TTL-based idle eviction. It is the in-core half
// of the metricproxd daemon: the registry owns lifecycle (who exists,
// when they die) while the service layer owns transport and admission.
//
// Creation is single-flight per name: when several clients race to attach
// to the same session, exactly one runs the (potentially expensive —
// bootstrap, cache replay) build callback while the rest block until it
// finishes, then share the result. The registry lock is never held across
// a build, so building one session does not stall lookups of others.
type SessionRegistry struct {
	mu      sync.Mutex
	max     int           // cap on live+pending sessions; <= 0 means unlimited
	ttl     time.Duration // idle eviction horizon; <= 0 means never
	now     func() time.Time
	onEvict func(*SessionEntry)
	entries map[string]*regEntry
}

// NewSessionRegistry returns a registry holding at most maxSessions
// sessions (<= 0 for unlimited) and evicting entries idle longer than ttl
// on each Sweep (<= 0 disables TTL eviction). onEvict, if non-nil, runs
// for every entry leaving the registry — Evict, Sweep, and Clear alike —
// outside the registry lock, so it may safely close stores or flush
// state.
func NewSessionRegistry(maxSessions int, ttl time.Duration, onEvict func(*SessionEntry)) *SessionRegistry {
	return &SessionRegistry{
		max:     maxSessions,
		ttl:     ttl,
		now:     time.Now,
		onEvict: onEvict,
		entries: make(map[string]*regEntry),
	}
}

// GetOrCreate returns the session registered under name, building it with
// build on first use. created reports whether this call ran the build.
// Concurrent callers for the same name share one build; losers of the
// race block until it completes and then see the winner's result (or its
// error — a failed build is not cached, so the next caller retries).
// Returns ErrTooManySessions when the cap is reached and name does not
// already exist.
func (r *SessionRegistry) GetOrCreate(name string, build func() (*Session, any, error)) (entry *SessionEntry, created bool, err error) {
	r.mu.Lock()
	if re, ok := r.entries[name]; ok {
		r.mu.Unlock()
		return r.await(name, re)
	}
	if r.max > 0 && len(r.entries) >= r.max {
		r.mu.Unlock()
		return nil, false, fmt.Errorf("%w: %d sessions, cap %d", ErrTooManySessions, len(r.entries), r.max)
	}
	re := &regEntry{ready: make(chan struct{}), lastUsed: r.now()}
	r.entries[name] = re
	r.mu.Unlock()

	s, data, err := build()

	r.mu.Lock()
	if err != nil {
		delete(r.entries, name) // failed builds are not cached
		re.err = err
	} else {
		re.entry = &SessionEntry{Name: name, Session: s, Data: data, re: re}
		re.lastUsed = r.now()
	}
	close(re.ready)
	r.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	return re.entry, true, nil
}

// await blocks until re's build completes and returns its result,
// touching the idle clock on success.
func (r *SessionRegistry) await(name string, re *regEntry) (*SessionEntry, bool, error) {
	<-re.ready
	r.mu.Lock()
	defer r.mu.Unlock()
	if re.err != nil {
		return nil, false, re.err
	}
	re.lastUsed = r.now()
	return re.entry, false, nil
}

// Get returns the entry registered under name, or nil when absent. A hit
// touches the idle clock. Get does not block on a pending build; a
// session still being built is reported as absent (attach via GetOrCreate
// to wait for it).
func (r *SessionRegistry) Get(name string) *SessionEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	re, ok := r.entries[name]
	if !ok || re.entry == nil {
		return nil
	}
	re.lastUsed = r.now()
	return re.entry
}

// Acquire returns the entry registered under name with its in-use
// generation taken, or nil when absent. While held, the entry is immune
// to the TTL sweeper and its onEvict hook (which closes cache stores) is
// deferred past the hold — the fix for the sweeper-vs-handler race where
// a drain-era request could have its session's store closed underfoot.
// Every successful Acquire must be paired with exactly one Release.
func (r *SessionRegistry) Acquire(name string) *SessionEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	re, ok := r.entries[name]
	if !ok || re.entry == nil {
		return nil
	}
	re.lastUsed = r.now()
	re.active++
	return re.entry
}

// Release returns an entry taken with Acquire. It touches the idle clock
// (the handler just finished using the session, so it was not idle) and,
// when the entry was evicted while held, runs the deferred onEvict hook —
// outside the lock, exactly once, after the last holder lets go. The
// entry pointer, not the name, identifies the generation: releasing after
// the name was evicted and re-created under a fresh session never touches
// the newcomer.
func (r *SessionRegistry) Release(e *SessionEntry) {
	if e == nil || e.re == nil {
		return
	}
	r.mu.Lock()
	re := e.re
	if re.active <= 0 {
		r.mu.Unlock()
		return
	}
	re.active--
	re.lastUsed = r.now()
	evict := re.active == 0 && re.removed
	r.mu.Unlock()
	if evict && r.onEvict != nil {
		r.onEvict(re.entry)
	}
}

// Evict removes name from the registry, running the onEvict hook outside
// the lock, and reports whether an entry was removed. Evicting a name
// whose build is still in flight is refused (reported as false) — the
// builder would resurrect a zombie entry. Evicting an entry a handler
// currently holds (Acquire without Release yet) removes it from the
// registry immediately but defers the onEvict hook to the final Release,
// so the holder's session and store stay usable until it finishes.
func (r *SessionRegistry) Evict(name string) bool {
	r.mu.Lock()
	re, ok := r.entries[name]
	if !ok || re.entry == nil {
		r.mu.Unlock()
		return false
	}
	delete(r.entries, name)
	if re.active > 0 {
		re.removed = true
		r.mu.Unlock()
		return true
	}
	r.mu.Unlock()
	if r.onEvict != nil {
		r.onEvict(re.entry)
	}
	return true
}

// Sweep evicts every entry idle longer than the registry TTL and returns
// the evicted entries' names. A zero TTL makes Sweep a no-op. The service
// daemon calls this periodically; tests call it with an injected clock.
//
// An entry currently held by a handler (Acquire without Release) is never
// swept: "in use right now" is the strongest possible proof of not being
// idle, and sweeping it would close the session's cache store underneath
// the handler. The idle clock, the in-use count, and the map removal are
// all read and written under the one registry lock, so there is no window
// in which a handler can acquire an entry the sweeper has already chosen.
func (r *SessionRegistry) Sweep() []string {
	if r.ttl <= 0 {
		return nil
	}
	r.mu.Lock()
	cutoff := r.now().Add(-r.ttl)
	var victims []*regEntry
	for name, re := range r.entries {
		if re.entry != nil && re.active == 0 && re.lastUsed.Before(cutoff) {
			delete(r.entries, name)
			victims = append(victims, re)
		}
	}
	r.mu.Unlock()
	names := make([]string, 0, len(victims))
	for _, re := range victims {
		names = append(names, re.entry.Name)
		if r.onEvict != nil {
			r.onEvict(re.entry)
		}
	}
	return names
}

// Clear evicts every ready entry (onEvict runs for each, outside the
// lock) and returns how many were removed; the daemon drains with this on
// shutdown so cache stores are flushed and closed exactly once.
func (r *SessionRegistry) Clear() int {
	r.mu.Lock()
	var victims []*regEntry
	n := 0
	for name, re := range r.entries {
		if re.entry != nil {
			delete(r.entries, name)
			n++
			if re.active > 0 {
				// A handler still holds it (shutdown with a straggling
				// request): defer the hook to its final Release.
				re.removed = true
				continue
			}
			victims = append(victims, re)
		}
	}
	r.mu.Unlock()
	for _, re := range victims {
		if r.onEvict != nil {
			r.onEvict(re.entry)
		}
	}
	return n
}

// Names returns the ready sessions' names in no particular order.
func (r *SessionRegistry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.entries))
	for name, re := range r.entries {
		if re.entry != nil {
			names = append(names, name)
		}
	}
	return names
}

// Len returns the number of sessions counted against the cap, including
// builds still in flight.
func (r *SessionRegistry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}
