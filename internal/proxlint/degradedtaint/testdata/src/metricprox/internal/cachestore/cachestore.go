// Package cachestore is a minimal fake of the persistent distance cache.
package cachestore

// Store persists resolved distances.
type Store struct{}

// Record is one persisted resolution.
type Record struct {
	I, J int
	Dist float64
}

// Put records a resolved distance.
func (s *Store) Put(key int64, d float64) {}

// Append records resolutions in order.
func (s *Store) Append(recs ...Record) (int, error) { return len(recs), nil }

// Key canonicalises a pair.
func Key(i, j int) int64 { return int64(i)<<32 | int64(j) }
