// Package cachestore persists resolved distances across process runs.
//
// The library's whole premise is that oracle calls are expensive — a maps
// API bills per request, an edit-distance engine burns minutes of CPU. A
// Store makes those resolutions durable: every (i, j, distance) triple is
// appended to a crash-safe log, and the next session over the same object
// universe replays the log into its partial graph before making a single
// new call.
//
// Format: a 16-byte header (magic, version, object count) followed by
// fixed-width 20-byte records (uint32 i, uint32 j, float64 distance, CRC-
// less — integrity is guarded by a per-record XOR checksum byte folded
// into the layout below). Appends are O(1); a torn final record (crash
// mid-write) is detected and truncated on open.
package cachestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

const (
	magic   = uint32(0x4d505831) // "MPX1"
	version = uint32(1)
	// record: i uint32 | j uint32 | dist float64 | check uint32
	recordSize = 20
	headerSize = 16
)

// ErrCorrupt is returned when the file is not a cachestore or its header
// is damaged. Torn trailing records are repaired silently, not errored.
var ErrCorrupt = errors.New("cachestore: corrupt store")

// ErrSeqGap is returned by AppendFrom when the supplied batch starts past
// the end of the store: applying it would leave a hole in the replicated
// log, so the caller must rewind to LastSeq and resend.
var ErrSeqGap = errors.New("cachestore: sequence gap")

// Store is an append-only distance log bound to one file.
type Store struct {
	f *os.File
	n int // object universe size recorded in the header
}

// Record is one persisted resolution.
type Record struct {
	I, J int
	Dist float64
}

// Create initialises a new store for a universe of n objects, truncating
// any existing file.
func Create(path string, n int) (*Store, error) {
	if n <= 0 || n > math.MaxUint32 {
		return nil, fmt.Errorf("cachestore: invalid universe size %d", n)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(n))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	// The crash-safety story starts at the header: without this fsync a
	// power loss could leave a zero-length or half-written header that
	// Open rejects as corrupt, losing every record appended meanwhile.
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &Store{f: f, n: n}, nil
}

// Open opens an existing store, verifying the header and truncating a
// torn trailing record if the previous process crashed mid-append.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		f.Close()
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != version {
		f.Close()
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	if n == 0 || n > math.MaxUint32 {
		f.Close()
		return nil, fmt.Errorf("%w: invalid universe size %d", ErrCorrupt, n)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if tail := (st.Size() - headerSize) % recordSize; tail != 0 {
		// Torn write from a crash: drop the partial record.
		if err := f.Truncate(st.Size() - tail); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &Store{f: f, n: int(n)}, nil
}

// OpenOrCreate opens path if it exists and is valid, else creates it.
// It returns an error if an existing store was built for a different
// universe size — replaying distances onto mismatched indices would be
// silent corruption.
func OpenOrCreate(path string, n int) (*Store, error) {
	if _, err := os.Stat(path); err != nil {
		if os.IsNotExist(err) {
			return Create(path, n)
		}
		return nil, err
	}
	s, err := Open(path)
	if err != nil {
		return nil, err
	}
	if s.n != n {
		s.Close()
		return nil, fmt.Errorf("cachestore: store holds %d objects, caller expects %d", s.n, n)
	}
	return s, nil
}

// N returns the universe size the store was created for.
func (s *Store) N() int { return s.n }

// Append durably records a resolution. The pair is stored normalised
// (i < j); appending the same pair twice is allowed and replay keeps the
// first occurrence.
func (s *Store) Append(i, j int, dist float64) error {
	var rec [recordSize]byte
	if err := s.encode(rec[:], i, j, dist); err != nil {
		return err
	}
	_, err := s.f.Write(rec[:])
	return err
}

// encode validates one resolution against the universe and writes its
// record, pair normalised to i < j, into rec (recordSize bytes).
func (s *Store) encode(rec []byte, i, j int, dist float64) error {
	if i == j || i < 0 || j < 0 || i >= s.n || j >= s.n {
		return fmt.Errorf("cachestore: invalid pair (%d,%d) for universe %d", i, j, s.n)
	}
	if math.IsNaN(dist) || dist < 0 {
		return fmt.Errorf("cachestore: invalid distance %v", dist)
	}
	if i > j {
		i, j = j, i
	}
	binary.LittleEndian.PutUint32(rec[0:], uint32(i))
	binary.LittleEndian.PutUint32(rec[4:], uint32(j))
	binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(dist))
	binary.LittleEndian.PutUint32(rec[16:], checksum(rec[:16]))
	return nil
}

// decode reads one record; ok is false when it fails its checksum (a torn
// or bit-rotted write) or holds an invalid pair or distance that slipped
// past the checksum.
func (s *Store) decode(rec []byte) (r Record, ok bool) {
	if binary.LittleEndian.Uint32(rec[16:]) != checksum(rec[:16]) {
		return Record{}, false
	}
	r = Record{
		I:    int(binary.LittleEndian.Uint32(rec[0:])),
		J:    int(binary.LittleEndian.Uint32(rec[4:])),
		Dist: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
	}
	if r.I >= s.n || r.J >= s.n || r.I == r.J || r.Dist < 0 || math.IsNaN(r.Dist) {
		return Record{}, false
	}
	return r, true
}

// Sync flushes appended records to stable storage.
func (s *Store) Sync() error { return s.f.Sync() }

// Close syncs and closes the underlying file.
func (s *Store) Close() error {
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// replayChunk caps how many records Replay reads per ReadFrom.
const replayChunk = 4096

// readPiece is how many records ReadFrom reads per pread, through a
// buffer on its own stack.
const readPiece = 512

// Replay streams every valid record to fn in append order. A record whose
// checksum fails stops the replay (everything after it is suspect) without
// an error — mirroring the torn-write policy. fn returning false stops
// early. It reads through ReadFrom into one buffer, so the append
// position never moves.
func (s *Store) Replay(fn func(Record) bool) error {
	n, err := s.Len()
	if err != nil || n == 0 {
		return err
	}
	buf := make([]Record, min(n, replayChunk))
	for seq := int64(0); ; seq += int64(len(buf)) {
		recs, err := s.ReadFrom(seq, buf)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if !fn(r) {
				return nil
			}
		}
		if len(recs) < len(buf) {
			return nil // the end of the log, or a damaged record
		}
	}
}

// Len returns the number of complete records currently in the file.
func (s *Store) Len() (int, error) {
	st, err := s.f.Stat()
	if err != nil {
		return 0, err
	}
	return int((st.Size() - headerSize) / recordSize), nil
}

// LastSeq returns the store's replication cursor: the sequence number of
// the next record to be appended, equal to the number of complete records
// in the file. Replication is resumable because this is derivable from the
// file alone — after a crash truncates a torn tail, LastSeq names exactly
// the prefix that survived, and the peer resends from there.
func (s *Store) LastSeq() (int64, error) {
	n, err := s.Len()
	return int64(n), err
}

// ReadFrom reads up to len(dst) records starting at sequence number seq
// into dst and returns the filled prefix of dst; it allocates nothing
// else, so a caller that reads in a loop reuses one dst. It reads with
// pread, so it is safe to call while another goroutine appends — the
// primary's replicator tails a live session's store this way. The read
// covers only the complete records the file held when it began. A record
// that fails its checksum or is invalid (a concurrent half-written tail,
// or damage) ends the batch early; the caller simply retries from the
// same cursor once the writer has finished the record. seq past the end
// returns an empty slice, not an error.
func (s *Store) ReadFrom(seq int64, dst []Record) ([]Record, error) {
	if seq < 0 || len(dst) == 0 {
		return nil, fmt.Errorf("cachestore: invalid ReadFrom(seq=%d, len(dst)=%d)", seq, len(dst))
	}
	head, err := s.LastSeq()
	if err != nil {
		return nil, err
	}
	want := int(min(int64(len(dst)), max(head-seq, 0)))
	var raw [readPiece * recordSize]byte
	n := 0
	for n < want {
		piece := raw[:min(want-n, readPiece)*recordSize]
		got, err := s.f.ReadAt(piece, headerSize+(seq+int64(n))*recordSize)
		if err != nil && err != io.EOF { // EOF: the file shrank under us; use what was read
			return nil, err
		}
		for off := 0; off+recordSize <= got; off += recordSize {
			r, ok := s.decode(piece[off : off+recordSize])
			if !ok {
				return dst[:n], nil // half-written or damaged: stop, retry later
			}
			dst[n] = r
			n++
		}
		if got < len(piece) {
			break
		}
	}
	return dst[:n], nil
}

// AppendFrom applies a replicated batch whose first record carries
// sequence number seq, and returns the store's new LastSeq. The append is
// idempotent: records the store already holds (seq below the current
// cursor) are skipped rather than re-applied, so overlapping retries from
// a primary that never saw an ack are harmless. A batch starting beyond
// the cursor is refused with ErrSeqGap — the replica's file must stay a
// gap-free prefix of the primary's log for promotion to be sound. A
// negative seq is refused with an error, as ReadFrom refuses it. The new
// records up to the first invalid one land in one write; the invalid
// record's error is returned with the cursor after them.
func (s *Store) AppendFrom(seq int64, recs []Record) (int64, error) {
	cur, err := s.LastSeq()
	if err != nil {
		return 0, err
	}
	if seq < 0 {
		return cur, fmt.Errorf("cachestore: invalid AppendFrom(seq=%d)", seq)
	}
	if seq > cur {
		return cur, fmt.Errorf("%w: batch starts at %d, store has %d records", ErrSeqGap, seq, cur)
	}
	skip := cur - seq
	if skip >= int64(len(recs)) {
		return cur, nil // entire batch already present
	}
	recs = recs[skip:]
	buf := make([]byte, len(recs)*recordSize)
	var invalid error
	n := 0
	for _, r := range recs {
		if invalid = s.encode(buf[n:n+recordSize], r.I, r.J, r.Dist); invalid != nil {
			break
		}
		n += recordSize
	}
	if n > 0 {
		w, err := s.f.Write(buf[:n])
		cur += int64(w / recordSize)
		if err != nil {
			return cur, err
		}
	}
	return cur, invalid
}

// checksum is a small avalanche mix over the record body; it exists to
// catch torn or bit-rotted records, not adversaries.
func checksum(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}
