// Package cachestore persists resolved distances across process runs.
//
// The library's whole premise is that oracle calls are expensive — a maps
// API bills per request, an edit-distance engine burns minutes of CPU. A
// Store makes those resolutions durable: every (i, j, distance) triple is
// appended to a crash-safe log, and the next session over the same object
// universe replays the log into its partial graph before making a single
// new call.
//
// Format: a 16-byte header (little-endian uint32 magic "MPX1", uint32
// version 1, uint64 object count) followed by fixed-width records of
// RecordSize bytes: little-endian uint32 i, uint32 j (Append writes
// i < j), the float64 distance's bits, and a uint32 FNV-1a checksum over
// the first 16 bytes. Appends are O(1); a torn final record (crash
// mid-write) is detected and truncated on open. The records are also the
// replication wire format: ReadFrom hands them out raw, CheckRecords
// checks them as the readers do, and AppendFrom writes them raw.
package cachestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// RecordSize is the length of one record in the file and on the wire:
// i uint32 | j uint32 | dist float64 | check uint32.
const RecordSize = 20

const (
	magic      = uint32(0x4d505831) // "MPX1"
	version    = uint32(1)
	headerSize = 16
	// chunk is how many records Append encodes per write, through a
	// buffer on its own stack.
	chunk = 512
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
	if tail := (st.Size() - headerSize) % RecordSize; tail != 0 {
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

// Append records resolutions in order, each pair stored normalised
// (i < j), and returns how many records it wrote. It encodes up to 512
// records at a time into a buffer on its own stack and writes each such
// chunk with one write, so the file holds the same bytes whether the
// records come one per call or all in one. A record with an invalid pair
// or distance is skipped and the others are written, the first such
// error returned; a failed write ends the call with its error. Appending
// the same pair twice is allowed and replay keeps the first occurrence.
func (s *Store) Append(recs ...Record) (int, error) {
	var buf [chunk * RecordSize]byte
	written := 0
	var invalid error
	for len(recs) > 0 {
		n := 0
		for _, r := range recs[:min(len(recs), chunk)] {
			if err := s.encode(buf[n:n+RecordSize], r.I, r.J, r.Dist); err != nil {
				if invalid == nil {
					invalid = err
				}
				continue
			}
			n += RecordSize
		}
		recs = recs[min(len(recs), chunk):]
		if n == 0 {
			continue
		}
		w, err := s.f.Write(buf[:n])
		written += w / RecordSize
		if err != nil {
			return written, err
		}
	}
	return written, invalid
}

// encode validates one resolution against the universe and writes its
// record, pair normalised to i < j, into rec (RecordSize bytes).
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

// valid returns the length in bytes of raw's longest prefix of records
// the log may hold for a universe of n objects, and why the prefix ends
// before raw does (nil when it does not): a record that fails its
// checksum (a torn or bit-rotted write), one that holds a self pair, an
// index outside the universe or a NaN or negative distance behind a good
// checksum, or a torn tail shorter than a record.
func valid(raw []byte, n int) (int, error) {
	k := 0
	for ; k+RecordSize <= len(raw); k += RecordSize {
		rec := raw[k : k+RecordSize]
		i, j := binary.LittleEndian.Uint32(rec[0:]), binary.LittleEndian.Uint32(rec[4:])
		d := math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))
		switch {
		case binary.LittleEndian.Uint32(rec[16:]) != checksum(rec[:16]):
			return k, fmt.Errorf("record %d: checksum mismatch", k/RecordSize)
		case i == j || uint64(i) >= uint64(n) || uint64(j) >= uint64(n):
			return k, fmt.Errorf("record %d: invalid pair (%d,%d) for universe %d", k/RecordSize, i, j, n)
		case math.IsNaN(d) || d < 0:
			return k, fmt.Errorf("record %d: invalid distance %v", k/RecordSize, d)
		}
	}
	if k < len(raw) {
		return k, fmt.Errorf("record %d: torn, %d of %d bytes", k/RecordSize, len(raw)-k, RecordSize)
	}
	return k, nil
}

// CheckRecords checks raw, records in the file's layout, as the log's
// readers check each record they read: it returns nil when every record
// is one the log may hold for a universe of n objects, and otherwise an
// error naming the first that is not. A replica checks each replicated
// batch with it before it touches its store.
func CheckRecords(raw []byte, n int) error {
	_, err := valid(raw, n)
	return err
}

// unpack reads one record that valid accepted.
func unpack(rec []byte) Record {
	return Record{
		I:    int(binary.LittleEndian.Uint32(rec[0:])),
		J:    int(binary.LittleEndian.Uint32(rec[4:])),
		Dist: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
	}
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
	buf := make([]byte, min(n, replayChunk)*RecordSize)
	for seq := int64(0); ; seq += int64(len(buf) / RecordSize) {
		raw, err := s.ReadFrom(seq, buf)
		if err != nil {
			return err
		}
		for k := 0; k < len(raw); k += RecordSize {
			if !fn(unpack(raw[k : k+RecordSize])) {
				return nil
			}
		}
		if len(raw) < len(buf) {
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
	return int((st.Size() - headerSize) / RecordSize), nil
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

// ReadFrom reads records starting at sequence number seq into dst, as
// many whole records as fit, in the file's layout, and returns the
// filled prefix of dst; it needs no buffer of its own, so a caller that
// reads in a loop reuses one dst. It reads with one pread, so it is safe to call
// while another goroutine appends — the primary's replicator tails a
// live session's store this way. The read covers only the complete
// records the file held when it began. A record that fails its checksum
// or is invalid (a concurrent half-written tail, or damage) ends the
// batch early; the caller simply retries from the same cursor once the
// writer has finished the record. seq past the end returns an empty
// slice, not an error.
func (s *Store) ReadFrom(seq int64, dst []byte) ([]byte, error) {
	if seq < 0 || len(dst) < RecordSize {
		return nil, fmt.Errorf("cachestore: invalid ReadFrom(seq=%d, len(dst)=%d)", seq, len(dst))
	}
	head, err := s.LastSeq()
	if err != nil {
		return nil, err
	}
	want := min(int64(len(dst)/RecordSize), max(head-seq, 0)) * RecordSize
	got, err := s.f.ReadAt(dst[:want], headerSize+seq*RecordSize)
	if err != nil && err != io.EOF { // EOF: the file shrank under us; use what was read
		return nil, err
	}
	n, _ := valid(dst[:got-got%RecordSize], s.n)
	return dst[:n], nil
}

// AppendFrom applies a replicated batch, raw records in the file's layout
// whose first carries sequence number seq, and returns the store's new
// LastSeq. The append is idempotent: records the store already holds (seq
// below the current cursor) are skipped rather than re-applied, so
// overlapping retries from a primary that never saw an ack are harmless.
// A batch starting beyond the cursor is refused with ErrSeqGap — the
// replica's file must stay a gap-free prefix of the primary's log for
// promotion to be sound. A negative seq is refused with an error, as
// ReadFrom refuses it. The new records are checked as CheckRecords checks
// them, and those up to the first invalid one land in one write, as
// they are; the invalid record's error is returned with the cursor after
// them.
func (s *Store) AppendFrom(seq int64, raw []byte) (int64, error) {
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
	raw = raw[min((cur-seq)*RecordSize, int64(len(raw))):]
	n, invalid := valid(raw, s.n)
	if n > 0 {
		w, err := s.f.Write(raw[:n])
		cur += int64(w / RecordSize)
		if err != nil {
			return cur, err
		}
	}
	if invalid != nil {
		return cur, fmt.Errorf("cachestore: %w", invalid)
	}
	return cur, nil
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
