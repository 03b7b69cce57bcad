package cachestore

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// raw encodes recs in the file's layout, each record sealed with its
// checksum but otherwise as given: pairs are not normalised, and invalid
// pairs and distances are kept.
func raw(recs ...Record) []byte {
	b := make([]byte, len(recs)*RecordSize)
	for k, r := range recs {
		rec := b[k*RecordSize : (k+1)*RecordSize]
		binary.LittleEndian.PutUint32(rec[0:], uint32(r.I))
		binary.LittleEndian.PutUint32(rec[4:], uint32(r.J))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(r.Dist))
		binary.LittleEndian.PutUint32(rec[16:], checksum(rec[:16]))
	}
	return b
}

// readFrom reads up to n records from seq with ReadFrom and decodes them.
func readFrom(t *testing.T, s *Store, seq int64, n int) []Record {
	t.Helper()
	b, err := s.ReadFrom(seq, make([]byte, n*RecordSize))
	if err != nil {
		t.Fatal(err)
	}
	var out []Record
	for k := 0; k < len(b); k += RecordSize {
		out = append(out, unpack(b[k:k+RecordSize]))
	}
	return out
}

// seqPath returns a fresh store path for the replication-sequence tests.
func seqPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "replica.cache")
}

func TestLastSeqTracksAppends(t *testing.T) {
	s, err := Create(seqPath(t), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if seq, _ := s.LastSeq(); seq != 0 {
		t.Fatalf("LastSeq of empty store = %d, want 0", seq)
	}
	for k := 0; k < 5; k++ {
		if _, err := s.Append(Record{k, k + 1, float64(k+1) / 10}); err != nil {
			t.Fatal(err)
		}
	}
	if seq, _ := s.LastSeq(); seq != 5 {
		t.Fatalf("LastSeq = %d after 5 appends, want 5", seq)
	}
}

func TestReadFromWindows(t *testing.T) {
	s, err := Create(seqPath(t), 32)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := []Record{{0, 1, 0.1}, {1, 2, 0.2}, {2, 3, 0.3}, {3, 4, 0.4}}
	for _, r := range want {
		if _, err := s.Append(Record{r.I, r.J, r.Dist}); err != nil {
			t.Fatal(err)
		}
	}
	// Middle window.
	got := readFrom(t, s, 1, 2)
	if len(got) != 2 || got[0] != want[1] || got[1] != want[2] {
		t.Fatalf("ReadFrom(1,2) = %+v, want %+v", got, want[1:3])
	}
	// Window past the end is clamped, not an error.
	got = readFrom(t, s, 3, 10)
	if len(got) != 1 || got[0] != want[3] {
		t.Fatalf("ReadFrom(3,10) = %+v, want %+v", got, want[3:])
	}
	// Cursor exactly at the end: empty, no error.
	if got := readFrom(t, s, 4, 8); len(got) != 0 {
		t.Fatalf("ReadFrom(4,8) = %+v, want empty", got)
	}
	// ReadFrom must not disturb the append position.
	if _, err := s.Append(Record{9, 10, 0.9}); err != nil {
		t.Fatal(err)
	}
	if seq, _ := s.LastSeq(); seq != 5 {
		t.Fatalf("LastSeq = %d after ReadFrom+Append, want 5", seq)
	}
}

func TestReadFromStopsAtDamage(t *testing.T) {
	path := seqPath(t)
	s, _ := Create(path, 16)
	s.Append(Record{0, 1, 0.1})
	s.Append(Record{1, 2, 0.2})
	s.Append(Record{2, 3, 0.3})
	s.Close()
	// Corrupt the middle record's payload.
	f, _ := os.OpenFile(path, os.O_RDWR, 0)
	f.WriteAt([]byte{0xee}, headerSize+RecordSize+5)
	f.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := readFrom(t, s2, 0, 10); len(got) != 1 {
		t.Fatalf("ReadFrom returned %d records past damage, want 1", len(got))
	}
}

func TestReadFromConcurrentWithAppends(t *testing.T) {
	// The replicator tails a store another goroutine is appending to;
	// ReadFrom must only ever surface complete, checksummed records and
	// must not corrupt the writer's append offset. Run with -race.
	s, err := Create(seqPath(t), 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const total = 800
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < total; k++ {
			if _, err := s.Append(Record{k % 100, 100 + k%200, float64(k%97) / 97}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var cursor int64
	for cursor < total {
		recs := readFrom(t, s, cursor, 64)
		for i, r := range recs {
			k := int(cursor) + i
			if r.Dist != float64(k%97)/97 {
				t.Fatalf("record %d = %+v, wrong payload", k, r)
			}
		}
		cursor += int64(len(recs))
	}
	wg.Wait()
}

func TestAppendFromIdempotentAndGapChecked(t *testing.T) {
	s, err := Create(seqPath(t), 32)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batch := raw(Record{0, 1, 0.1}, Record{1, 2, 0.2}, Record{2, 3, 0.3})
	// A negative cursor is refused, not read as an overlap.
	if seq, err := s.AppendFrom(-2, batch); err == nil || seq != 0 {
		t.Fatalf("AppendFrom(-2) = %d, %v, want cursor 0 and an error", seq, err)
	}
	if n, _ := s.Len(); n != 0 {
		t.Fatalf("Len = %d after a refused AppendFrom, want 0", n)
	}
	seq, err := s.AppendFrom(0, batch)
	if err != nil || seq != 3 {
		t.Fatalf("AppendFrom(0) = %d, %v, want 3, nil", seq, err)
	}
	// Overlapping retry: first two records already present, third is new.
	seq, err = s.AppendFrom(1, raw(Record{1, 2, 0.2}, Record{2, 3, 0.3}, Record{4, 5, 0.5}))
	if err != nil || seq != 4 {
		t.Fatalf("overlapping AppendFrom = %d, %v, want 4, nil", seq, err)
	}
	// Fully-contained retry is a no-op.
	seq, err = s.AppendFrom(0, batch)
	if err != nil || seq != 4 {
		t.Fatalf("contained AppendFrom = %d, %v, want 4, nil", seq, err)
	}
	if n, _ := s.Len(); n != 4 {
		t.Fatalf("Len = %d, want 4 (idempotent retries must not duplicate)", n)
	}
	// A gap is refused and reports the cursor to rewind to.
	seq, err = s.AppendFrom(9, raw(Record{6, 7, 0.7}))
	if !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap AppendFrom err = %v, want ErrSeqGap", err)
	}
	if seq != 4 {
		t.Fatalf("gap AppendFrom cursor = %d, want 4", seq)
	}
}

// A batch with an invalid record in the middle lands exactly its valid
// prefix: the file holds the records before the invalid one, the cursor
// is the end of that prefix, and the invalid record's error comes back.
func TestAppendFromStopsAtInvalidRecord(t *testing.T) {
	path := seqPath(t)
	s, err := Create(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AppendFrom(0, raw(Record{0, 1, 0.5})); err != nil {
		t.Fatal(err)
	}
	batch := raw(Record{0, 1, 0.5}, Record{1, 2, 0.25}, Record{2, 3, 0.75}, Record{4, 4, 0.1}, Record{5, 6, 0.125})
	seq, err := s.AppendFrom(0, batch)
	if err == nil || errors.Is(err, ErrSeqGap) || seq != 3 {
		t.Fatalf("AppendFrom = %d, %v; want cursor 3 and the invalid-pair error", seq, err)
	}
	got := readFrom(t, s, 0, 10)
	want := []Record{{0, 1, 0.5}, {1, 2, 0.25}, {2, 3, 0.75}}
	if len(got) != len(want) {
		t.Fatalf("store holds %+v, want %+v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("store holds %+v, want %+v", got, want)
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != headerSize+3*RecordSize {
		t.Fatalf("file is %d bytes, want exactly the header and 3 records", st.Size())
	}
}

// BenchmarkReplLog times the replication log's batch calls at the
// sender's default batch of 512 records: the primary's ReadFrom tailing
// its store, the replica's AppendFrom checking and applying the batch,
// and Replay reading the same records back, as a warm start or promotion
// does.
func BenchmarkReplLog(b *testing.B) {
	const batch = 512
	recs := make([]Record, batch)
	for k := range recs {
		recs[k] = Record{I: k % 100, J: 100 + k, Dist: float64(k+1) / 1024}
	}
	body := raw(recs...)
	b.Run("ReadFrom", func(b *testing.B) {
		s, err := Create(filepath.Join(b.TempDir(), "log.cache"), 1<<12)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		if _, err := s.AppendFrom(0, body); err != nil {
			b.Fatal(err)
		}
		dst := make([]byte, len(body))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got, err := s.ReadFrom(0, dst); err != nil || len(got) != len(body) {
				b.Fatalf("ReadFrom = %d bytes, %v", len(got), err)
			}
		}
	})
	b.Run("Replay", func(b *testing.B) {
		s, err := Create(filepath.Join(b.TempDir(), "log.cache"), 1<<12)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		if _, err := s.AppendFrom(0, body); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			if err := s.Replay(func(Record) bool { n++; return true }); err != nil || n != batch {
				b.Fatalf("Replay = %d records, %v", n, err)
			}
		}
	})
	b.Run("AppendFrom", func(b *testing.B) {
		s, err := Create(filepath.Join(b.TempDir(), "log.cache"), 1<<12)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.AppendFrom(int64(i)*batch, body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreAppend times the log's write path per record: one record
// per Append call, as a session writes outside a bootstrap, against one
// call of 512 records, as a bootstrap's chunk is written; each also with
// a final Sync, the fsync that Close adds. ns/record is the figure to
// compare; B/op and allocs/op are per call.
func BenchmarkStoreAppend(b *testing.B) {
	const batch = 512
	recs := make([]Record, batch)
	for k := range recs {
		recs[k] = Record{I: k % 100, J: 100 + k, Dist: float64(k+1) / 1024}
	}
	for _, c := range []struct {
		name string
		per  int
		sync bool
	}{
		{"one", 1, false},
		{"one+sync", 1, true},
		{"bulk", batch, false},
		{"bulk+sync", batch, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, err := Create(filepath.Join(b.TempDir(), "log.cache"), 1<<12)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The bulk case writes every record of the batch; the
				// one-record case walks through it.
				one := recs[i%batch : i%batch+1]
				if c.per == batch {
					one = recs
				}
				if n, err := s.Append(one...); err != nil || n != len(one) {
					b.Fatalf("Append = %d, %v", n, err)
				}
				if c.sync {
					if err := s.Sync(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.per), "ns/record")
		})
	}
}

func TestReplicaMidStreamTruncationResumes(t *testing.T) {
	// The replica-side crash drill: a replica applying a replicated stream
	// dies with a torn tail (crash mid-AppendFrom). On reopen the torn
	// record is dropped, LastSeq names the surviving prefix, and the
	// primary's resend from that cursor converges the replica to the full
	// log — the resume path the handoff protocol leans on.
	primaryPath := filepath.Join(t.TempDir(), "primary.cache")
	replicaPath := filepath.Join(t.TempDir(), "replica.cache")
	p, err := Create(primaryPath, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for k := 0; k < 10; k++ {
		if _, err := p.Append(Record{k, k + 1, float64(k+1) / 16}); err != nil {
			t.Fatal(err)
		}
	}

	// First replication leg: records [0, 6) reach the replica.
	r, err := Create(replicaPath, 64)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := p.ReadFrom(0, make([]byte, 6*RecordSize))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AppendFrom(0, recs); err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-stream: a trailing in-flight record is torn. The crashed
	// handle is abandoned, like the process it lived in.
	f, err := os.OpenFile(replicaPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, RecordSize-3)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Reopen: the torn record is truncated away, the prefix survives.
	r2, err := Open(replicaPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	seq, err := r2.LastSeq()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("replica LastSeq after torn-tail reopen = %d, want 6", seq)
	}
	// Resume: the primary resends from the replica's cursor.
	rest, err := p.ReadFrom(seq, make([]byte, 100*RecordSize))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.AppendFrom(seq, rest); err != nil {
		t.Fatal(err)
	}
	var got, want []Record
	r2.Replay(func(rec Record) bool { got = append(got, rec); return true })
	p.Replay(func(rec Record) bool { want = append(want, rec); return true })
	if len(got) != len(want) {
		t.Fatalf("replica has %d records after resume, primary has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: replica %+v != primary %+v", i, got[i], want[i])
		}
	}
}

func TestReplicaTruncatedDeeperThanStream(t *testing.T) {
	// Mid-stream truncation can eat whole records, not just tear the last
	// one (e.g. a filesystem rollback). The replica then reports an older
	// cursor and AppendFrom's idempotent overlap replays the lost suffix.
	path := seqPath(t)
	s, _ := Create(path, 32)
	all := []Record{{0, 1, 0.1}, {1, 2, 0.2}, {2, 3, 0.3}, {3, 4, 0.4}, {4, 5, 0.5}}
	for _, r := range all {
		s.Append(Record{r.I, r.J, r.Dist})
	}
	s.Close()
	// Roll back to 2 complete records plus half of the third.
	if err := os.Truncate(path, headerSize+2*RecordSize+9); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	seq, _ := s2.LastSeq()
	if seq != 2 {
		t.Fatalf("LastSeq after deep truncation = %d, want 2", seq)
	}
	// The primary, unaware, resends an overlapping batch from seq 1.
	if _, err := s2.AppendFrom(1, raw(all[1:]...)); err != nil {
		t.Fatal(err)
	}
	if n, _ := s2.Len(); n != len(all) {
		t.Fatalf("Len = %d after overlap resend, want %d", n, len(all))
	}
	var got []Record
	s2.Replay(func(r Record) bool { got = append(got, r); return true })
	for i := range all {
		if got[i] != all[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], all[i])
		}
	}
}
