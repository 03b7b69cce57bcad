package cachestore

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func tempPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "dist.cache")
}

func TestCreateAppendReplay(t *testing.T) {
	path := tempPath(t)
	s, err := Create(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{{1, 2, 0.5}, {3, 7, 0.25}, {0, 99, 1}}
	for _, r := range want {
		if _, err := s.Append(Record{r.I, r.J, r.Dist}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.N() != 100 {
		t.Fatalf("N = %d, want 100", s2.N())
	}
	var got []Record
	if err := s2.Replay(func(r Record) bool {
		got = append(got, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestAppendNormalisesPair(t *testing.T) {
	path := tempPath(t)
	s, _ := Create(path, 10)
	s.Append(Record{7, 2, 0.3})
	var r Record
	s.Replay(func(rec Record) bool { r = rec; return true })
	s.Close()
	if r.I != 2 || r.J != 7 {
		t.Fatalf("record not normalised: %+v", r)
	}
}

func TestAppendValidation(t *testing.T) {
	s, _ := Create(tempPath(t), 10)
	defer s.Close()
	if _, err := s.Append(Record{3, 3, 0.1}); err == nil {
		t.Fatal("self pair accepted")
	}
	if _, err := s.Append(Record{0, 10, 0.1}); err == nil {
		t.Fatal("out-of-universe pair accepted")
	}
	if _, err := s.Append(Record{0, 1, math.NaN()}); err == nil {
		t.Fatal("NaN distance accepted")
	}
	if _, err := s.Append(Record{0, 1, -0.5}); err == nil {
		t.Fatal("negative distance accepted")
	}
}

func TestAppendAfterReopen(t *testing.T) {
	path := tempPath(t)
	s, _ := Create(path, 10)
	s.Append(Record{0, 1, 0.1})
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s2.Append(Record{2, 3, 0.2})
	n, _ := s2.Len()
	s2.Close()
	if n != 2 {
		t.Fatalf("Len = %d after reopen+append, want 2", n)
	}
}

func TestTornWriteRepair(t *testing.T) {
	path := tempPath(t)
	s, _ := Create(path, 10)
	s.Append(Record{0, 1, 0.1})
	s.Append(Record{1, 2, 0.2})
	s.Close()
	// Simulate a crash mid-append: chop 7 bytes off the tail.
	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n, _ := s2.Len()
	if n != 1 {
		t.Fatalf("Len = %d after torn-write repair, want 1", n)
	}
	// The store must remain appendable.
	if _, err := s2.Append(Record{3, 4, 0.4}); err != nil {
		t.Fatal(err)
	}
	count := 0
	s2.Replay(func(Record) bool { count++; return true })
	if count != 2 {
		t.Fatalf("replayed %d records, want 2", count)
	}
}

func TestSyncSurvivesCrashWithTornTail(t *testing.T) {
	// A process that Syncs but never Closes (crash) must find every synced
	// record on reopen, even when the crash tore a trailing in-flight
	// append. The torn tail is simulated by appending a partial record
	// through a second handle; the crashed Store is simply abandoned.
	path := tempPath(t)
	s, err := Create(path, 50)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{{0, 1, 0.125}, {2, 3, 0.5}, {4, 5, 0.75}}
	for _, r := range want {
		if _, err := s.Append(Record{r.I, r.J, r.Dist}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, RecordSize-6)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// No s.Close(): the writing process is gone.

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n, _ := s2.Len(); n != len(want) {
		t.Fatalf("Len = %d after crash reopen, want %d", n, len(want))
	}
	var got []Record
	s2.Replay(func(r Record) bool { got = append(got, r); return true })
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, r := range want {
		if got[i] != r {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], r)
		}
	}
}

func TestCreateSyncsHeader(t *testing.T) {
	// A store created and then abandoned (crash before any append or
	// Close) must still open cleanly: Create fsyncs the header.
	path := tempPath(t)
	if _, err := Create(path, 7); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after create-then-crash: %v", err)
	}
	defer s.Close()
	if s.N() != 7 {
		t.Fatalf("N = %d, want 7", s.N())
	}
	if n, _ := s.Len(); n != 0 {
		t.Fatalf("Len = %d, want 0", n)
	}
}

func TestChecksumDamageStopsReplay(t *testing.T) {
	path := tempPath(t)
	s, _ := Create(path, 10)
	s.Append(Record{0, 1, 0.1})
	s.Append(Record{1, 2, 0.2})
	s.Append(Record{2, 3, 0.3})
	s.Close()
	// Flip a byte inside the second record's payload.
	f, _ := os.OpenFile(path, os.O_RDWR, 0)
	f.WriteAt([]byte{0xff}, headerSize+RecordSize+9)
	f.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var got []Record
	s2.Replay(func(r Record) bool { got = append(got, r); return true })
	if len(got) != 1 {
		t.Fatalf("replay returned %d records past damage, want 1", len(got))
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	path := tempPath(t)
	os.WriteFile(path, []byte("not a cache store at all"), 0o644)
	if _, err := Open(path); err == nil {
		t.Fatal("garbage file opened")
	}
}

func TestOpenOrCreate(t *testing.T) {
	path := tempPath(t)
	s, err := OpenOrCreate(path, 50)
	if err != nil {
		t.Fatal(err)
	}
	s.Append(Record{0, 1, 0.9})
	s.Close()
	s2, err := OpenOrCreate(path, 50)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := s2.Len()
	s2.Close()
	if n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	// Universe mismatch must be rejected.
	if _, err := OpenOrCreate(path, 51); err == nil {
		t.Fatal("universe mismatch accepted")
	}
}

func TestReplayEarlyStop(t *testing.T) {
	s, _ := Create(tempPath(t), 10)
	defer s.Close()
	for i := 0; i < 5; i++ {
		s.Append(Record{i, i + 1, float64(i) / 10})
	}
	seen := 0
	s.Replay(func(Record) bool { seen++; return seen < 2 })
	if seen != 2 {
		t.Fatalf("early stop saw %d records, want 2", seen)
	}
	// Append must still land at the end after a replay.
	s.Append(Record{7, 8, 0.7})
	n, _ := s.Len()
	if n != 6 {
		t.Fatalf("Len = %d after post-replay append, want 6", n)
	}
}

// TestReplayAcrossChunks replays a log longer than one ReadFrom chunk:
// damage past the first chunk ends the replay exactly there, fn can stop
// it inside the second chunk, and an Append after Replay lands at the end.
func TestReplayAcrossChunks(t *testing.T) {
	path := tempPath(t)
	const total, damaged = replayChunk + 8, replayChunk + 3
	s, err := Create(path, total+1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < total; k++ {
		if _, err := s.Append(Record{0, k + 1, float64(k) / total}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte{0xff}, headerSize+damaged*RecordSize+9)
	f.Close()
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var got []Record
	if err := s.Replay(func(r Record) bool { got = append(got, r); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != damaged {
		t.Fatalf("replay returned %d records, want the %d before the damage", len(got), damaged)
	}
	for k, r := range got {
		if want := (Record{0, k + 1, float64(k) / total}); r != want {
			t.Fatalf("record %d = %+v, want %+v", k, r, want)
		}
	}
	seen := 0
	s.Replay(func(Record) bool { seen++; return seen <= replayChunk })
	if seen != replayChunk+1 {
		t.Fatalf("early stop saw %d records, want %d", seen, replayChunk+1)
	}
	if _, err := s.Append(Record{0, 1, 0.5}); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Len(); n != total+1 {
		t.Fatalf("Len = %d after post-replay append, want %d", n, total+1)
	}
	if last := readFrom(t, s, total, 1); len(last) != 1 || last[0] != (Record{0, 1, 0.5}) {
		t.Fatalf("record %d = %+v; want the post-replay append", total, last)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	// Property: any batch of valid records replays back exactly.
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "q.cache")
		s, err := Create(path, 64)
		if err != nil {
			return false
		}
		var want []Record
		for k := 0; k < int(count%40); k++ {
			i, j := rng.Intn(64), rng.Intn(64)
			if i == j {
				continue
			}
			d := rng.Float64()
			if _, err := s.Append(Record{i, j, d}); err != nil {
				return false
			}
			if i > j {
				i, j = j, i
			}
			want = append(want, Record{i, j, d})
		}
		s.Close()
		s2, err := Open(path)
		if err != nil {
			return false
		}
		defer s2.Close()
		var got []Record
		s2.Replay(func(r Record) bool { got = append(got, r); return true })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
