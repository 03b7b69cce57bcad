package cachestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzOpenArbitraryBytes feeds arbitrary file contents to Open: it must
// never panic, and whenever it does open a store, Replay must terminate
// and yield only in-universe records.
func FuzzOpenArbitraryBytes(f *testing.F) {
	// Seed with a valid store prefix.
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.cache")
	s, err := Create(seedPath, 16)
	if err != nil {
		f.Fatal(err)
	}
	s.Append(Record{1, 2, 0.5})
	s.Close()
	valid, _ := os.ReadFile(seedPath)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.cache")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		st, err := Open(path)
		if err != nil {
			return // rejection is fine; panics are not
		}
		defer st.Close()
		count := 0
		st.Replay(func(r Record) bool {
			if r.I < 0 || r.J < 0 || r.I >= st.N() || r.J >= st.N() {
				t.Fatalf("out-of-universe record %+v from fuzzed store", r)
			}
			if r.Dist < 0 || r.Dist != r.Dist {
				t.Fatalf("invalid distance %v from fuzzed store", r.Dist)
			}
			count++
			return count < 1<<20 // hard stop against pathological loops
		})
		// The store must remain appendable after surviving Open.
		if st.N() > 3 {
			if _, err := st.Append(Record{0, 1, 0.25}); err != nil {
				t.Fatalf("append after fuzzed open: %v", err)
			}
		}
	})
}

// decode is the record check the log's readers made before records
// crossed the wire raw, kept as FuzzCheckRecords' reference: ok is false
// when rec fails its checksum (a torn or bit-rotted write) or holds an
// invalid pair or distance that slipped past the checksum.
func decode(rec []byte, n int) (r Record, ok bool) {
	if binary.LittleEndian.Uint32(rec[16:]) != checksum(rec[:16]) {
		return Record{}, false
	}
	r = Record{
		I:    int(binary.LittleEndian.Uint32(rec[0:])),
		J:    int(binary.LittleEndian.Uint32(rec[4:])),
		Dist: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
	}
	if r.I >= n || r.J >= n || r.I == r.J || r.Dist < 0 || math.IsNaN(r.Dist) {
		return Record{}, false
	}
	return r, true
}

// FuzzCheckRecords holds the raw record check to decode, record by
// record, on arbitrary bytes for universes of 1 to 64 objects. Bit k of
// seal re-seals record k's checksum first, so records with a good
// checksum over a self pair, an index outside the universe, a NaN or a
// negative distance come up as often as damaged ones. The check must
// accept the longest prefix of whole records that all decode, and refuse
// anything longer naming the first record past it (a torn tail
// included). The store's raw paths must agree: AppendFrom applies
// exactly that prefix, ReadFrom hands its bytes back, and Replay yields
// what decode reads from them.
func FuzzCheckRecords(f *testing.F) {
	good := raw(Record{0, 1, 0.5}, Record{2, 1, math.Inf(1)}, Record{3, 7, 0})
	f.Add(good, uint8(8), uint64(0))
	f.Add(good[:len(good)-3], uint8(8), uint64(0))
	f.Add(append(raw(Record{0, 1, 0.5}), raw(Record{4, 4, 0.5})...), uint8(8), uint64(0))
	f.Add(append(raw(Record{0, 1, 0.5}), raw(Record{4, 9, 0.5})...), uint8(8), uint64(0))
	f.Add(append(raw(Record{0, 1, 0.5}), raw(Record{4, 5, math.NaN()})...), uint8(8), uint64(0))
	f.Add(append(raw(Record{0, 1, 0.5}), raw(Record{4, 5, -1})...), uint8(8), uint64(0))
	f.Add([]byte("twenty bytes, sealed"), uint8(63), uint64(1))
	f.Fuzz(func(t *testing.T, data []byte, universe uint8, seal uint64) {
		n := int(universe%64) + 1
		data = bytes.Clone(data)
		for k := 0; k < 64 && (k+1)*RecordSize <= len(data); k++ {
			if seal>>k&1 == 1 {
				rec := data[k*RecordSize : (k+1)*RecordSize]
				binary.LittleEndian.PutUint32(rec[16:], checksum(rec[:16]))
			}
		}
		var want []Record
		for k := 0; k+RecordSize <= len(data); k += RecordSize {
			r, ok := decode(data[k:k+RecordSize], n)
			if !ok {
				break
			}
			want = append(want, r)
		}
		prefix := len(want) * RecordSize
		err := CheckRecords(data, n)
		if (err == nil) != (prefix == len(data)) {
			t.Fatalf("CheckRecords(%x, %d) = %v; decode accepts %d of %d bytes", data, n, err, prefix, len(data))
		}
		if err != nil && !strings.HasPrefix(err.Error(), fmt.Sprintf("record %d: ", len(want))) {
			t.Fatalf("CheckRecords(%x, %d) = %v; decode stops at record %d", data, n, err, len(want))
		}

		s, cerr := Create(filepath.Join(t.TempDir(), "f.cache"), n)
		if cerr != nil {
			t.Fatal(cerr)
		}
		defer s.Close()
		seq, aerr := s.AppendFrom(0, data)
		if seq != int64(len(want)) || (aerr == nil) != (err == nil) {
			t.Fatalf("AppendFrom(%x) = %d, %v; decode accepts %d records, check says %v", data, seq, aerr, len(want), err)
		}
		back, rerr := s.ReadFrom(0, make([]byte, len(data)+RecordSize))
		if rerr != nil || !bytes.Equal(back, data[:prefix]) {
			t.Fatalf("ReadFrom = %x, %v; want %x", back, rerr, data[:prefix])
		}
		var replayed []Record
		if err := s.Replay(func(r Record) bool { replayed = append(replayed, r); return true }); err != nil {
			t.Fatal(err)
		}
		if len(replayed) != len(want) {
			t.Fatalf("Replay yields %d records, decode %d", len(replayed), len(want))
		}
		for k := range want {
			if math.Float64bits(replayed[k].Dist) != math.Float64bits(want[k].Dist) || replayed[k].I != want[k].I || replayed[k].J != want[k].J {
				t.Fatalf("record %d replays as %+v, decode reads %+v", k, replayed[k], want[k])
			}
		}
	})
}
