package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"net/http"
	"os"
	"testing"

	"metricprox/internal/cachestore"
	"metricprox/internal/cluster"
	"metricprox/internal/metric"
	"metricprox/internal/service/api"
)

// replicaServer is a cluster-enabled server that is only ever a
// replication receiver: one member, its own cache dir, no Replicator.
func replicaServer(t *testing.T) *Server {
	t.Helper()
	topo, err := cluster.NewTopology(cluster.Config{Self: "b", Nodes: []cluster.Node{{Name: "b", URL: "http://b.test"}}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Oracle: metric.NewOracle(testSpace()), CacheDir: t.TempDir(), Cluster: topo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// replAppend posts one batch of raw records for session name to srv's
// receiver.
func replAppend(t *testing.T, srv *Server, name string, from int64, recs []byte) (int, api.ReplAppendResponse) {
	t.Helper()
	rec := serve(srv, "/v1/repl/"+name, api.ReplAppendRequest{
		Node: "a", Meta: api.ReplMeta{Scheme: "tri", N: testN}, From: from, Records: recs,
	})
	var ack api.ReplAppendResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
			t.Fatalf("decode ack %s: %v", rec.Body, err)
		}
	}
	return rec.Code, ack
}

// rawRecords lays recs out as cachestore records, each sealed with its
// FNV-1a checksum but otherwise as given: pairs are not normalised, and
// an invalid pair or distance stays for the receiver's own check to
// refuse.
func rawRecords(recs ...cachestore.Record) []byte {
	b := make([]byte, len(recs)*cachestore.RecordSize)
	for k, r := range recs {
		rec := b[k*cachestore.RecordSize : (k+1)*cachestore.RecordSize]
		binary.LittleEndian.PutUint32(rec[0:], uint32(r.I))
		binary.LittleEndian.PutUint32(rec[4:], uint32(r.J))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(r.Dist))
		h := fnv.New32a()
		h.Write(rec[:16])
		binary.LittleEndian.PutUint32(rec[16:], h.Sum32())
	}
	return b
}

// readFile returns the file's bytes, nil when it does not exist.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return b
}

// Fuzz batch encoding: a header of two bytes — the batch's From relative
// to the replica's cursor (−4 … +3), and a byte whose value mod 6 is the
// record count and whose value div 6 mod 20 is the length of a torn tail
// (0 … 19 bytes of a good record) — then recBytes bytes per record: i, j,
// a distance byte, and a flag byte whose low bit breaks the record's
// checksum.
const (
	recBytes   = 4
	maxBatches = 16
)

// decodeRecord maps four fuzz bytes to a raw record and reports whether
// the receiver must accept it. Index bytes below 68 cover both sides of
// [0, testN); the rest fold into [0, 8), so pairs repeat, conflict and
// self-pair often. Distance byte 0 is −1, 1 is −Inf, 2 is NaN, 255 is
// +Inf (which the store accepts), and b in between is b/64.
func decodeRecord(b []byte) (rec []byte, ok bool) {
	idx := func(b byte) int {
		if b < testN+2*idxShift {
			return int(b) - idxShift
		}
		return int(b % 8)
	}
	r := cachestore.Record{I: idx(b[0]), J: idx(b[1])}
	switch b[2] {
	case 0:
		r.Dist = -1
	case 1:
		r.Dist = math.Inf(-1)
	case 2:
		r.Dist = math.NaN()
	case 255:
		r.Dist = math.Inf(1)
	default:
		r.Dist = float64(b[2]) / 64
	}
	rec = rawRecords(r)
	if b[3]&1 == 1 {
		rec[cachestore.RecordSize-1] ^= 0x5a
	}
	ok = b[3]&1 == 0 && r.I != r.J && r.I >= 0 && r.J >= 0 && r.I < testN && r.J < testN && r.Dist >= 0
	return rec, ok
}

// encodeBatch is the fuzz encoding of one batch of recs starting rel
// records past the replica's cursor, torn bytes of a record after them.
// Distances must be negative, NaN or on the 1/64 grid below 4; bad marks
// the records whose checksum is broken.
func encodeBatch(rel, torn int, recs []cachestore.Record, bad ...int) []byte {
	out := []byte{byte(rel + 4), byte(len(recs) + 6*torn)}
	for k, r := range recs {
		d := byte(math.Round(r.Dist * 64))
		switch {
		case math.IsNaN(r.Dist):
			d = 2
		case r.Dist < 0:
			d = 0
		}
		flag := byte(0)
		for _, x := range bad {
			if x == k {
				flag = 1
			}
		}
		out = append(out, byte(r.I+idxShift), byte(r.J+idxShift), d, flag)
	}
	return out
}

// FuzzReplAppend holds the replication receiver to AppendFrom's prefix
// rule on fuzzed sequences of raw record batches: seq gaps, overlaps,
// repeated and conflicting pairs, and malformed batches — broken
// checksums, torn tails, and records whose checksum is good but whose
// pair is out of range or a self pair, or whose distance is negative or
// NaN. A batch is answered 200 exactly when every record in it is valid
// and it starts at a cursor of 0 or more, and 400 otherwise, never 5xx.
// A 400 must leave the replica file byte for byte as it was. After a 200
// the file must hold exactly the model's bytes: a batch starting past
// the cursor changes nothing (the ack names the cursor to rewind to),
// and otherwise the records past the cursor are appended as sent.
func FuzzReplAppend(f *testing.F) {
	type rec = cachestore.Record
	f.Add(encodeBatch(0, 0, []rec{{I: 0, J: 1, Dist: 0.5}, {I: 2, J: 2, Dist: 0.125}}))
	f.Add(append(encodeBatch(0, 0, []rec{{I: 0, J: 1, Dist: 0.5}, {I: 3, J: 2, Dist: 0.25}}),
		encodeBatch(-1, 0, []rec{{I: 2, J: 3, Dist: 0.25}, {I: 1, J: 0, Dist: 0.75}})...))
	f.Add(append(encodeBatch(2, 0, []rec{{I: 0, J: 1, Dist: 0.5}}),
		encodeBatch(0, 0, []rec{{I: 0, J: testN, Dist: 0.5}, {I: 4, J: 5, Dist: -1}})...))
	f.Add(append(encodeBatch(0, 7, []rec{{I: 0, J: 1, Dist: 0.5}}),
		encodeBatch(0, 0, []rec{{I: 0, J: 1, Dist: 0.5}, {I: 4, J: 5, Dist: 0.25}}, 1)...))
	f.Add(append(encodeBatch(0, 0, []rec{{I: 0, J: 1, Dist: 0.5}, {I: 4, J: 5, Dist: math.NaN()}}),
		encodeBatch(0, 0, []rec{{I: 0, J: 1, Dist: 0.5}, {I: 4, J: 5, Dist: 0.25}})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := replicaServer(t)
		path := srv.cachePath("r")
		var model []byte // the replica's records, as the file holds them
		for b := 0; len(data) >= 2 && b < maxBatches; b++ {
			cur := len(model) / cachestore.RecordSize
			from := int64(cur + int(data[0]%8) - 4)
			n, torn := int(data[1]%6), int(data[1]/6%20)
			data = data[2:]
			var batch []byte
			wantOK := from >= 0 // a negative cursor is refused too
			for ; n > 0 && len(data) >= recBytes; n-- {
				rec, ok := decodeRecord(data[:recBytes])
				batch = append(batch, rec...)
				wantOK = wantOK && ok
				data = data[recBytes:]
			}
			if torn > 0 {
				batch = append(batch, rawRecords(cachestore.Record{I: 0, J: 1, Dist: 0.5})[:torn]...)
				wantOK = false
			}

			before := readFile(t, path)
			code, ack := replAppend(t, srv, "r", from, batch)
			switch {
			case code == http.StatusBadRequest && !wantOK:
				if after := readFile(t, path); !bytes.Equal(before, after) {
					t.Fatalf("batch %d (from %d, %x): 400 changed the replica file", b, from, batch)
				}
				continue
			case code == http.StatusOK && wantOK:
			default:
				t.Fatalf("batch %d (from %d, %x): status %d, want %d", b, from, batch, code, map[bool]int{true: 200, false: 400}[wantOK])
			}
			if skip := int64(cur) - from; skip >= 0 {
				model = append(model, batch[min(skip*cachestore.RecordSize, int64(len(batch))):]...)
			}
			if ack.Seq != int64(len(model)/cachestore.RecordSize) {
				t.Fatalf("batch %d (from %d, %x): ack seq %d, model has %d records", b, from, batch, ack.Seq, len(model)/cachestore.RecordSize)
			}
			if got := readFile(t, path); len(got) < 16 || !bytes.Equal(got[16:], model) {
				t.Fatalf("batch %d: replica file holds records %x, model %x", b, got[min(16, len(got)):], model)
			}
		}
	})
}
