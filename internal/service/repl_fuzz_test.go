package service

import (
	"bytes"
	"encoding/json"
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

// replAppend posts one batch for session name to srv's receiver.
func replAppend(t *testing.T, srv *Server, name string, from int64, recs []api.ReplRecord) (int, api.ReplAppendResponse) {
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

// readFile returns the file's bytes, nil when it does not exist.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return b
}

// Fuzz batch encoding: a header of two bytes (the batch's From relative
// to the replica's cursor, −4 … +3, and its record count, 0 … 5), then
// recBytes bytes per record — i, j and a distance byte.
const (
	recBytes   = 3
	maxBatches = 16
)

// decodeRecord maps three fuzz bytes to a record. Index bytes below 68
// cover both sides of [0, testN); the rest fold into [0, 8), so pairs
// repeat, conflict and self-pair often. Distance byte 0 is −1, 1 is
// −Inf, 255 is +Inf (which the store accepts), and b in between is b/64.
func decodeRecord(b []byte) api.ReplRecord {
	idx := func(b byte) int {
		if b < testN+2*idxShift {
			return int(b) - idxShift
		}
		return int(b % 8)
	}
	r := api.ReplRecord{I: idx(b[0]), J: idx(b[1])}
	switch b[2] {
	case 0:
		r.D = -1
	case 1:
		r.D = api.WireFloat(math.Inf(-1))
	case 255:
		r.D = api.WireFloat(math.Inf(1))
	default:
		r.D = api.WireFloat(float64(b[2]) / 64)
	}
	return r
}

// encodeBatch is the fuzz encoding of one batch starting rel records
// past the replica's cursor. Distances must be negative or on the 1/64
// grid below 4.
func encodeBatch(rel int, recs []api.ReplRecord) []byte {
	out := []byte{byte(rel + 4), byte(len(recs))}
	for _, r := range recs {
		d := byte(math.Round(float64(r.D) * 64))
		if r.D < 0 {
			d = 0
		}
		out = append(out, byte(r.I+idxShift), byte(r.J+idxShift), d)
	}
	return out
}

// FuzzReplAppend holds the replication receiver to AppendFrom's prefix
// rule on fuzzed batch sequences: seq gaps, overlaps, repeated and
// conflicting pairs, and malformed records (out-of-range or self pairs,
// negative distances). Every answer must be 200 or 400, never 5xx. A 400
// must leave the replica file byte for byte as it was. After a 200 the
// file must hold exactly the model's records: a batch starting past the
// cursor changes nothing (the ack names the cursor to rewind to), and
// otherwise the records past the cursor are appended as sent, normalised
// to i < j.
func FuzzReplAppend(f *testing.F) {
	f.Add(encodeBatch(0, []api.ReplRecord{{I: 0, J: 1, D: 0.5}, {I: 2, J: 2, D: 0.125}}))
	f.Add(append(encodeBatch(0, []api.ReplRecord{{I: 0, J: 1, D: 0.5}, {I: 3, J: 2, D: 0.25}}),
		encodeBatch(-1, []api.ReplRecord{{I: 2, J: 3, D: 0.25}, {I: 1, J: 0, D: 0.75}})...))
	f.Add(append(encodeBatch(2, []api.ReplRecord{{I: 0, J: 1, D: 0.5}}),
		encodeBatch(0, []api.ReplRecord{{I: 0, J: testN, D: 0.5}, {I: 4, J: 5, D: -1}})...))
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := replicaServer(t)
		path := srv.cachePath("r")
		var model []cachestore.Record
		for b := 0; len(data) >= 2 && b < maxBatches; b++ {
			from := int64(len(model) + int(data[0]%8) - 4)
			n := int(data[1] % 6)
			data = data[2:]
			var recs []api.ReplRecord
			for ; n > 0 && len(data) >= recBytes; n-- {
				recs = append(recs, decodeRecord(data[:recBytes]))
				data = data[recBytes:]
			}

			before := readFile(t, path)
			code, ack := replAppend(t, srv, "r", from, recs)
			switch code {
			case http.StatusBadRequest:
				if after := readFile(t, path); !bytes.Equal(before, after) {
					t.Fatalf("batch %d (from %d, %+v): 400 changed the replica file", b, from, recs)
				}
				continue
			case http.StatusOK:
			default:
				t.Fatalf("batch %d (from %d, %+v): status %d, want 200 or 400", b, from, recs, code)
			}
			if skip := int64(len(model)) - from; skip >= 0 {
				for _, r := range recs[min(skip, int64(len(recs))):] {
					model = append(model, cachestore.Record{I: min(r.I, r.J), J: max(r.I, r.J), Dist: float64(r.D)})
				}
			}
			if ack.Seq != int64(len(model)) {
				t.Fatalf("batch %d (from %d, %+v): ack seq %d, model has %d records", b, from, recs, ack.Seq, len(model))
			}
			got := storeRecords(t, path)
			if len(got) != len(model) {
				t.Fatalf("batch %d: replica holds %d records, model %d", b, len(got), len(model))
			}
			for k := range got {
				if got[k] != model[k] {
					t.Fatalf("batch %d: record %d is %+v, model %+v", b, k, got[k], model[k])
				}
			}
		}
	})
}
