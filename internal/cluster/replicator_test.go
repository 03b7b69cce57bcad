package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"metricprox/internal/cachestore"
	"metricprox/internal/service/api"
)

// fakePeer is a minimal /v1/repl receiver: it applies batches to its own
// store with AppendFrom exactly as the service does, and can be switched
// into failure modes to exercise the sender's retry and conflict paths.
type fakePeer struct {
	t     *testing.T
	store *cachestore.Store
	mu    sync.Mutex
	mode  string // "", "down", "conflict", "lie" (ack a cursor past any log)
	metas []api.ReplMeta
	sizes []int // records carried by each applied request, in order
	srv   *httptest.Server
}

func newFakePeer(t *testing.T, n int) *fakePeer {
	t.Helper()
	store, err := cachestore.Create(filepath.Join(t.TempDir(), "peer.cache"), n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	p := &fakePeer{t: t, store: store}
	p.srv = httptest.NewServer(http.HandlerFunc(p.handle))
	t.Cleanup(p.srv.Close)
	return p
}

func (p *fakePeer) setMode(mode string) {
	p.mu.Lock()
	p.mode = mode
	p.mu.Unlock()
}

func (p *fakePeer) handle(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch p.mode {
	case "down":
		w.WriteHeader(http.StatusInternalServerError)
		return
	case "conflict":
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(api.ErrorBody{Code: api.CodeReplConflict, Message: "hosted here"})
		return
	}
	var req api.ReplAppendRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		p.t.Errorf("peer: bad body: %v", err)
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	p.metas = append(p.metas, req.Meta)
	p.sizes = append(p.sizes, len(req.Records)/cachestore.RecordSize)
	if p.mode == "lie" {
		json.NewEncoder(w).Encode(api.ReplAppendResponse{Seq: 1 << 40})
		return
	}
	seq, err := p.store.AppendFrom(req.From, req.Records)
	if err != nil && seq == 0 {
		p.t.Errorf("peer: AppendFrom: %v", err)
	}
	json.NewEncoder(w).Encode(api.ReplAppendResponse{Seq: seq})
}

// requests returns the record counts of the requests applied so far.
func (p *fakePeer) requests() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int(nil), p.sizes...)
}

func (p *fakePeer) seq() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, _ := p.store.LastSeq()
	return s
}

// replTopo builds a two-node topology: self plus the fake peer.
func replTopo(t *testing.T, peerURL string) *Topology {
	t.Helper()
	topo, err := NewTopology(Config{
		Self: "self",
		Nodes: []Node{
			{Name: "self", URL: "http://invalid.localhost:1"},
			{Name: "peer", URL: peerURL},
		},
		Replicas: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func testMeta(n int) api.ReplMeta {
	return api.ReplMeta{Scheme: "tri", Landmarks: 3, Seed: 7, N: n}
}

func TestReplicatorStreamsAndResumes(t *testing.T) {
	const n = 64
	peer := newFakePeer(t, n)
	topo := replTopo(t, peer.srv.URL)

	src, err := cachestore.Create(filepath.Join(t.TempDir(), "src.cache"), n)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for k := 0; k < 10; k++ {
		if _, err := src.Append(cachestore.Record{I: k, J: k + 1, Dist: float64(k+1) / 8}); err != nil {
			t.Fatal(err)
		}
	}

	r := NewReplicator(ReplicatorConfig{Topology: topo, Interval: 5 * time.Millisecond, Batch: 4})
	defer r.Close()
	r.Track("sess", src, testMeta(n))

	// Flush synchronously rather than racing the ticker.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := peer.seq(); got != 10 {
		t.Fatalf("peer has %d records after flush, want 10", got)
	}

	// More appends, peer briefly down: the cursor must hold and resume.
	peer.setMode("down")
	for k := 10; k < 16; k++ {
		src.Append(cachestore.Record{I: k, J: k + 1, Dist: float64(k) / 8})
	}
	shortCtx, shortCancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	_ = r.Flush(shortCtx) // expected to time out: peer refuses everything
	shortCancel()
	if got := peer.seq(); got != 10 {
		t.Fatalf("peer advanced to %d while down, want 10", got)
	}
	peer.setMode("")
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := peer.seq(); got != 16 {
		t.Fatalf("peer has %d records after recovery, want 16", got)
	}

	// Every batch carried the session meta.
	peer.mu.Lock()
	defer peer.mu.Unlock()
	for _, m := range peer.metas {
		if m != testMeta(n) {
			t.Fatalf("batch carried meta %+v, want %+v", m, testMeta(n))
		}
	}
}

func TestReplicatorRewindsAfterPeerTruncation(t *testing.T) {
	const n = 32
	peer := newFakePeer(t, n)
	topo := replTopo(t, peer.srv.URL)
	src, err := cachestore.Create(filepath.Join(t.TempDir(), "src.cache"), n)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for k := 0; k < 8; k++ {
		src.Append(cachestore.Record{I: k, J: k + 1, Dist: float64(k+1) / 4})
	}
	r := NewReplicator(ReplicatorConfig{Topology: topo, Interval: time.Hour})
	defer r.Close()
	r.Track("sess", src, testMeta(n))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Simulate the replica losing its tail: swap in a fresh shorter store.
	peer.mu.Lock()
	peer.store.Close()
	st, err := cachestore.Create(filepath.Join(t.TempDir(), "peer2.cache"), n)
	if err != nil {
		peer.mu.Unlock()
		t.Fatal(err)
	}
	recs, _ := src.ReadFrom(0, make([]byte, 3*cachestore.RecordSize))
	st.AppendFrom(0, recs)
	peer.store = st
	peer.mu.Unlock()
	t.Cleanup(func() { st.Close() })

	// New records: the sender believes the peer is at 8, sends from 8, the
	// peer acks 3 (gap), the sender rewinds and re-converges.
	for k := 8; k < 12; k++ {
		src.Append(cachestore.Record{I: k, J: k + 1, Dist: float64(k) / 4})
	}
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := peer.seq(); got != 12 {
		t.Fatalf("peer has %d records after rewind, want 12", got)
	}
}

func TestReplicatorHaltsOnConflict(t *testing.T) {
	const n = 32
	peer := newFakePeer(t, n)
	topo := replTopo(t, peer.srv.URL)
	src, err := cachestore.Create(filepath.Join(t.TempDir(), "src.cache"), n)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.Append(cachestore.Record{I: 0, J: 1, Dist: 0.5})
	peer.setMode("conflict")
	r := NewReplicator(ReplicatorConfig{Topology: topo, Interval: time.Hour})
	defer r.Close()
	r.Track("sess", src, testMeta(n))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// A conflicted stream is dead, not lagging: Flush converges instantly.
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := peer.seq(); got != 0 {
		t.Fatalf("conflicted peer applied %d records, want 0", got)
	}
	// Later appends never reach it either.
	src.Append(cachestore.Record{I: 1, J: 2, Dist: 0.25})
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := peer.seq(); got != 0 {
		t.Fatalf("halted stream pushed records after conflict: peer at %d", got)
	}
}

func TestReplicatorUntrackStopsStream(t *testing.T) {
	const n = 32
	peer := newFakePeer(t, n)
	topo := replTopo(t, peer.srv.URL)
	src, err := cachestore.Create(filepath.Join(t.TempDir(), "src.cache"), n)
	if err != nil {
		t.Fatal(err)
	}
	src.Append(cachestore.Record{I: 0, J: 1, Dist: 0.5})
	r := NewReplicator(ReplicatorConfig{Topology: topo, Interval: time.Hour})
	defer r.Close()
	r.Track("sess", src, testMeta(n))
	r.Untrack("sess")
	// After Untrack the store may be closed; a flush must not touch it.
	src.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := peer.seq(); got != 0 {
		t.Fatalf("untracked session replicated %d records", got)
	}
}

func TestReplicatorNoPeersIsNoop(t *testing.T) {
	topo, err := NewTopology(Config{
		Self:  "solo",
		Nodes: []Node{{Name: "solo", URL: "http://x:1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	src, err := cachestore.Create(filepath.Join(t.TempDir(), "src.cache"), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	r := NewReplicator(ReplicatorConfig{Topology: topo})
	defer r.Close()
	r.Track("sess", src, testMeta(8))
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

// fillStore appends count distinct records to store.
func fillStore(t *testing.T, store *cachestore.Store, count int) {
	t.Helper()
	for k := 0; k < count; k++ {
		if _, err := store.Append(cachestore.Record{I: k / 60, J: 60 + k%60, Dist: float64(k+1) / 64}); err != nil {
			t.Fatal(err)
		}
	}
}

// A replica that already holds more than one batch of the log (the
// primary restarted, or Rebalance pushed it) acks its own cursor past
// the batch's end; the sender must adopt it instead of refusing the ack
// on every cycle and never shipping another record.
func TestReplicatorAdoptsReplicaAhead(t *testing.T) {
	const n = 128
	peer := newFakePeer(t, n)
	topo := replTopo(t, peer.srv.URL)
	src, err := cachestore.Create(filepath.Join(t.TempDir(), "src.cache"), n)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	fillStore(t, src, 16)
	recs, err := src.ReadFrom(0, make([]byte, 16*cachestore.RecordSize))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peer.store.AppendFrom(0, recs); err != nil {
		t.Fatal(err)
	}

	r := NewReplicator(ReplicatorConfig{Topology: topo, Interval: time.Hour, Batch: 4})
	defer r.Close()
	r.Track("sess", src, testMeta(n))
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if err := r.Flush(ctx); err != nil {
		t.Fatalf("flush toward a replica already at the head: %v", err)
	}
	if got := peer.seq(); got != 16 {
		t.Fatalf("peer has %d records, want 16", got)
	}
}

// A batch may read records appended after the cycle sampled the log
// head; the peer's ack of them is within the log and must be adopted,
// not refused and re-sent on every cycle.
func TestReplicatorAdoptsAckPastSampledHead(t *testing.T) {
	const n = 128
	peer := newFakePeer(t, n)
	src, err := cachestore.Create(filepath.Join(t.TempDir(), "src.cache"), n)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	fillStore(t, src, 10)
	r := NewReplicator(ReplicatorConfig{Topology: replTopo(t, peer.srv.URL)})
	defer r.Close()
	st := &replStream{name: "sess", store: src, meta: testMeta(n)}
	pc := &peerCursor{node: Node{Name: "peer", URL: peer.srv.URL}}
	const sampledHead = 4 // the log grew to 10 after the cycle read its head
	if lag := r.pushPeer(context.Background(), st, pc, sampledHead); lag != 0 || pc.seq != 10 {
		t.Fatalf("pushPeer = lag %d, cursor %d; want lag 0, cursor 10", lag, pc.seq)
	}
	if got := r.errs("peer").Value(); got != 0 {
		t.Fatalf("%d append errors, want 0", got)
	}
	if got := peer.requests(); len(got) != 1 || got[0] != 10 {
		t.Fatalf("requests carried %v records, want one batch of 10", got)
	}
}

// A damaged record at a peer's cursor below the log head is lag, not
// catch-up: a 16-record log whose record 8 fails its checksum, shipped in
// batches of 4, leaves the peer at 8 of 16, so Flush must run out its
// deadline and the lag gauge must read the records still behind.
func TestFlushReportsDamagedRecordAsLag(t *testing.T) {
	const n = 128
	peer := newFakePeer(t, n)
	path := filepath.Join(t.TempDir(), "src.cache")
	src, err := cachestore.Create(path, n)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	fillStore(t, src, 16)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	const headerSize = 16 // cachestore's file layout
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, headerSize+8*cachestore.RecordSize+16); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewReplicator(ReplicatorConfig{Topology: replTopo(t, peer.srv.URL), Interval: time.Hour, Batch: 4})
	defer r.Close()
	r.Track("sess", src, testMeta(n))
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := r.Flush(ctx); err == nil {
		t.Fatalf("Flush reported caught up with the peer at %d of 16 records", peer.seq())
	}
	if got := peer.seq(); got != 8 {
		t.Fatalf("peer holds %d records, want the 8 before the damage", got)
	}
	if lag := r.lag.Value(); lag <= 0 {
		t.Fatalf("lag gauge reads %v with the peer 8 records behind", lag)
	}
}

// rebalanceDir writes a session store of count records plus its meta
// sidecar into a fresh directory, the state a restarted node finds.
func rebalanceDir(t *testing.T, n, count int) string {
	t.Helper()
	dir := t.TempDir()
	store, err := cachestore.Create(filepath.Join(dir, "sess.cache"), n)
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, store, count)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := SaveMeta(dir, "sess", testMeta(n)); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRebalancePushesAndProbes(t *testing.T) {
	const n = 128
	dir := rebalanceDir(t, n, 1100)
	peer := newFakePeer(t, n)
	r := NewReplicator(ReplicatorConfig{Topology: replTopo(t, peer.srv.URL)})
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	pushed, err := r.Rebalance(ctx, dir)
	if err != nil || pushed != 1 {
		t.Fatalf("Rebalance = %d, %v; want 1 session pushed", pushed, err)
	}
	if got := peer.seq(); got != 1100 {
		t.Fatalf("peer has %d records after rebalance, want 1100", got)
	}

	// Against the caught-up peer a second pass costs one empty append (the
	// cursor probe) and still counts the session.
	before := len(peer.requests())
	pushed, err = r.Rebalance(ctx, dir)
	if err != nil || pushed != 1 {
		t.Fatalf("second Rebalance = %d, %v; want 1 session pushed", pushed, err)
	}
	if got := peer.requests()[before:]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("second Rebalance sent requests carrying %v records, want one empty probe", got)
	}
}

func TestRebalanceRefusesImpossibleAck(t *testing.T) {
	const n = 128
	dir := rebalanceDir(t, n, 10)
	peer := newFakePeer(t, n)
	peer.setMode("lie")
	r := NewReplicator(ReplicatorConfig{Topology: replTopo(t, peer.srv.URL)})
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	pushed, err := r.Rebalance(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if pushed != 0 {
		t.Fatalf("Rebalance counted %d sessions pushed to a peer acking cursor 2^40 of a 10-record log, want 0", pushed)
	}
}

// Rebalance runs beside the pump and takes none of its locks: both push
// the same log to the same peer at once, each adopting the acks the
// other's appends produce, and the peer ends with the log exactly once.
// (A pump cycle may time out under -race; it retries on the next tick.)
func TestRebalanceBesidePump(t *testing.T) {
	const n = 128
	dir := rebalanceDir(t, n, 600)
	peer := newFakePeer(t, n)
	r := NewReplicator(ReplicatorConfig{Topology: replTopo(t, peer.srv.URL), Interval: 5 * time.Millisecond, Batch: 16})
	defer r.Close()
	store, err := cachestore.Open(filepath.Join(dir, "sess.cache"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r.Track("sess", store, testMeta(n))
	r.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if pushed, err := r.Rebalance(ctx, dir); err != nil || pushed != 1 {
		t.Fatalf("Rebalance = %d, %v; want 1 session pushed", pushed, err)
	}
	if err := r.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := peer.seq(); got != 600 {
		t.Fatalf("peer has %d records, want 600", got)
	}
}

// An append's body is the request's own MarshalJSON output, and that is
// byte for byte what json.Marshal writes for it: the log's records as
// the file holds them, distances on the float edges of encoding/json's
// formats included, in base64. A NaN in the meta, which encoding/json
// refuses, sends nothing.
func TestReplicatorSendsMarshalBytes(t *testing.T) {
	var bodies [][]byte
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
		return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader(`{"seq":0}`)), Request: r}, nil
	})}
	r := NewReplicator(ReplicatorConfig{Topology: replTopo(t, "http://peer.invalid"), HTTPClient: hc})
	defer r.Close()
	src, err := cachestore.Create(filepath.Join(t.TempDir(), "src.cache"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	edges := []float64{0, math.Copysign(0, -1), 5e-324, 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 0.1, 123456789, math.Inf(1)}
	for k, d := range edges {
		if _, err := src.Append(cachestore.Record{I: k, J: 63 - k, Dist: d}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := src.ReadFrom(0, make([]byte, len(edges)*cachestore.RecordSize))
	if err != nil || len(recs) != len(edges)*cachestore.RecordSize {
		t.Fatalf("ReadFrom = %d bytes, %v", len(recs), err)
	}
	meta := testMeta(64)
	meta.SlackEps, meta.SlackRatio = api.WireFloat(math.Inf(1)), 1e-7
	nan := meta
	nan.SlackRatio = api.WireFloat(math.NaN())
	pc := &peerCursor{node: Node{Name: "peer", URL: "http://peer.invalid"}}
	for _, c := range []struct {
		meta api.ReplMeta
		recs []byte
	}{{meta, nil}, {meta, recs[:cachestore.RecordSize]}, {meta, recs}, {nan, recs}} {
		bodies = nil
		st := &replStream{name: "sess", meta: c.meta}
		_, err := r.sendBatch(context.Background(), st, pc, c.recs, 0)
		want, werr := json.Marshal(api.ReplAppendRequest{Node: "self", Meta: c.meta, From: pc.seq, Records: c.recs})
		if werr != nil {
			if err == nil || len(bodies) != 0 {
				t.Fatalf("%d bytes of records with a NaN meta: sent %d bodies, error %v", len(c.recs), len(bodies), err)
			}
			continue
		}
		if err != nil || len(bodies) != 1 || !bytes.Equal(bodies[0], want) {
			t.Fatalf("%d bytes of records: sent %q, %v; json.Marshal %s", len(c.recs), bodies, err, want)
		}
	}
}
