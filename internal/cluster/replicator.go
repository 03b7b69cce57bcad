package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"metricprox/internal/cachestore"
	"metricprox/internal/obs"
	"metricprox/internal/service/api"
)

// Replication metric names exported by the Replicator. Documented in
// docs/METRICS.md.
const (
	// MetricReplSentRecords counts records acknowledged by replicas,
	// labelled by peer node.
	MetricReplSentRecords = "cluster_repl_sent_records_total"
	// MetricReplErrors counts failed append round-trips (transport errors
	// and non-2xx responses other than conflicts), labelled by peer node.
	MetricReplErrors = "cluster_repl_errors_total"
	// MetricReplConflicts counts streams halted by a 409 repl_conflict —
	// the peer hosts the session itself, so replicating to it would fork
	// the log.
	MetricReplConflicts = "cluster_repl_conflicts_total"
	// MetricReplLag gauges the worst per-peer replication lag in records
	// across all tracked sessions, sampled each pump cycle.
	MetricReplLag = "cluster_repl_lag_records"
)

// DefaultReplInterval is the store-tailing period when ReplicatorConfig.
// Interval is 0. Replication is an accelerant, not a durability
// mechanism, so a sub-second pump is plenty: a failover loses at most one
// interval of bound state and re-pays the oracle for exactly that tail.
const DefaultReplInterval = 100 * time.Millisecond

// DefaultReplBatch is the per-round-trip record cap when ReplicatorConfig.
// Batch is 0 (512 records: 10 KiB of log, about 14 KiB of JSON as base64
// — small enough to never stall a node's HTTP handler, large enough to
// drain a burst in a few trips).
const DefaultReplBatch = 512

// ReplicatorConfig parameterises a Replicator.
type ReplicatorConfig struct {
	// Topology decides each session's replica targets and names the
	// sending node.
	Topology *Topology
	// HTTPClient issues the append requests; nil means a 5-second-timeout
	// client.
	HTTPClient *http.Client
	// Interval is the tailing period; 0 means DefaultReplInterval.
	Interval time.Duration
	// Batch caps records per append request; 0 means DefaultReplBatch.
	Batch int
	// Registry receives the cluster_repl_* instruments when non-nil.
	Registry *obs.Registry
	// Logf receives operational log lines when non-nil.
	Logf func(format string, args ...any)
}

// peerCursor is one replication stream: this node's progress pushing a
// session's log to one peer.
type peerCursor struct {
	node   Node
	seq    int64  // next record to send
	halted bool   // peer answered 409 repl_conflict; stream is dead
	buf    []byte // ReadFrom's destination, reused every batch
}

// replStream is the replication state of one locally-hosted session.
type replStream struct {
	name  string
	store *cachestore.Store
	meta  api.ReplMeta
	peers []*peerCursor
}

// Replicator streams every locally-hosted session's committed resolutions
// to the session's replica owners. It tails the session's own cachestore
// with pread (cachestore.ReadFrom is safe against the session's
// concurrent appends) — the store is both the durability log and the
// replication log, so sequence numbers are simply record indices and
// resume-after-crash falls out of the file format.
//
// One background goroutine pumps all tracked sessions; an append error
// leaves the peer's cursor in place and the next cycle retries, so a
// briefly-unreachable replica just catches up. A 409 repl_conflict halts
// that peer's stream permanently (the peer hosts the session itself —
// after a failover and recovery, the old primary must not overwrite the
// promoted replica's live log).
type Replicator struct {
	cfg      ReplicatorConfig
	hc       *http.Client
	interval time.Duration
	batch    int

	mu       sync.Mutex
	sessions map[string]*replStream

	// pumpMu serialises pump cycles: the background loop, Flush, and
	// Untrack all take it, so peer cursors are single-writer and a store
	// removed by Untrack is never read by a cycle that starts afterwards.
	pumpMu sync.Mutex

	stop chan struct{}
	wg   sync.WaitGroup

	sent      func(peer string) *obs.Counter
	errs      func(peer string) *obs.Counter
	conflicts *obs.Counter
	lag       *obs.Gauge
}

// NewReplicator builds a Replicator; call Start to begin pumping.
func NewReplicator(cfg ReplicatorConfig) *Replicator {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultReplInterval
	}
	if cfg.Batch <= 0 {
		cfg.Batch = DefaultReplBatch
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Second}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Replicator{
		cfg:      cfg,
		hc:       hc,
		interval: cfg.Interval,
		batch:    cfg.Batch,
		sessions: make(map[string]*replStream),
		stop:     make(chan struct{}),
		sent: func(peer string) *obs.Counter {
			return reg.Counter(MetricReplSentRecords, obs.Label{Key: "peer", Value: peer})
		},
		errs: func(peer string) *obs.Counter {
			return reg.Counter(MetricReplErrors, obs.Label{Key: "peer", Value: peer})
		},
		conflicts: reg.Counter(MetricReplConflicts),
		lag:       reg.Gauge(MetricReplLag),
	}
}

// Start launches the background pump.
func (r *Replicator) Start() {
	r.wg.Add(1)
	go r.loop()
}

// Close stops the pump and waits for it. Tracked stores are NOT closed —
// they belong to their sessions.
func (r *Replicator) Close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.wg.Wait()
}

// Track begins replicating the named session's store to its peer owners.
// The store must outlive the tracking (call Untrack before closing it —
// the service does so from its eviction hook). Tracking a session with no
// peers (single-node cluster) is a no-op.
func (r *Replicator) Track(name string, store *cachestore.Store, meta api.ReplMeta) {
	peers := r.cfg.Topology.Peers(name)
	if len(peers) == 0 {
		return
	}
	st := &replStream{name: name, store: store, meta: meta}
	for _, p := range peers {
		st.peers = append(st.peers, &peerCursor{node: p})
	}
	r.mu.Lock()
	r.sessions[name] = st
	r.mu.Unlock()
}

// Untrack stops replicating the named session and waits out any pump
// cycle in flight, so the caller may close the store the moment Untrack
// returns. Safe to call for names never tracked.
func (r *Replicator) Untrack(name string) {
	r.mu.Lock()
	delete(r.sessions, name)
	r.mu.Unlock()
	// Barrier: a cycle that snapshotted the stream before the delete may
	// still hold the store; taking pumpMu waits it out.
	r.pumpMu.Lock()
	defer r.pumpMu.Unlock()
}

// Flush pushes every tracked session's remaining records to every
// healthy peer, synchronously, until caught up or ctx expires — the
// drain-and-handoff step: a node shutting down cleanly hands its bound
// state to the replicas before closing stores.
func (r *Replicator) Flush(ctx context.Context) error {
	for {
		behind, err := r.pump(ctx)
		if err != nil {
			return err
		}
		if behind == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// loop pumps until Close.
func (r *Replicator) loop() {
	defer r.wg.Done()
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), r.interval*10)
			_, _ = r.pump(ctx)
			cancel()
		}
	}
}

// pump runs one replication cycle over every tracked session and peer,
// returning the total records still unacknowledged (lag) afterwards.
// Errors from individual peers are counted and logged, not returned; the
// returned error is reserved for ctx expiry.
func (r *Replicator) pump(ctx context.Context) (behind int64, err error) {
	r.pumpMu.Lock()
	defer r.pumpMu.Unlock()
	r.mu.Lock()
	streams := make([]*replStream, 0, len(r.sessions))
	for _, st := range r.sessions {
		streams = append(streams, st)
	}
	r.mu.Unlock()

	var worst int64
	for _, st := range streams {
		if err := ctx.Err(); err != nil {
			return worst, err
		}
		// Re-check liveness: an Untrack between the snapshot and now means
		// the store may be about to close — skip it.
		r.mu.Lock()
		live := r.sessions[st.name] == st
		r.mu.Unlock()
		if !live {
			continue
		}
		head, err := st.store.LastSeq()
		if err != nil {
			r.logf("cluster: repl %q: reading log head: %v", st.name, err)
			continue
		}
		for _, pc := range st.peers {
			if pc.halted {
				continue
			}
			lag := r.pushPeer(ctx, st, pc, head)
			worst += lag
		}
	}
	r.lag.Set(float64(worst))
	return worst, nil
}

// pushPeer drains one stream toward one peer as far as one cycle allows,
// returning the residual lag in records.
func (r *Replicator) pushPeer(ctx context.Context, st *replStream, pc *peerCursor, head int64) int64 {
	if pc.buf == nil {
		pc.buf = make([]byte, r.batch*cachestore.RecordSize)
	}
	for pc.seq < head {
		recs, err := st.store.ReadFrom(pc.seq, pc.buf)
		if err != nil {
			r.logf("cluster: repl %q -> %s: reading log: %v", st.name, pc.node.Name, err)
			return head - pc.seq
		}
		if len(recs) == 0 {
			// The record at the cursor is half-written or damaged: the peer
			// is still behind, so Flush must not count it caught up.
			return head - pc.seq
		}
		from := pc.seq
		if !r.ship(ctx, st, pc, recs, head) || pc.seq == from {
			// An error or a conflict (ship handled both), or no progress
			// without an error: the peer rewound us to a cursor we already
			// sent from — only possible transiently; bail out of this cycle
			// rather than spin.
			if pc.halted {
				return 0
			}
			return head - pc.seq
		}
	}
	return 0
}

// ship sends recs, raw log records — none for a cursor probe — from
// pc.seq and adopts the peer's ack as the new cursor. It reports false
// when the stream cannot go on this cycle: an append error (counted and
// logged; the cursor stays) or a 409 repl_conflict (the peer hosts the
// session itself, so the stream halts for good).
func (r *Replicator) ship(ctx context.Context, st *replStream, pc *peerCursor, recs []byte, head int64) bool {
	ack, err := r.sendBatch(ctx, st, pc, recs, head)
	switch {
	case err != nil:
		r.errs(pc.node.Name).Inc()
		r.logf("cluster: repl %q -> %s: %v", st.name, pc.node.Name, err)
		return false
	case ack < 0:
		pc.halted = true
		r.conflicts.Inc()
		r.logf("cluster: repl %q -> %s: peer hosts session, stream halted", st.name, pc.node.Name)
		return false
	}
	if n := min(ack, pc.seq+int64(len(recs)/cachestore.RecordSize)) - pc.seq; n > 0 {
		r.sent(pc.node.Name).Add(n)
	}
	pc.seq = ack
	return true
}

// sendBatch performs one append round-trip, returning the peer's new
// cursor; -1 signals a permanent conflict (409 repl_conflict). An ack up
// to the sender's own log length is adopted even past the batch's end:
// the replica already holds every record below its ack (it applies by
// sequence and skips what it has), which is how a cursor probe, or a
// replica that already holds more of the log than this sender has
// confirmed, moves the cursor forward. The log holds at least head
// records (sampled when the cycle began) and every record just sent (a
// batch may read past head); an ack beyond both is impossible for a
// replica of this log and is an error. The records travel as the log
// holds them (ReadFrom checked each). The body is the request's own
// MarshalJSON output, which is already json.Marshal's bytes: calling
// json.Marshal would only re-scan and copy it.
func (r *Replicator) sendBatch(ctx context.Context, st *replStream, pc *peerCursor, recs []byte, head int64) (int64, error) {
	reqBody := api.ReplAppendRequest{
		Node:    r.cfg.Topology.SelfName(),
		Meta:    st.meta,
		From:    pc.seq,
		Records: recs,
	}
	buf, err := reqBody.MarshalJSON()
	if err != nil {
		return 0, err
	}
	url := pc.node.URL + "/v1/repl/" + st.name
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode == http.StatusConflict {
		return -1, nil
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("peer answered %d: %s", resp.StatusCode, truncate(body, 200))
	}
	var ack api.ReplAppendResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		return 0, fmt.Errorf("bad ack: %w", err)
	}
	if end := pc.seq + int64(len(recs)/cachestore.RecordSize); ack.Seq < 0 || ack.Seq > max(head, end) {
		return 0, fmt.Errorf("peer acked impossible cursor %d (sent [%d,%d) of a %d-record log)", ack.Seq, pc.seq, end, head)
	}
	return ack.Seq, nil
}

// logf forwards to the configured logger.
func (r *Replicator) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// truncate clips b for error messages.
func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}
