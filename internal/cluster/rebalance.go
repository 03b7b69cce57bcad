package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"metricprox/internal/cachestore"
	"metricprox/internal/service/api"
)

// MetaPath returns the meta-sidecar path for a session's cache store:
// <dir>/<name>.meta.json. The sidecar carries the api.ReplMeta needed to
// rebuild the session from the store alone — written by the service next
// to every store it creates or replicates in cluster mode, read by
// promotion and rebalance.
func MetaPath(dir, name string) string {
	return filepath.Join(dir, name+".meta.json")
}

// SaveMeta atomically writes the session's meta sidecar (write to a temp
// file in dir, then rename).
func SaveMeta(dir, name string, meta api.ReplMeta) error {
	buf, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	tmp := MetaPath(dir, name) + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, MetaPath(dir, name))
}

// LoadMeta reads the session's meta sidecar; ok is false when the sidecar
// does not exist (a pre-cluster store — replicable only once the session
// is re-created and its parameters are known again).
func LoadMeta(dir, name string) (meta api.ReplMeta, ok bool, err error) {
	buf, err := os.ReadFile(MetaPath(dir, name))
	if os.IsNotExist(err) {
		return api.ReplMeta{}, false, nil
	}
	if err != nil {
		return api.ReplMeta{}, false, err
	}
	if err := json.Unmarshal(buf, &meta); err != nil {
		return api.ReplMeta{}, false, fmt.Errorf("cluster: meta sidecar for %q: %w", name, err)
	}
	return meta, true, nil
}

// Rebalance pushes every session store under dir to the session's
// current owner set — the join/leave story for static membership: after a
// config change, each restarted node offers what it holds to whoever the
// new ring says should hold it. Each store streams through the pump's own
// sender from the cursor an empty append probes, so a peer already caught
// up costs one round-trip. Push-only and idempotent (appends are
// sequence-checked and overlap-skipped), so any subset of nodes
// rebalancing in any order converges. Sessions without a meta sidecar are
// skipped with a log line; peers that refuse or are down are skipped too
// (the pump catches them up once the session goes live). Rebalance runs
// beside the pump and takes none of its locks: the streams and cursors it
// pushes through are its own. Returns the number of sessions that reached
// at least one peer in full (or found it hosting the session live).
func (r *Replicator) Rebalance(ctx context.Context, dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	pushed := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".cache") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".cache")
		meta, ok, err := LoadMeta(dir, name)
		if err != nil {
			r.logf("cluster: rebalance %q: %v", name, err)
			continue
		}
		if !ok {
			r.logf("cluster: rebalance %q: no meta sidecar, skipping (pre-cluster store)", name)
			continue
		}
		store, err := cachestore.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			r.logf("cluster: rebalance %q: opening store: %v", name, err)
			continue
		}
		if r.rebalanceStore(ctx, &replStream{name: name, store: store, meta: meta}) {
			pushed++
		}
		store.Close()
		if ctx.Err() != nil {
			return pushed, ctx.Err()
		}
	}
	return pushed, nil
}

// rebalanceStore pushes one store to each of its peers, reporting whether
// any peer ended caught up or turned out to host the session live (it
// needs nothing from us).
func (r *Replicator) rebalanceStore(ctx context.Context, st *replStream) bool {
	head, err := st.store.LastSeq()
	if err != nil {
		r.logf("cluster: rebalance %q: reading log head: %v", st.name, err)
		return false
	}
	done := false
	for _, peer := range r.cfg.Topology.Peers(st.name) {
		// An empty append probes the peer's cursor; ship counts and logs a
		// failed probe.
		pc := &peerCursor{node: peer}
		probed := r.ship(ctx, st, pc, nil, head)
		if pc.halted || probed && r.pushPeer(ctx, st, pc, head) == 0 {
			done = true
		}
	}
	return done
}
