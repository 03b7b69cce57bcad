package proxclient

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"metricprox/internal/cluster"
	"metricprox/internal/service/api"
)

// ClusterClient is the smart client for a sharded metricproxd cluster: it
// computes session ownership locally from the ring and talks straight to
// the owning node, falling back through the session's replicas when the
// primary stops answering. It needs no proxrouter hop — the router exists
// for clients that cannot embed the ring.
//
// Failover taxonomy: a transport error moves to the next owner, and an
// API answer does exactly when cluster.FailsOver says so, as in
// cluster.Router. Soundness of failing over mid-workload rests on
// the replication design: a promoted replica's bound store is a strict
// prefix of the primary's, so the worst a failover costs is re-paying
// oracle calls for the lost suffix — never a different answer.
type ClusterClient struct {
	topo    *cluster.Topology
	clients map[string]*Client
	logf    func(string, ...any)

	mu      sync.Mutex
	sticky  map[string]string                   // session -> node last known good
	creates map[string]api.CreateSessionRequest // session -> remembered create
}

// NewCluster returns a smart client over the given topology; opts
// configures every per-node transport identically.
func NewCluster(topo *cluster.Topology, opts Options) *ClusterClient {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	cc := &ClusterClient{
		topo:    topo,
		clients: make(map[string]*Client, len(topo.Nodes())),
		logf:    logf,
		sticky:  make(map[string]string),
		creates: make(map[string]api.CreateSessionRequest),
	}
	for _, n := range topo.Nodes() {
		cc.clients[n.Name] = New(n.URL, opts)
	}
	return cc
}

// Topology returns the ring the client routes by.
func (c *ClusterClient) Topology() *cluster.Topology { return c.topo }

// Requests returns the total HTTP requests sent across every node.
func (c *ClusterClient) Requests() int64 {
	var total int64
	for _, cl := range c.clients {
		total += cl.Requests()
	}
	return total
}

// Sessions lists the union of live sessions across the cluster; dead
// nodes contribute nothing rather than failing the list.
func (c *ClusterClient) Sessions(ctx context.Context) ([]string, error) {
	seen := make(map[string]struct{})
	var reached bool
	for _, n := range c.topo.Nodes() {
		var list api.SessionList
		if err := c.clients[n.Name].do(ctx, http.MethodGet, "/v1/sessions", nil, &list); err != nil {
			c.logf("proxclient: cluster list: node %s: %v", n.Name, err)
			continue
		}
		reached = true
		for _, s := range list.Sessions {
			seen[s] = struct{}{}
		}
	}
	if !reached {
		return nil, fmt.Errorf("proxclient: cluster list: no node reachable")
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out, nil
}

// Delete evicts a session on every owner — the replicas hold adoptable
// state for it too, and a delete that leaves a replica behind would
// resurrect the session on the next misrouted request.
func (c *ClusterClient) Delete(ctx context.Context, name string) error {
	var lastErr error
	var deleted bool
	for _, n := range c.topo.Owners(name) {
		err := c.clients[n.Name].do(ctx, http.MethodDelete, "/v1/sessions/"+name, nil, nil)
		switch {
		case err == nil:
			deleted = true
		case isNotFound(err):
			// The owner never materialised the session; nothing to evict.
		default:
			lastErr = err
		}
	}
	c.mu.Lock()
	delete(c.sticky, name)
	delete(c.creates, name)
	c.mu.Unlock()
	if deleted {
		return nil
	}
	if lastErr != nil {
		return lastErr
	}
	return &APIError{Status: http.StatusNotFound, Code: api.CodeNotFound,
		Message: fmt.Sprintf("no session %q on any owner", name)}
}

// do routes one logical API call. Session-scoped paths go to the
// session's owners in ring order (sticky node first); everything else is
// tried against each node until one answers.
func (c *ClusterClient) do(ctx context.Context, method, path string, in, out any) error {
	name := sessionFromCall(path, in)
	if name == "" {
		var lastErr error
		for _, n := range c.topo.Nodes() {
			if err := c.clients[n.Name].do(ctx, method, path, in, out); err == nil {
				return nil
			} else if !failoverable(err) {
				return err
			} else {
				lastErr = err
			}
		}
		return fmt.Errorf("proxclient: cluster: no node answered %s %s: %w", method, path, lastErr)
	}

	if method == http.MethodPost && path == "/v1/sessions" {
		if req, ok := in.(api.CreateSessionRequest); ok {
			c.mu.Lock()
			c.creates[name] = req
			c.mu.Unlock()
		}
	}

	var lastErr error
	for _, node := range c.candidates(name) {
		err := c.clients[node].do(ctx, method, path, in, out)
		if err != nil && isNotFound(err) && !strings.HasSuffix(path, "/v1/sessions") {
			// A fallback owner without replicated state answers 404. If we
			// created the session ourselves, re-issue the create there — a
			// cold rebuild costs oracle calls, never correctness — and retry.
			if rerr := c.recreate(ctx, node, name); rerr == nil {
				err = c.clients[node].do(ctx, method, path, in, out)
			}
		}
		if err == nil {
			c.mu.Lock()
			c.sticky[name] = node
			c.mu.Unlock()
			return nil
		}
		if !failoverable(err) {
			return err
		}
		lastErr = err
		c.logf("proxclient: cluster: session %q: node %s failed, trying next owner: %v", name, node, err)
	}
	return fmt.Errorf("proxclient: cluster: session %q: all owners failed: %w", name, lastErr)
}

// candidates returns the node names to try for a session: the sticky node
// first when it is still an owner, then the remaining owners in ring
// order.
func (c *ClusterClient) candidates(name string) []string {
	owners := c.topo.Owners(name)
	c.mu.Lock()
	sticky := c.sticky[name]
	c.mu.Unlock()
	out := make([]string, 0, len(owners))
	if sticky != "" {
		for _, n := range owners {
			if n.Name == sticky {
				out = append(out, sticky)
				break
			}
		}
	}
	for _, n := range owners {
		if n.Name != sticky {
			out = append(out, n.Name)
		}
	}
	return out
}

// recreate re-issues the remembered create for name on the given node.
func (c *ClusterClient) recreate(ctx context.Context, node, name string) error {
	c.mu.Lock()
	req, ok := c.creates[name]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("proxclient: cluster: no remembered create for %q", name)
	}
	c.logf("proxclient: cluster: session %q: re-creating on node %s", name, node)
	var info api.SessionInfo
	return c.clients[node].do(ctx, http.MethodPost, "/v1/sessions", req, &info)
}

// sessionFromCall extracts the session name a call is about: from the
// path for session-scoped endpoints, from the create body for POST
// /v1/sessions. Empty for cluster-wide calls (healthz, list).
func sessionFromCall(path string, in any) string {
	if rest, ok := strings.CutPrefix(path, "/v1/sessions/"); ok {
		if idx := strings.IndexByte(rest, '/'); idx >= 0 {
			return rest[:idx]
		}
		return rest
	}
	if path == "/v1/sessions" {
		if req, ok := in.(api.CreateSessionRequest); ok {
			return req.Name
		}
	}
	return ""
}

// failoverable reports whether err warrants trying the next owner; see
// the ClusterClient doc for the taxonomy.
func failoverable(err error) bool {
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		return true // transport failure: connect refused, reset, timeout
	}
	return cluster.FailsOver(apiErr.Status, apiErr.Code)
}

// isNotFound reports a 404/not_found API answer through the retry
// wrapper.
func isNotFound(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound
}

var _ Caller = (*ClusterClient)(nil)
