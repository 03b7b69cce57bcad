package cluster

import (
	"fmt"
	"net/url"
	"sort"
	"strings"
)

// Node is one cluster member: a name (the ring identity) and the base URL
// its metricproxd listens on.
type Node struct {
	// Name is the node's cluster-wide identity; [A-Za-z0-9._-]+. Ownership
	// hashes the name, not the URL, so a node can move hosts without
	// resharding.
	Name string
	// URL is the node's base URL, e.g. "http://10.0.0.7:7060".
	URL string
}

// Config describes a static cluster: the full member list, how many
// replicas each session gets beyond its primary, and the ring geometry.
// Every participant must be started with an identical member list and
// ring parameters — membership is configuration, not gossip (ISSUE: the
// cluster trades dynamic membership for determinism; a join or leave is a
// config change plus restart, with rebalance pushing state to the new
// owners).
type Config struct {
	// Self is the local node's name; empty for a participant that is not
	// a member (the router).
	Self string
	// Nodes is the full member list.
	Nodes []Node
	// Replicas is the number of replica owners per session beyond the
	// primary; 0 means DefaultReplicas. Clamped to len(Nodes)-1.
	Replicas int
	// VNodes is the virtual-node count per member; 0 means DefaultVNodes.
	VNodes int
	// Seed salts the ring hashes; all participants must agree.
	Seed int64
}

// DefaultReplicas is the replica count per session when Config.Replicas
// is 0: one replica, tolerating a single node failure per session.
const DefaultReplicas = 1

// Topology is a validated Config plus its ring: the single object every
// cluster participant consults for "who owns session X". Immutable and
// safe for concurrent use.
type Topology struct {
	self     Node
	isMember bool
	nodes    map[string]Node
	ring     *Ring
	replicas int
}

// NewTopology validates cfg and builds its ring.
func NewTopology(cfg Config) (*Topology, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes configured")
	}
	nodes := make(map[string]Node, len(cfg.Nodes))
	names := make([]string, 0, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		if n.Name == "" || n.URL == "" {
			return nil, fmt.Errorf("cluster: node needs both name and URL, got %+v", n)
		}
		u, err := url.Parse(n.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: node %q has invalid URL %q", n.Name, n.URL)
		}
		if _, dup := nodes[n.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		n.URL = strings.TrimRight(n.URL, "/")
		nodes[n.Name] = n
		names = append(names, n.Name)
	}
	t := &Topology{nodes: nodes}
	if cfg.Self != "" {
		self, ok := nodes[cfg.Self]
		if !ok {
			return nil, fmt.Errorf("cluster: self node %q not in member list", cfg.Self)
		}
		t.self = self
		t.isMember = true
	}
	t.replicas = cfg.Replicas
	if t.replicas <= 0 {
		t.replicas = DefaultReplicas
	}
	if t.replicas > len(names)-1 {
		t.replicas = len(names) - 1
	}
	ring, err := NewRing(names, cfg.VNodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t.ring = ring
	return t, nil
}

// ParseNodes parses the -cluster flag syntax: a comma-separated list of
// name=url pairs, e.g. "a=http://h1:7060,b=http://h2:7060".
func ParseNodes(spec string) ([]Node, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("cluster: empty node spec")
	}
	parts := strings.Split(spec, ",")
	nodes := make([]Node, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		name, u, ok := strings.Cut(p, "=")
		name, u = strings.TrimSpace(name), strings.TrimSpace(u)
		if !ok || name == "" || u == "" {
			return nil, fmt.Errorf("cluster: bad node %q, want name=url", p)
		}
		nodes = append(nodes, Node{Name: name, URL: u})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty node spec")
	}
	return nodes, nil
}

// Owners returns the session's owner nodes, primary first: 1 primary plus
// up to Replicas replicas.
func (t *Topology) Owners(session string) []Node {
	names := t.ring.Owners(session, t.replicas+1)
	out := make([]Node, len(names))
	for i, n := range names {
		out[i] = t.nodes[n]
	}
	return out
}

// Peers returns the session's owners excluding the local node — the
// replication targets when the session is hosted here. For non-members it
// equals Owners.
func (t *Topology) Peers(session string) []Node {
	owners := t.Owners(session)
	out := owners[:0]
	for _, n := range owners {
		if !t.isMember || n.Name != t.self.Name {
			out = append(out, n)
		}
	}
	return out
}

// IsOwner reports whether the local node is among the session's owners.
// Always false for non-members.
func (t *Topology) IsOwner(session string) bool {
	if !t.isMember {
		return false
	}
	for _, n := range t.ring.Owners(session, t.replicas+1) {
		if n == t.self.Name {
			return true
		}
	}
	return false
}

// Self returns the local node; the zero Node for non-members.
func (t *Topology) Self() Node { return t.self }

// SelfName returns the local node's name, or "" for non-members.
func (t *Topology) SelfName() string { return t.self.Name }

// Nodes returns every member sorted by name.
func (t *Topology) Nodes() []Node {
	out := make([]Node, 0, len(t.nodes))
	for _, n := range t.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Replicas returns the effective replica count per session.
func (t *Topology) Replicas() int { return t.replicas }

// Node returns the member with the given name.
func (t *Topology) Node(name string) (Node, bool) {
	n, ok := t.nodes[name]
	return n, ok
}
