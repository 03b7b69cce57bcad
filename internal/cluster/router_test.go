package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"metricprox/internal/service/api"
)

// fakeNode is a scripted upstream: it records the paths it served and
// answers according to its mode.
type fakeNode struct {
	name  string
	mode  atomic.Value // string: "ok", "dead", "draining", "overloaded", "badgateway"
	hits  atomic.Int64
	paths chan string
	srv   *httptest.Server
}

func newFakeNode(t *testing.T, name string) *fakeNode {
	t.Helper()
	n := &fakeNode{name: name, paths: make(chan string, 64)}
	n.mode.Store("ok")
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.hits.Add(1)
		select {
		case n.paths <- r.Method + " " + r.URL.RequestURI():
		default:
		}
		switch n.mode.Load().(string) {
		case "dead":
			// Kill the connection without a response: a transport error.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("fake node cannot hijack")
				return
			}
			conn, _, _ := hj.Hijack()
			conn.Close()
		case "draining":
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(api.ErrorBody{Code: api.CodeDraining, Message: "bye"})
		case "overloaded":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(api.ErrorBody{Code: api.CodeOverloaded, Message: "busy"})
		case "badgateway":
			w.WriteHeader(http.StatusBadGateway)
			json.NewEncoder(w).Encode(api.ErrorBody{Code: api.CodeOracleUnavailable, Message: "oracle down"})
		default:
			if r.URL.Path == "/v1/sessions" && r.Method == http.MethodGet {
				json.NewEncoder(w).Encode(api.SessionList{Sessions: []string{"on-" + name}})
				return
			}
			body, _ := io.ReadAll(r.Body)
			json.NewEncoder(w).Encode(map[string]string{"node": name, "echo": string(body)})
		}
	}))
	t.Cleanup(n.srv.Close)
	return n
}

// routerUnderTest builds a router over the given fake nodes, returning
// the router's test server and the topology.
func routerUnderTest(t *testing.T, nodes ...*fakeNode) (*httptest.Server, *Topology) {
	t.Helper()
	cfg := Config{Replicas: len(nodes) - 1} // all nodes own every session: failover order = ring order
	for _, n := range nodes {
		cfg.Nodes = append(cfg.Nodes, Node{Name: n.name, URL: n.srv.URL})
	}
	topo, err := NewTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(RouterConfig{Topology: topo})
	srv := httptest.NewServer(rt.Handler())
	t.Cleanup(srv.Close)
	return srv, topo
}

// nodeByName maps the fake nodes for owner-order lookups.
func nodeByName(nodes ...*fakeNode) map[string]*fakeNode {
	m := make(map[string]*fakeNode, len(nodes))
	for _, n := range nodes {
		m[n.name] = n
	}
	return m
}

func postJSON(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func TestRouterRoutesToPrimary(t *testing.T) {
	a, b, c := newFakeNode(t, "a"), newFakeNode(t, "b"), newFakeNode(t, "c")
	srv, topo := routerUnderTest(t, a, b, c)
	byName := nodeByName(a, b, c)

	resp, body := postJSON(t, srv.URL+"/v1/sessions/s1/dist", `{"i":1,"j":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	primary := topo.Owners("s1")[0].Name
	var got map[string]string
	json.Unmarshal([]byte(body), &got)
	if got["node"] != primary {
		t.Fatalf("request served by %q, ring primary is %q", got["node"], primary)
	}
	if byName[primary].hits.Load() != 1 {
		t.Fatalf("primary saw %d hits, want 1", byName[primary].hits.Load())
	}
}

func TestRouterFailsOverOnDeadPrimary(t *testing.T) {
	a, b, c := newFakeNode(t, "a"), newFakeNode(t, "b"), newFakeNode(t, "c")
	srv, topo := routerUnderTest(t, a, b, c)
	byName := nodeByName(a, b, c)

	owners := topo.Owners("s2")
	byName[owners[0].Name].mode.Store("dead")

	resp, body := postJSON(t, srv.URL+"/v1/sessions/s2/dist", `{"i":1,"j":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover answered %d: %s", resp.StatusCode, body)
	}
	var got map[string]string
	json.Unmarshal([]byte(body), &got)
	if got["node"] != owners[1].Name {
		t.Fatalf("failover served by %q, want second owner %q", got["node"], owners[1].Name)
	}
}

func TestRouterFailsOverOnDraining(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	srv, topo := routerUnderTest(t, a, b)
	byName := nodeByName(a, b)
	owners := topo.Owners("s3")
	byName[owners[0].Name].mode.Store("draining")

	resp, body := postJSON(t, srv.URL+"/v1/sessions/s3/dist", `{"i":0,"j":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining failover answered %d: %s", resp.StatusCode, body)
	}
	var got map[string]string
	json.Unmarshal([]byte(body), &got)
	if got["node"] != owners[1].Name {
		t.Fatalf("served by %q, want %q", got["node"], owners[1].Name)
	}
}

func TestRouterRelaysOverloadedWithoutFailover(t *testing.T) {
	// 503/overloaded is per-session backpressure, not node death: the
	// router must relay it (with Retry-After) and NOT try the replica.
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	srv, topo := routerUnderTest(t, a, b)
	byName := nodeByName(a, b)
	owners := topo.Owners("s4")
	byName[owners[0].Name].mode.Store("overloaded")

	resp, body := postJSON(t, srv.URL+"/v1/sessions/s4/dist", `{"i":0,"j":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	var eb api.ErrorBody
	json.Unmarshal([]byte(body), &eb)
	if eb.Code != api.CodeOverloaded {
		t.Fatalf("code %q, want overloaded", eb.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("Retry-After header not relayed")
	}
	if byName[owners[1].Name].hits.Load() != 0 {
		t.Fatal("router tried the replica for a backpressure 503")
	}
}

func TestRouterRelaysOracleUnavailableWithoutFailover(t *testing.T) {
	// 502/oracle_unavailable means the shared oracle failed the node, not
	// that the node died; retrying elsewhere would just re-pay the outage.
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	srv, topo := routerUnderTest(t, a, b)
	byName := nodeByName(a, b)
	owners := topo.Owners("s5")
	byName[owners[0].Name].mode.Store("badgateway")

	resp, body := postJSON(t, srv.URL+"/v1/sessions/s5/dist", `{"i":0,"j":1}`)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", resp.StatusCode, body)
	}
	if byName[owners[1].Name].hits.Load() != 0 {
		t.Fatal("router failed over an oracle_unavailable answer")
	}
}

// TestFailsOver pins the failover taxonomy row by row: only node-death
// symptoms move a request to the next owner. The transport-error case
// has no status; TestRouterFailsOverOnDeadPrimary covers it.
func TestFailsOver(t *testing.T) {
	cases := []struct {
		status int
		code   string
		want   bool
	}{
		{503, api.CodeDraining, true},
		{503, api.CodeOverloaded, false},
		{502, api.CodeOracleUnavailable, false},
		{502, api.CodeInternal, true},
		{504, api.CodeInternal, true},
		{404, api.CodeNotFound, false},
		{400, api.CodeBadRequest, false},
	}
	for _, c := range cases {
		if got := FailsOver(c.status, c.code); got != c.want {
			t.Errorf("FailsOver(%d, %q) = %v, want %v", c.status, c.code, got, c.want)
		}
	}
}

func TestRouterAllOwnersDead(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	srv, _ := routerUnderTest(t, a, b)
	a.mode.Store("dead")
	b.mode.Store("dead")
	resp, body := postJSON(t, srv.URL+"/v1/sessions/s6/dist", `{"i":0,"j":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	var eb api.ErrorBody
	json.Unmarshal([]byte(body), &eb)
	if eb.Code != api.CodeUnavailable {
		t.Fatalf("code %q, want unavailable", eb.Code)
	}
}

func TestRouterCreateRoutedByBodyName(t *testing.T) {
	a, b, c := newFakeNode(t, "a"), newFakeNode(t, "b"), newFakeNode(t, "c")
	srv, topo := routerUnderTest(t, a, b, c)
	byName := nodeByName(a, b, c)

	resp, body := postJSON(t, srv.URL+"/v1/sessions", `{"name":"s7","scheme":"tri"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create answered %d: %s", resp.StatusCode, body)
	}
	primary := topo.Owners("s7")[0].Name
	var got map[string]string
	json.Unmarshal([]byte(body), &got)
	if got["node"] != primary {
		t.Fatalf("create served by %q, ring primary %q", got["node"], primary)
	}
	if !strings.Contains(got["echo"], `"s7"`) {
		t.Fatalf("create body not forwarded verbatim: %q", got["echo"])
	}
	_ = byName

	// A create without a name is refused at the router.
	resp, _ = postJSON(t, srv.URL+"/v1/sessions", `{"scheme":"tri"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nameless create answered %d, want 400", resp.StatusCode)
	}
}

func TestRouterListUnion(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	srv, _ := routerUnderTest(t, a, b)
	resp, err := http.Get(srv.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list api.SessionList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 2 || list.Sessions[0] != "on-a" || list.Sessions[1] != "on-b" {
		t.Fatalf("union list = %v, want [on-a on-b]", list.Sessions)
	}
}

func TestRouterHealthz(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	srv, _ := routerUnderTest(t, a, b)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h api.ClusterHealthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Nodes["a"] != "up" || h.Nodes["b"] != "up" {
		t.Fatalf("healthz = %+v", h)
	}
}
