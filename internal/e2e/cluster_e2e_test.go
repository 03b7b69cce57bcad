// Package e2e holds multi-process integration tests: real binaries, real
// sockets, real SIGKILL. The in-process suites prove the pieces; this one
// proves the assembled cluster story of docs/CLUSTER.md — a client
// working through proxrouter keeps getting bit-identical answers when a
// node is killed mid-workload, and the promoted replica pays strictly
// fewer oracle calls than a cold rebuild.
package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"metricprox/internal/cluster"
	"metricprox/internal/datasets"
	"metricprox/internal/metric"
	"metricprox/internal/service"
	"metricprox/internal/service/api"
)

const (
	e2eN    = 60
	e2eSeed = int64(1)
)

// repoRoot walks up from the package directory to the module root, where
// go build resolves package paths.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// buildBinary go-builds a command into dir with the race detector on —
// the cluster test is above all a concurrency test.
func buildBinary(t *testing.T, root, dir, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-race", "-o", bin, pkg)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them; the window between release and the daemon's bind is the usual
// accepted race.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	listeners := make([]net.Listener, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	for _, l := range listeners {
		l.Close()
	}
	return ports
}

// daemon is one spawned process plus its captured stderr.
type daemon struct {
	cmd    *exec.Cmd
	errLog string
}

func spawn(t *testing.T, logPath, bin string, args ...string) *daemon {
	t.Helper()
	f, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = f
	cmd.Stderr = f
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, errLog: logPath}
	t.Cleanup(func() {
		f.Close()
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return d
}

// dump prints a daemon's log into the test output on failure.
func (d *daemon) dump(t *testing.T) {
	t.Helper()
	b, err := os.ReadFile(d.errLog)
	if err == nil && len(b) > 0 {
		t.Logf("--- %s ---\n%s", filepath.Base(d.errLog), b)
	}
}

// waitHealthy polls url until it answers 2xx.
func waitHealthy(t *testing.T, url string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode/100 == 2 {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy within %s", url, timeout)
}

// postRaw POSTs a JSON body and returns status plus raw response bytes —
// raw, because the cluster's contract is byte-identity with a
// single-node run.
func postRaw(t *testing.T, url string, req any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// workloadPairs is the deterministic dist workload both the cluster and
// the single-node reference run; fixed literals, not a seeded RNG, so the
// failure report names the exact pair.
func workloadPairs() [][2]int {
	pairs := make([][2]int, 0, 40)
	for k := 0; k < 40; k++ {
		i := (k*7 + 3) % e2eN
		j := (k*13 + 11) % e2eN
		if i == j {
			j = (j + 1) % e2eN
		}
		pairs = append(pairs, [2]int{i, j})
	}
	return pairs
}

func TestClusterKillPrimaryMidWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e: skipped in -short mode")
	}
	root := repoRoot(t)
	binDir := t.TempDir()
	proxd := buildBinary(t, root, binDir, "./cmd/metricproxd", "metricproxd")
	router := buildBinary(t, root, binDir, "./cmd/proxrouter", "proxrouter")

	ports := freePorts(t, 4)
	names := []string{"a", "b", "c"}
	spec := ""
	urls := map[string]string{}
	for i, n := range names {
		u := fmt.Sprintf("http://127.0.0.1:%d", ports[i])
		urls[n] = u
		if i > 0 {
			spec += ","
		}
		spec += n + "=" + u
	}
	routerURL := fmt.Sprintf("http://127.0.0.1:%d", ports[3])

	logDir := t.TempDir()
	daemons := map[string]*daemon{}
	for i, n := range names {
		daemons[n] = spawn(t, filepath.Join(logDir, n+".log"), proxd,
			"-demo", fmt.Sprint(e2eN), "-planar", "-seed", fmt.Sprint(e2eSeed),
			"-listen", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-cluster", spec, "-node", n, "-replicas", "1",
			"-cache-dir", t.TempDir())
	}
	var rt *daemon
	defer func() {
		if t.Failed() {
			for _, d := range daemons {
				d.dump(t)
			}
			if rt != nil {
				rt.dump(t)
			}
		}
	}()
	for _, n := range names {
		waitHealthy(t, urls[n]+"/healthz", 30*time.Second)
	}
	// The router starts once every node answers, and its probe interval
	// outlasts the test: the start-up probe, which finds every node up,
	// is its only one. So the first request after the kill still routes
	// to the dead primary and must fail over, which the
	// cluster_failovers_total check below requires.
	rt = spawn(t, filepath.Join(logDir, "router.log"), router,
		"-cluster", spec, "-replicas", "1",
		"-listen", fmt.Sprintf("127.0.0.1:%d", ports[3]),
		"-probe-interval", "1h")
	waitHealthy(t, routerURL+"/healthz", 30*time.Second)

	// The test computes ownership with the same ring the processes built
	// from the same flags, so it knows whom to kill.
	nodes, err := cluster.ParseNodes(spec)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cluster.NewTopology(cluster.Config{Nodes: nodes, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	const sessName = "e2e-kill"
	owners := topo.Owners(sessName)
	primary, replica := owners[0].Name, owners[1].Name
	t.Logf("session %q: primary=%s replica=%s", sessName, primary, replica)

	create := api.CreateSessionRequest{Name: sessName, Scheme: "tri", Landmarks: 4, Seed: 2, Bootstrap: true}
	if code, body := postRaw(t, routerURL+"/v1/sessions", create); code != 200 {
		t.Fatalf("create via router: %d %s", code, body)
	}

	// Phase one of the workload through the router, onto the primary.
	pairs := workloadPairs()
	distBodies := make([][]byte, len(pairs))
	for x, p := range pairs {
		code, body := postRaw(t, routerURL+"/v1/sessions/"+sessName+"/dist", api.PairRequest{I: p[0], J: p[1]})
		if code != 200 {
			t.Fatalf("dist %v via router: %d %s", p, code, body)
		}
		distBodies[x] = body
	}

	// Wait for replication to catch the primary's cursor, then SIGKILL the
	// primary — no drain, no flush, the real failure.
	var primarySeq int64
	deadline := time.Now().Add(20 * time.Second)
	for {
		var pst, rst api.ReplStatusResponse
		if getJSON(t, urls[primary]+"/v1/repl/"+sessName, &pst) == 200 {
			primarySeq = pst.Seq
		}
		if getJSON(t, urls[replica]+"/v1/repl/"+sessName, &rst) == 200 &&
			primarySeq > 0 && rst.Seq == primarySeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up (primary %d, replica %d)", primarySeq, rst.Seq)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := daemons[primary].cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	daemons[primary].cmd.Wait()
	t.Logf("primary %s killed at replicated seq %d", primary, primarySeq)

	// Phase two: the same client, the same router URL. Every dist answer
	// must be byte-identical to phase one, and the kNN build completes on
	// the promoted replica.
	for x, p := range pairs {
		code, body := postRaw(t, routerURL+"/v1/sessions/"+sessName+"/dist", api.PairRequest{I: p[0], J: p[1]})
		if code != 200 {
			t.Fatalf("post-kill dist %v: %d %s", p, code, body)
		}
		if !bytes.Equal(body, distBodies[x]) {
			t.Fatalf("post-kill dist %v: %s, pre-kill %s", p, body, distBodies[x])
		}
	}
	code, knnCluster := postRaw(t, routerURL+"/v1/sessions/"+sessName+"/knn", api.KNNRequest{K: 5})
	if code != 200 {
		t.Fatalf("post-kill knn: %d %s", code, knnCluster)
	}

	// Single-node reference: the same space, session, and workload against
	// an in-process server. Byte-identity here is the whole point of the
	// replication design — a kill costs latency and oracle calls, never a
	// different answer.
	refSrv, err := service.New(service.Config{Oracle: metric.NewOracle(datasets.SFPOIPlanar(e2eN, e2eSeed))})
	if err != nil {
		t.Fatal(err)
	}
	defer refSrv.Close()
	ref := httptest.NewServer(refSrv.Handler())
	defer ref.Close()
	if code, body := postRaw(t, ref.URL+"/v1/sessions", create); code != 200 {
		t.Fatalf("reference create: %d %s", code, body)
	}
	for x, p := range pairs {
		code, body := postRaw(t, ref.URL+"/v1/sessions/"+sessName+"/dist", api.PairRequest{I: p[0], J: p[1]})
		if code != 200 {
			t.Fatalf("reference dist %v: %d %s", p, code, body)
		}
		if !bytes.Equal(body, distBodies[x]) {
			t.Fatalf("cluster dist %v diverges from single-node: %s vs %s", p, distBodies[x], body)
		}
	}
	code, knnRef := postRaw(t, ref.URL+"/v1/sessions/"+sessName+"/knn", api.KNNRequest{K: 5})
	if code != 200 {
		t.Fatalf("reference knn: %d %s", code, knnRef)
	}
	if !bytes.Equal(knnCluster, knnRef) {
		t.Fatalf("post-failover kNN diverges from single-node run:\ncluster: %s\nsingle:  %s", knnCluster, knnRef)
	}

	// Call economy: the promoted replica inherited the replicated prefix,
	// so its oracle spend must be strictly below the cold single-node run.
	var clusterStats, refStats api.StatsResponse
	if got := getJSON(t, urls[replica]+"/v1/sessions/"+sessName, &clusterStats); got != 200 {
		t.Fatalf("replica stats: %d", got)
	}
	if got := getJSON(t, ref.URL+"/v1/sessions/"+sessName, &refStats); got != 200 {
		t.Fatalf("reference stats: %d", got)
	}
	promoted := clusterStats.OracleCalls + clusterStats.BootstrapCalls
	cold := refStats.OracleCalls + refStats.BootstrapCalls
	if promoted >= cold {
		t.Fatalf("promoted replica paid %d oracle calls, cold run paid %d — replication saved nothing", promoted, cold)
	}
	t.Logf("oracle calls: promoted replica %d, cold single-node %d", promoted, cold)

	// The router observed the failover.
	var metrics map[string]any
	if got := getJSON(t, routerURL+"/metrics", &metrics); got != 200 {
		t.Fatalf("router metrics: %d", got)
	}
	fo, _ := metrics["cluster_failovers_total"].(float64)
	if fo < 1 {
		t.Fatalf("cluster_failovers_total = %v, want >= 1", metrics["cluster_failovers_total"])
	}

	// Orderly exit for the survivors: SIGTERM must drain cleanly even with
	// a dead peer still in the member list.
	for _, n := range names {
		if n == primary {
			continue
		}
		daemons[n].cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, n := range names {
		if n == primary {
			continue
		}
		done := make(chan error, 1)
		go func(d *daemon) { done <- d.cmd.Wait() }(daemons[n])
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("node %s did not drain within 30s of SIGTERM", n)
		}
	}
}
