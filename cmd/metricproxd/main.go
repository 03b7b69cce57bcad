// Command metricproxd is the networked session service: a long-running
// daemon that owns one metric space and hosts named multi-tenant bound
// sessions over it, so many clients share one pool of resolved distances
// and tightened bounds. Clients speak the HTTP/JSON API documented in
// docs/API.md — primitive comparisons, batches, and whole-problem runs —
// typically through internal/proxclient, whose Session makes the prox
// algorithms run against this daemon unmodified and output-identical.
//
// Usage:
//
//	metricproxd -demo 500 -listen :7600
//	metricproxd -in points.csv -p 1 -listen 127.0.0.1:7600
//	metricproxd -demo 500 -cache-dir /var/lib/metricproxd  # warm restarts
//	metricproxd -demo 500 -faults seed=3,rate=0.2          # chaos drill
//	metricproxd -demo 500 -near-metric eps=0.05            # imperfect oracle
//
// -near-metric serves a deterministically perturbed near-metric (triangle
// violations bounded by eps, see internal/faultmetric) instead of the
// true space: the server-side half of the robustness drill. Slack is a
// per-session property declared by clients at session creation
// (slack_eps / slack_ratio / slack_auto in the API; SessionOptions in
// proxclient), not a daemon flag — different tenants may declare
// different contracts over the same oracle. When -faults and -near-metric
// are combined, one injector serves both and the seed comes from -faults.
//
// The daemon exposes the service API and the observability surface on the
// same listener: /metrics serves the obs registry (per-endpoint latency
// histograms, queue depth, shed and eviction counters) and /debug/pprof/
// the pprof suite. On SIGINT/SIGTERM it drains: new work is refused with
// 503/draining, in-flight requests finish, sessions are evicted (syncing
// their cache stores), and only then does the process exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"metricprox/internal/buildinfo"
	"metricprox/internal/cluster"
	"metricprox/internal/datasets"
	"metricprox/internal/faultmetric"
	"metricprox/internal/metric"
	"metricprox/internal/obs"
	"metricprox/internal/obs/obshttp"
	"metricprox/internal/service"
)

func main() {
	var (
		inFlag      = flag.String("in", "", "CSV point file (one point per line)")
		demoFlag    = flag.Int("demo", 0, "use a synthetic road-network dataset of this size instead of -in")
		planarFlag  = flag.Bool("planar", false, "with -demo, use the planar (closed-form) SF surrogate instead of the road network")
		pFlag       = flag.Float64("p", 2, "Minkowski norm for CSV input")
		seedFlag    = flag.Int64("seed", 1, "seed for the synthetic dataset")
		listenFlag  = flag.String("listen", ":7600", "address to serve the API, /metrics, and /debug/pprof on")
		faultsFlag  = flag.String("faults", "", "inject oracle faults: seed=N,rate=P with P in (0,1]")
		nearFlag    = flag.String("near-metric", "", "serve a perturbed near-metric: eps=X[,ratio=R][,seed=N]")
		cacheDir    = flag.String("cache-dir", "", "directory for per-session distance caches (enables warm restarts)")
		maxSessions = flag.Int("max-sessions", 16, "maximum live sessions (0 = unlimited)")
		sessionTTL  = flag.Duration("session-ttl", 0, "evict sessions idle for this long (0 = never)")
		queueFlag   = flag.Int("queue", service.DefaultQueue, "per-session admission queue depth")
		drainFlag   = flag.Duration("drain", 10*time.Second, "shutdown drain budget for in-flight requests")
		clusterFlag = flag.String("cluster", "", "cluster member list as name=url,... (enables cluster mode; requires -node and -cache-dir)")
		nodeFlag    = flag.String("node", "", "this node's name in the -cluster list")
		replFlag    = flag.Int("replicas", 0, "replica owners per session beyond the primary (0 = default)")
		ringSeed    = flag.Int64("ring-seed", 0, "consistent-hash ring seed; must agree across the cluster")
		versionFlag = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *versionFlag {
		fmt.Println(buildinfo.String("metricproxd"))
		return
	}
	if *inFlag != "" && *demoFlag > 0 {
		fmt.Fprintln(os.Stderr, "metricproxd: -in and -demo are mutually exclusive; pick one input")
		os.Exit(2)
	}
	if *maxSessions < 0 || *queueFlag < 1 {
		fmt.Fprintln(os.Stderr, "metricproxd: -max-sessions must be >= 0 and -queue >= 1")
		os.Exit(2)
	}
	faultCfg, err := faultmetric.ParseFlags(*faultsFlag, *nearFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricproxd: %v\n", err)
		os.Exit(2)
	}

	var topo *cluster.Topology
	if *clusterFlag != "" {
		if *nodeFlag == "" || *cacheDir == "" {
			fmt.Fprintln(os.Stderr, "metricproxd: -cluster requires -node (this node's name) and -cache-dir (replica state lives on disk)")
			os.Exit(2)
		}
		nodes, err := cluster.ParseNodes(*clusterFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metricproxd: -cluster: %v\n", err)
			os.Exit(2)
		}
		topo, err = cluster.NewTopology(cluster.Config{
			Self:     *nodeFlag,
			Nodes:    nodes,
			Replicas: *replFlag,
			Seed:     *ringSeed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "metricproxd: -cluster: %v\n", err)
			os.Exit(2)
		}
	} else if *nodeFlag != "" {
		fmt.Fprintln(os.Stderr, "metricproxd: -node without -cluster")
		os.Exit(2)
	}

	space, err := loadSpace(*inFlag, *demoFlag, *planarFlag, *pFlag, *seedFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricproxd:", err)
		os.Exit(1)
	}

	reg := obs.NewRegistry()
	oracle := faultmetric.Stack(space, faultCfg, reg)

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "metricproxd: "+format+"\n", args...)
	}
	var repl *cluster.Replicator
	if topo != nil {
		repl = cluster.NewReplicator(cluster.ReplicatorConfig{
			Topology: topo,
			Registry: reg,
			Logf:     logf,
		})
	}
	srv, err := service.New(service.Config{
		Oracle:      oracle,
		MaxSessions: *maxSessions,
		SessionTTL:  *sessionTTL,
		Queue:       *queueFlag,
		CacheDir:    *cacheDir,
		Registry:    reg,
		Cluster:     topo,
		Replicator:  repl,
		Logf:        logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricproxd:", err)
		os.Exit(1)
	}
	if repl != nil {
		repl.Start()
		// Join/restart story: push any session state already on disk to the
		// sessions' current owners, in the background — peers may still be
		// starting, and a missed push only costs the next primary a colder
		// start, never correctness.
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			if n, err := repl.Rebalance(ctx, *cacheDir); err != nil {
				logf("rebalance: %v", err)
			} else if n > 0 {
				logf("rebalance: pushed %d session logs to their owners", n)
			}
		}()
	}

	// One listener for everything: the service API plus the obs
	// exposition and pprof routes that obshttp.Mux mounts.
	mux := obshttp.Mux(reg)
	mux.Handle("/healthz", srv.Handler())
	mux.Handle("/v1/", srv.Handler())
	hs, err := obshttp.ServeHandler(*listenFlag, mux)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricproxd: -listen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "metricproxd: %d objects, serving on http://%s (API under /v1, metrics at /metrics)\n",
		space.Len(), hs.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	sig := <-stop
	fmt.Fprintf(os.Stderr, "metricproxd: %s received, draining (budget %s)\n", sig, *drainFlag)

	// Drain order matters: refuse new work first, then let the HTTP
	// server finish in-flight requests, then evict sessions so their
	// cache stores sync to disk.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainFlag)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "metricproxd: forced shutdown with requests in flight:", err)
	}
	if repl != nil {
		// Handoff: every committed edge reaches the replicas before the
		// stores close, so a drained node's successors start fully warm.
		if err := repl.Flush(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "metricproxd: replication handoff incomplete:", err)
		}
	}
	srv.Close()
	if repl != nil {
		repl.Close()
	}
	fmt.Fprintln(os.Stderr, "metricproxd: drained, bye")
}

// loadSpace mirrors cmd/metricprox: a synthetic demo or a CSV point file
// under the Minkowski-p metric. -planar picks the closed-form surrogate,
// whose distances are a pure function of the pair — the road network
// answers from cached Dijkstra rows, which can drift by an ulp with call
// history, so bit-exact cross-process diffs (the CI server-smoke job)
// want the planar variant.
func loadSpace(in string, demo int, planar bool, p float64, seed int64) (metric.Space, error) {
	switch {
	case demo > 0 && planar:
		return datasets.SFPOIPlanar(demo, seed), nil
	case demo > 0:
		return datasets.SFPOI(demo, seed), nil
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return datasets.LoadPointsCSV(f, p, 0)
	default:
		return nil, fmt.Errorf("provide -in <csv> or -demo <n> (see -h)")
	}
}
