// Command metricprox runs the library's proximity algorithms over a CSV
// point file, reporting results and the oracle calls saved by the chosen
// bound scheme.
//
// Usage:
//
//	metricprox -in points.csv -algo mst                     # Prim + Tri
//	metricprox -in points.csv -algo knn -k 10 -scheme splub
//	metricprox -demo 500 -algo search -k 10 -m 8 -ef 32     # approx kNN (NSW)
//	metricprox -in points.csv -algo pam -l 8 -scheme noop   # unmodified
//	metricprox -in points.csv -algo kcenter -l 5 -cache d.cache
//	metricprox -demo 500 -algo tsp                          # synthetic demo
//	metricprox -demo 500 -algo mst -faults seed=3,rate=0.2  # flaky oracle
//	metricprox -demo 500 -algo knn -near-metric eps=0.1 -slack eps=0.1
//	metricprox -calibrate -cache d.cache                    # repair a cache
//
// The input is one point per line, comma-separated coordinates, optional
// header; distances are Minkowski-p (default Euclidean) normalised into
// [0,1]. A -cache file persists resolved distances across invocations.
//
// -faults routes every distance call through a deterministic fault
// injector and the resilient retry policy; the run then reports retries,
// timeouts, and breaker opens alongside the usual call counts, and warns
// when answers degraded to bounds-only estimates.
//
// -near-metric perturbs the oracle into a seeded near-metric (triangle
// violations bounded by eps, see internal/faultmetric); -slack declares
// the tolerated violation (eps=X[,ratio=R], or auto) so the bound
// schemes stay sound over it, and -audit attaches a violation auditor
// that cross-checks resolved triangles for free. When -faults and
// -near-metric are combined, one injector serves both and the seed comes
// from -faults.
//
// -calibrate repairs a -cache file offline: it projects the cached
// distances onto the metric polytope (HLWB-anchored cyclic projection,
// see internal/lp) and rewrites the file atomically, printing the
// violation margin before and after. No dataset is needed or read.
//
// -listen (e.g. -listen :6060) serves live observability for the
// duration of the run: the obs metrics registry as JSON at /metrics and
// the net/http/pprof suite at /debug/pprof/. See docs/METRICS.md for the
// exposed series and the README "Watching a run" walkthrough.
//
// Every flag is validated before the dataset is loaded: an unknown
// algorithm or scheme name, a malformed -faults spec, or a contradictory
// combination exits immediately instead of after minutes of bootstrap.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"metricprox/internal/buildinfo"
	"metricprox/internal/cachestore"
	"metricprox/internal/core"
	"metricprox/internal/datasets"
	"metricprox/internal/faultmetric"
	"metricprox/internal/metric"
	"metricprox/internal/nsw"
	"metricprox/internal/obs"
	"metricprox/internal/obs/obshttp"
	"metricprox/internal/prox"
)

// algoNames lists the -algo values runAlgo accepts, for up-front
// validation.
var algoNames = []string{"mst", "kruskal", "boruvka", "knn", "search", "pam", "clarans", "kcenter", "tsp", "linkage"}

func main() {
	var (
		inFlag      = flag.String("in", "", "CSV point file (one point per line)")
		demoFlag    = flag.Int("demo", 0, "use a synthetic road-network dataset of this size instead of -in")
		algoFlag    = flag.String("algo", "mst", "algorithm: mst | kruskal | boruvka | knn | search | pam | clarans | kcenter | tsp | linkage")
		schemeFlag  = flag.String("scheme", "tri", "bound scheme: noop | tri | splub | adm | laesa | tlaesa | hybrid")
		kFlag       = flag.Int("k", 5, "neighbours for -algo knn and -algo search")
		mFlag       = flag.Int("m", 0, "links per node for -algo search (0 = default)")
		efFlag      = flag.Int("ef", 0, "beam width for -algo search, build and query (0 = default)")
		lFlag       = flag.Int("l", 8, "clusters/centers for pam, clarans, kcenter")
		pFlag       = flag.Float64("p", 2, "Minkowski norm for CSV input")
		landmarks   = flag.Int("landmarks", 0, "bootstrap landmarks (0 = log2 n)")
		seedFlag    = flag.Int64("seed", 1, "seed for randomised algorithms")
		cacheFlag   = flag.String("cache", "", "persistent distance-cache file")
		faultsFlag  = flag.String("faults", "", "inject oracle faults: seed=N,rate=P with P in (0,1]")
		nearFlag    = flag.String("near-metric", "", "perturb the oracle into a near-metric: eps=X[,ratio=R][,seed=N]")
		slackFlag   = flag.String("slack", "", "tolerate near-metric oracles: eps=X[,ratio=R], or auto")
		auditFlag   = flag.Bool("audit", false, "cross-check resolved triangles for metric violations (no extra oracle calls)")
		calFlag     = flag.Bool("calibrate", false, "repair the -cache file into metric consistency and exit (no dataset needed)")
		calTolFlag  = flag.Float64("calibrate-tol", 1e-9, "target triangle-violation tolerance for -calibrate")
		listenFlag  = flag.String("listen", "", "serve /metrics JSON and /debug/pprof on this address (e.g. :6060) for the duration of the run")
		versionFlag = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *versionFlag {
		fmt.Println(buildinfo.String("metricprox"))
		return
	}
	if *calFlag {
		calibrate(*cacheFlag, *calTolFlag)
		return
	}

	// Validate every flag before touching the dataset.
	scheme, err := core.ParseScheme(*schemeFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricprox: %v (see -h)\n", err)
		os.Exit(2)
	}
	validAlgo := false
	for _, a := range algoNames {
		validAlgo = validAlgo || a == *algoFlag
	}
	if !validAlgo {
		fmt.Fprintf(os.Stderr, "metricprox: unknown algorithm %q (see -h)\n", *algoFlag)
		os.Exit(2)
	}
	if *inFlag != "" && *demoFlag > 0 {
		fmt.Fprintln(os.Stderr, "metricprox: -in and -demo are mutually exclusive; pick one input")
		os.Exit(2)
	}
	if *kFlag < 1 || *lFlag < 1 || *landmarks < 0 || *demoFlag < 0 {
		fmt.Fprintln(os.Stderr, "metricprox: -k and -l must be >= 1; -landmarks and -demo must be >= 0")
		os.Exit(2)
	}
	faultCfg, err := faultmetric.ParseFlags(*faultsFlag, *nearFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricprox: %v\n", err)
		os.Exit(2)
	}
	var slack core.SlackPolicy
	if *slackFlag != "" {
		var err error
		if slack, err = core.ParseSlackSpec(*slackFlag); err != nil {
			fmt.Fprintf(os.Stderr, "metricprox: -slack: %v\n", err)
			os.Exit(2)
		}
		if err := core.SlackSupported(slack, scheme); err != nil {
			fmt.Fprintf(os.Stderr, "metricprox: -slack: %v\n", err)
			os.Exit(2)
		}
	}

	space, err := loadSpace(*inFlag, *demoFlag, *pFlag, *seedFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricprox:", err)
		os.Exit(1)
	}
	n := space.Len()

	k := *landmarks
	if k == 0 {
		for v := n; v > 1; v /= 2 {
			k++
		}
	}
	lms := core.PickLandmarks(n, k, *seedFlag)

	var observer *obs.Observer
	if *listenFlag != "" {
		observer = obs.NewObserver(false, 0, nil)
		srv, err := obshttp.Serve(*listenFlag, observer.Registry)
		if err != nil {
			fmt.Fprintln(os.Stderr, "metricprox: -listen:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metricprox: serving metrics on http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx) // drain in-flight scrapes before exit
		}()
	}

	var reg *obs.Registry
	if observer != nil {
		reg = observer.Registry
	}
	oracle := faultmetric.Stack(space, faultCfg, reg)
	var opts []core.Option
	if observer != nil {
		opts = append(opts, core.WithObserver(observer))
	}
	if slack.Active() {
		opts = append(opts, core.WithSlack(slack))
	}
	if *auditFlag && !slack.Auto {
		// Auto slack attaches its own auditor inside WithSlack.
		opts = append(opts, core.WithAuditor(metric.NewAuditor(0)))
	}
	s := core.NewFallibleSessionWithLandmarks(oracle, scheme, lms, opts...)

	if *cacheFlag != "" {
		store, err := cachestore.OpenOrCreate(*cacheFlag, n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "metricprox:", err)
			os.Exit(1)
		}
		defer store.Close()
		if err := s.AttachStore(store); err != nil {
			fmt.Fprintln(os.Stderr, "metricprox:", err)
			os.Exit(1)
		}
	}
	if scheme != core.SchemeNoop {
		if _, err := s.BootstrapErr(lms); err != nil {
			fmt.Fprintln(os.Stderr, "metricprox: bootstrap aborted, continuing with partial bounds:", err)
		}
	}

	start := time.Now()
	summary, err := runAlgo(s, *algoFlag, *kFlag, *lFlag, *seedFlag, lms, *mFlag, *efFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricprox:", err)
		os.Exit(2)
	}
	elapsed := time.Since(start)

	fmt.Println(summary)
	st := s.Stats()
	total := int64(n) * int64(n-1) / 2
	fmt.Printf("objects: %d   pairs: %d\n", n, total)
	fmt.Printf("oracle calls: %d (%.1f%% of all pairs; bootstrap %d)\n",
		st.OracleCalls, 100*float64(st.OracleCalls)/float64(total), st.BootstrapCalls)
	fmt.Printf("comparisons: %d saved by bounds, %d resolved, %d cache hits\n",
		st.SavedComparisons, st.ResolvedComparisons, st.CacheHits)
	if st.Retries > 0 || st.Timeouts > 0 || st.BreakerOpens > 0 {
		fmt.Printf("resilience: %d retries, %d timeouts, %d breaker opens\n",
			st.Retries, st.Timeouts, st.BreakerOpens)
	}
	if aud := s.Auditor(); aud != nil {
		fmt.Printf("audit: %d/%d triangles violated, worst margin %.3g, worst ratio %.3g\n",
			aud.Violations(), aud.Triangles(), aud.Margin(), aud.Ratio())
	}
	if st.SlackResolved > 0 {
		fmt.Printf("slack: %d comparisons resolved from relaxed intervals (sound for the declared near-metric)\n",
			st.SlackResolved)
	}
	fmt.Printf("wall time: %s\n", elapsed.Round(time.Millisecond))
	if err := s.OracleErr(); err != nil {
		fmt.Fprintln(os.Stderr, "metricprox: oracle degraded — results are best-effort, not exact:", err)
		fmt.Fprintf(os.Stderr, "metricprox: %d answers came from bounds or estimates instead of the oracle\n", st.DegradedAnswers)
	} else if st.Retries > 0 {
		fmt.Println("all answers exact: every injected fault was retried to success")
	}
	if err := s.StoreErr(); err != nil {
		fmt.Fprintln(os.Stderr, "metricprox: cache warning:", err)
	}
	if err := s.ViolationErr(); err != nil {
		sl := s.Slack()
		switch {
		case !sl.Active():
			// Strict mode: every bound the run used assumed the triangle
			// inequality, so the output-preservation guarantee is void.
			fmt.Fprintln(os.Stderr, "metricprox: the oracle is not a metric — results assume the triangle inequality; re-run with -slack (or -slack auto) to stay sound:", err)
			os.Exit(1)
		case !sl.Auto && s.Auditor().Margin() > sl.Additive:
			// Violations beyond the declared contract: the relaxed
			// intervals were too narrow for this oracle.
			fmt.Fprintf(os.Stderr, "metricprox: observed violation margin %.3g exceeds the declared -slack eps %.3g — results are not guaranteed; raise eps or use -slack auto\n",
				s.Auditor().Margin(), sl.Additive)
			os.Exit(1)
		}
		// Violations within the declared (or auto-grown) slack are exactly
		// what the relaxed intervals already tolerate; the audit line above
		// records them.
	}
}

// calibrate repairs the cache file in place and prints the report; it is
// the offline half of the near-metric story (detection and slack are the
// online half).
func calibrate(path string, tol float64) {
	if path == "" {
		fmt.Fprintln(os.Stderr, "metricprox: -calibrate requires -cache <file>")
		os.Exit(2)
	}
	rep, err := cachestore.Calibrate(path, tol, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricprox: -calibrate:", err)
		os.Exit(1)
	}
	fmt.Printf("calibrated %s: %d records, %d fully-cached triangles\n", path, rep.Records, rep.Triangles)
	fmt.Printf("violation margin: %.6g before, %.6g after (%d projection sweeps)\n",
		rep.MarginBefore, rep.MarginAfter, rep.Iterations)
	if rep.MarginAfter > tol {
		fmt.Fprintf(os.Stderr, "metricprox: margin %.3g still above tolerance %.3g after the sweep budget\n", rep.MarginAfter, tol)
		os.Exit(1)
	}
}

func loadSpace(in string, demo int, p float64, seed int64) (metric.Space, error) {
	switch {
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

func runAlgo(s *core.Session, algo string, k, l int, seed int64, lms []int, m, ef int) (string, error) {
	switch algo {
	case "mst":
		m := prox.PrimMST(s)
		return fmt.Sprintf("MST (Prim): weight %.6f over %d edges", m.Weight, len(m.Edges)), nil
	case "kruskal":
		m := prox.KruskalMST(s)
		return fmt.Sprintf("MST (Kruskal): weight %.6f over %d edges", m.Weight, len(m.Edges)), nil
	case "boruvka":
		m := prox.BoruvkaMST(s)
		return fmt.Sprintf("MST (Boruvka): weight %.6f over %d edges", m.Weight, len(m.Edges)), nil
	case "knn":
		g := prox.KNNGraph(s, k)
		sum := 0.0
		for _, ns := range g {
			for _, nb := range ns {
				sum += nb.Dist
			}
		}
		return fmt.Sprintf("%d-NN graph: mean neighbour distance %.6f", k, sum/float64(len(g)*k)), nil
	case "search":
		// The approximate counterpart of -algo knn: build a navigable
		// search graph (beams seeded from the session's bootstrapped
		// landmarks, every comparison through the IF) and answer a k-NN
		// query for every object over it.
		g, err := nsw.Build(s, nsw.Params{M: m, EfConstruction: ef, Seed: seed, Landmarks: lms})
		if err != nil {
			return "", fmt.Errorf("search graph build: %w", err)
		}
		efs := ef
		if efs <= 0 {
			efs = nsw.DefaultEfConstruction
		}
		sum, cnt := 0.0, 0
		for q := 0; q < g.N(); q++ {
			res, err := g.Search(s, q, k, efs)
			if err != nil {
				return "", fmt.Errorf("search query %d: %w", q, err)
			}
			for _, nb := range res {
				sum += nb.Dist
				cnt++
			}
		}
		p := g.Params()
		return fmt.Sprintf("search graph (nsw m=%d efc=%d): %d nodes, %d edges; approx %d-NN mean neighbour distance %.6f",
			p.M, p.EfConstruction, g.Inserted(), g.Edges(), k, sum/float64(cnt)), nil
	case "pam":
		c := prox.PAM(s, l, seed)
		return fmt.Sprintf("PAM: %d medoids %v, cost %.6f", l, c.Medoids, c.Cost), nil
	case "clarans":
		c := prox.CLARANS(s, l, prox.CLARANSConfig{Seed: seed})
		return fmt.Sprintf("CLARANS: %d medoids %v, cost %.6f", l, c.Medoids, c.Cost), nil
	case "kcenter":
		c := prox.KCenter(s, l)
		return fmt.Sprintf("k-center: centers %v, radius %.6f", c.Centers, c.Radius), nil
	case "tsp":
		t := prox.TwoOpt(s, prox.TSPNearestNeighbour(s), 5)
		return fmt.Sprintf("TSP (NN + 2-opt): tour length %.6f", t.Length), nil
	case "linkage":
		d := prox.SingleLinkage(s)
		mid := d.Merges[len(d.Merges)/2].Dist
		return fmt.Sprintf("single-linkage: %d merges; cutting at %.4f yields %d clusters",
			len(d.Merges), mid, d.Clusters(mid)), nil
	default:
		return "", fmt.Errorf("unknown algorithm %q", algo)
	}
}
