// Command proxbench regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	proxbench -list                 # show every experiment id
//	proxbench -exp table2,fig3a     # run selected experiments
//	proxbench -exp all              # run the whole evaluation
//	proxbench -exp all -full        # paper-scale sizes (slow)
//	proxbench -exp table2 -seed 7   # change the dataset seed
//
//	proxbench -exp table2 -faults seed=3,rate=0.2
//	                                # same tables under injected oracle
//	                                # faults (outputs preserved by retry)
//
//	proxbench -exp table2 -obs      # append the observability summary
//	proxbench -exp table2 -trace t.jsonl
//	                                # trace every comparison: the per-IF
//	                                # "why did we pay?" breakdown on
//	                                # stdout, one JSON event per line in
//	                                # t.jsonl ('-' streams to stderr)
//
// Output is aligned-markdown tables on stdout, one per artifact, with
// footnotes recording scaling and substitution decisions. -obs and
// -trace never change the numbers in the tables — observation is
// write-only (DESIGN.md §8); field semantics are in docs/METRICS.md.
//
// All flags are validated before any experiment runs: unknown experiment
// ids, malformed -faults specs, and contradictory combinations exit with
// a diagnostic instead of falling through to partial work.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"metricprox/internal/buildinfo"
	"metricprox/internal/experiments"
	"metricprox/internal/faultmetric"
	"metricprox/internal/obs"
)

func main() {
	var (
		expFlag    = flag.String("exp", "", "comma-separated experiment ids, or 'all'")
		listFlag   = flag.Bool("list", false, "list available experiments and exit")
		fullFlag   = flag.Bool("full", false, "paper-scale sizes (minutes of runtime)")
		seedFlag   = flag.Int64("seed", 42, "dataset and algorithm seed")
		csvFlag    = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		faultsFlag = flag.String("faults", "", "inject oracle faults: seed=N,rate=P with P in (0,1]")
		obsFlag    = flag.Bool("obs", false, "collect observability metrics and print the summary after the run")
		traceFlag  = flag.String("trace", "", "trace every comparison: JSONL events to this file ('-' for stderr); implies -obs")
		verFlag    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *verFlag {
		fmt.Println(buildinfo.String("proxbench"))
		return
	}

	if args := flag.Args(); len(args) > 0 {
		fmt.Fprintf(os.Stderr, "proxbench: unexpected arguments %q (flags only; see -h)\n", args)
		os.Exit(2)
	}
	if *listFlag {
		for _, bad := range []struct {
			set  bool
			name string
		}{{*expFlag != "", "-exp"}, {*csvFlag, "-csv"}, {*fullFlag, "-full"}, {*faultsFlag != "", "-faults"}, {*obsFlag, "-obs"}, {*traceFlag != "", "-trace"}} {
			if bad.set {
				fmt.Fprintf(os.Stderr, "proxbench: -list runs nothing and ignores %s; drop one of the two\n", bad.name)
				os.Exit(2)
			}
		}
	}

	if *expFlag == "" && !*listFlag {
		for _, bad := range []struct {
			set  bool
			name string
		}{{*csvFlag, "-csv"}, {*fullFlag, "-full"}, {*faultsFlag != "", "-faults"}, {*obsFlag, "-obs"}, {*traceFlag != "", "-trace"}} {
			if bad.set {
				fmt.Fprintf(os.Stderr, "proxbench: %s does nothing without -exp; add -exp <id> or -exp all\n", bad.name)
				os.Exit(2)
			}
		}
	}

	if *listFlag || *expFlag == "" {
		fmt.Println("Available experiments (run with -exp <id>[,<id>…] or -exp all):")
		for _, r := range experiments.All() {
			fmt.Printf("  %-8s %s\n", r.ID, r.Title)
		}
		if !*listFlag {
			os.Exit(2)
		}
		return
	}

	cfg := experiments.Config{Full: *fullFlag, Seed: *seedFlag}
	if *faultsFlag != "" {
		fcfg, err := faultmetric.ParseSpec(*faultsFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "proxbench: -faults: %v\n", err)
			os.Exit(2)
		}
		cfg.FaultRate = fcfg.TransientRate
		cfg.FaultSeed = fcfg.Seed
	}
	// The JSONL sink writes through a 64 KiB buffer, so a traced run pays
	// one write syscall per 64 KiB of events, not one per event.
	var sinkFile *os.File
	var sinkBuf *bufio.Writer
	if *obsFlag || *traceFlag != "" {
		switch *traceFlag {
		case "":
		case "-":
			sinkBuf = bufio.NewWriterSize(os.Stderr, 64<<10)
		default:
			f, err := os.Create(*traceFlag)
			if err != nil {
				fmt.Fprintf(os.Stderr, "proxbench: -trace: %v\n", err)
				os.Exit(2)
			}
			sinkFile, sinkBuf = f, bufio.NewWriterSize(f, 64<<10)
		}
		if sinkBuf != nil {
			cfg.Observer = obs.NewObserver(true, 0, sinkBuf)
		} else {
			cfg.Observer = obs.NewObserver(false, 0, nil)
		}
	}

	var runners []experiments.Runner
	if *expFlag == "all" {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			r, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "proxbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}

	for _, r := range runners {
		start := time.Now()
		table := r.Run(cfg)
		if *csvFlag {
			fmt.Printf("# %s — %s\n", table.ID, table.Title)
			if err := table.RenderCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "proxbench:", err)
				os.Exit(1)
			}
			fmt.Println()
			continue
		}
		table.Note("regenerated in %s (seed %d, full=%v)", time.Since(start).Round(time.Millisecond), *seedFlag, *fullFlag)
		if cfg.FaultRate > 0 {
			table.Note("oracle faults injected: transient rate %g, fault seed %d — outputs preserved by retry; call counts are successful resolutions", cfg.FaultRate, cfg.FaultSeed)
		}
		table.Render(os.Stdout)
	}

	if cfg.Observer != nil {
		fmt.Println()
		obs.WriteSummary(os.Stdout, cfg.Observer.Registry, cfg.Observer.Tracer)
		if t := cfg.Observer.Tracer; t != nil {
			if err := t.SinkErr(); err != nil {
				fmt.Fprintln(os.Stderr, "proxbench: trace sink failed part-way; the JSONL file is incomplete:", err)
			} else if err := sinkBuf.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "proxbench: -trace:", err)
				os.Exit(1)
			}
		}
		if sinkFile != nil {
			if err := sinkFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "proxbench: -trace:", err)
				os.Exit(1)
			}
		}
	}
}
