// Command proxlint is the project's analyzer suite: a multichecker that
// mechanically enforces the oracle-discipline invariants (see DESIGN.md,
// "Static guarantees", and docs/LINT.md for the full reference).
//
// It runs in two modes:
//
//   - vettool mode, driven by the go command:
//
//     go build -o bin/proxlint ./cmd/proxlint
//     go vet -vettool=bin/proxlint ./...
//
//     This is how CI gates the repository; it covers test files, caches
//     results per package like any vet run, and carries cross-package
//     facts (rowescape's row-growth sets, degradedtaint's
//     estimate-returning functions, wireinf's raw-float wire types)
//     through the unitchecker vetx files.
//
//   - standalone mode, for quick local runs on non-test code:
//
//     go run ./cmd/proxlint ./...
//
//     Facts flow between the packages named by the patterns (analyzed in
//     dependency order); facts from packages outside the patterns are
//     unavailable, so prefer ./... over narrow patterns.
//
// Analyzers: oracleescape, lockheldoracle, commitonce, floatcmp,
// obspurity, exporteddoc, rowescape, degradedtaint, ctxflow, wireinf.
// Suppress a finding with an explanation:
//
//	//proxlint:allow <analyzer> -- <rationale>
//
// A directive that suppresses nothing is itself reported as an error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"metricprox/internal/analysis"
	"metricprox/internal/buildinfo"
	"metricprox/internal/proxlint"
)

// version keys the go command's vet result cache: bump it whenever the
// analyzer suite, the fact encoding, or the diagnostic set changes, so
// stale cached results (and stale vetx fact files) are never reused.
const version = "v1.2.5"

// fixUsage is the single source of truth for the -fix flag's description:
// it is registered once in run and echoed verbatim by the -flags probe,
// so the two can never diverge again.
const fixUsage = "accepted for go vet compatibility; proxlint never rewrites code (ignored, with a warning in standalone mode)"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// The go command probes the tool before using it as a vettool:
	// `proxlint -V=full` must print a version line usable as a cache
	// key, and `proxlint -flags` must describe the supported flags.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V=") {
		fmt.Printf("proxlint version %s\n", version)
		return 0
	}
	if len(args) == 1 && args[0] == "-flags" {
		printFlagsJSON()
		return 0
	}

	fs := flag.NewFlagSet("proxlint", flag.ExitOnError)
	verFlag := fs.Bool("version", false, "print version and exit")
	jsonOut := fs.Bool("json", false, "emit JSON diagnostics to stdout instead of text to stderr")
	fs.Int("c", -1, "display offending line with this many lines of context (accepted for vet compatibility; ignored)")
	fixFlag := fs.Bool("fix", false, fixUsage)
	enabled := make(map[string]*bool)
	for _, a := range proxlint.Analyzers() {
		enabled[a.Name] = fs.Bool(a.Name, false, "enable only the "+a.Name+" analyzer: "+a.Doc)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *verFlag {
		fmt.Printf("%s (analyzer suite %s)\n", buildinfo.String("proxlint"), version)
		return 0
	}
	analyzers := selectAnalyzers(enabled)

	if fs.NArg() == 1 && strings.HasSuffix(fs.Arg(0), ".cfg") {
		return runVet(fs.Arg(0), analyzers, *jsonOut)
	}
	if *fixFlag {
		fmt.Fprintln(os.Stderr, "proxlint: warning: -fix is ignored; proxlint never rewrites code")
	}
	return runStandalone(fs.Args(), analyzers, *jsonOut)
}

// selectAnalyzers honours explicit -<name> flags; with none set, the full
// suite runs.
func selectAnalyzers(enabled map[string]*bool) []*analysis.Analyzer {
	any := false
	for _, v := range enabled {
		any = any || *v
	}
	all := proxlint.Analyzers()
	if !any {
		return all
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if *enabled[a.Name] {
			out = append(out, a)
		}
	}
	return out
}

// runVet implements the go vet -vettool contract for one package unit.
func runVet(cfgPath string, analyzers []*analysis.Analyzer, jsonOut bool) int {
	res, err := analysis.RunUnit(cfgPath, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "proxlint: %v\n", err)
		return 1
	}
	return emit([]*analysis.UnitResult{res}, jsonOut)
}

// runStandalone loads the named package patterns (default ./...) from
// source and analyzes each in dependency order, threading one fact table
// through the whole set so cross-package analyzers work within the
// pattern's closure.
func runStandalone(patterns []string, analyzers []*analysis.Analyzer, jsonOut bool) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "proxlint: %v\n", err)
		return 1
	}
	facts := analysis.NewFactTable()
	var results []*analysis.UnitResult
	for _, pkg := range pkgs {
		diags, err := analysis.RunFacts(pkg, analyzers, facts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "proxlint: %v\n", err)
			return 1
		}
		results = append(results, &analysis.UnitResult{ImportPath: pkg.Pkg.Path(), Diagnostics: diags})
	}
	return emit(results, jsonOut)
}

// emit prints diagnostics and returns the process exit code: 0 when
// clean, 2 when findings exist (the exit code go vet expects from a
// failing vet tool).
func emit(results []*analysis.UnitResult, jsonOut bool) int {
	if jsonOut {
		// The unitchecker JSON shape: package -> analyzer -> findings.
		type posDiag struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		out := make(map[string]map[string][]posDiag)
		for _, r := range results {
			if len(r.Diagnostics) == 0 {
				continue
			}
			byAnalyzer := make(map[string][]posDiag)
			for _, d := range r.Diagnostics {
				byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], posDiag{Posn: d.Position.String(), Message: d.Message})
			}
			out[r.ImportPath] = byAnalyzer
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		enc.Encode(out)
		return 0
	}
	found := false
	for _, r := range results {
		for _, d := range r.Diagnostics {
			fmt.Fprintln(os.Stderr, d.String())
			found = true
		}
	}
	if found {
		return 2
	}
	return 0
}

// printFlagsJSON answers the go command's -flags probe with the list of
// flags the tool accepts, in the encoding cmd/go expects.
func printFlagsJSON() {
	type jsonFlag struct {
		Name  string `json:"Name"`
		Bool  bool   `json:"Bool"`
		Usage string `json:"Usage"`
	}
	flags := []jsonFlag{
		{Name: "version", Bool: true, Usage: "print version and exit"},
		{Name: "json", Bool: true, Usage: "emit JSON diagnostics"},
		{Name: "c", Bool: false, Usage: "display offending line plus this many lines of context"},
		{Name: "fix", Bool: true, Usage: fixUsage},
	}
	for _, a := range proxlint.Analyzers() {
		flags = append(flags, jsonFlag{Name: a.Name, Bool: true, Usage: a.Doc})
	}
	data, _ := json.Marshal(flags)
	fmt.Println(string(data))
}
