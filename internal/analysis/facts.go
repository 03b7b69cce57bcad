package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
	"sort"
	"sync"
)

// Fact is one piece of analyzer-produced knowledge about a package-level
// object (a function, method, type, or variable), keyed so it survives
// crossing a package boundary: when internal/pgraph is analyzed, rowescape
// records "Graph.AddEdge grows a row"; when internal/bounds is analyzed
// later, the engine re-resolves that fact from the imported (gc export
// data) object without ever re-reading pgraph's source. This is the
// dependency-free analogue of golang.org/x/tools/go/analysis facts.
type Fact struct {
	// Object is the canonical key of the object the fact describes; see
	// ObjectKey.
	Object string `json:"object"`
	// Kind is the analyzer-specific label ("grows", "borrows",
	// "degraded", "rawfloat", ...).
	Kind string `json:"kind"`
	// Detail optionally refines the kind (a field path, result indices).
	Detail string `json:"detail,omitempty"`
}

// ObjectKey canonicalises an object reference so that the key computed
// while analyzing the defining package (from source) equals the key
// computed in a downstream package (from gc export data). Methods encode
// their receiver's named type with pointers stripped:
//
//	metricprox/internal/pgraph.Graph.AddEdge
//	metricprox/internal/core.Session.estimate
//	metricprox/internal/service/api.WireFloat
//
// Objects without a package (builtins, universe errors) key to "".
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	prefix := obj.Pkg().Path() + "."
	if f, ok := obj.(*types.Func); ok {
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			if name := recvTypeName(sig.Recv().Type()); name != "" {
				return prefix + name + "." + f.Name()
			}
		}
	}
	return prefix + obj.Name()
}

// recvTypeName returns the bare name of a method receiver's named type,
// stripping one level of pointer. Interface receivers resolve the same
// way: the interface's type name.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Alias:
		return t.Obj().Name()
	}
	return ""
}

// FactTable accumulates facts across a whole analysis run: facts imported
// from dependency units (the vetx files of the unitchecker protocol, or
// previously analyzed packages in a standalone run) plus facts exported
// while analyzing the current package. It is safe for concurrent readers
// with a single writer per package, which is how the drivers use it; the
// mutex exists for the analyzertest harness, whose recursive loader may
// interleave.
type FactTable struct {
	mu sync.Mutex
	m  map[string]map[string][]Fact // analyzer -> object key -> facts
}

// NewFactTable returns an empty table.
func NewFactTable() *FactTable {
	return &FactTable{m: make(map[string]map[string][]Fact)}
}

// Add records a fact under the analyzer's name. Exact duplicates are
// dropped, so re-analyzing a package (the analyzertest harness does this
// for packages that are both dependencies and named targets) is
// idempotent.
func (t *FactTable) Add(analyzer string, f Fact) {
	if f.Object == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byObj := t.m[analyzer]
	if byObj == nil {
		byObj = make(map[string][]Fact)
		t.m[analyzer] = byObj
	}
	for _, have := range byObj[f.Object] {
		if have == f {
			return
		}
	}
	byObj[f.Object] = append(byObj[f.Object], f)
}

// Lookup returns the facts the named analyzer recorded for the object key.
func (t *FactTable) Lookup(analyzer, objKey string) []Fact {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[analyzer][objKey]
}

// Len reports the total number of facts, for tests and diagnostics.
func (t *FactTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, byObj := range t.m {
		for _, fs := range byObj {
			n += len(fs)
		}
	}
	return n
}

// Encode serialises the whole table (imported facts included: each unit's
// vetx file re-exports its dependencies' facts, which keeps fact flow
// transitive even when a driver only hands us direct-dependency files).
// The encoding is deterministic so vetx files are byte-stable inputs to
// the go command's content-based caching.
func (t *FactTable) Encode() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]Fact, len(t.m))
	for analyzer, byObj := range t.m {
		keys := make([]string, 0, len(byObj))
		for k := range byObj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var fs []Fact
		for _, k := range keys {
			fs = append(fs, byObj[k]...)
		}
		out[analyzer] = fs
	}
	return json.MarshalIndent(out, "", "\t")
}

// DecodeMerge merges a previously encoded table into t. Unreadable data
// returns an error; the drivers tolerate it for dependency files (a stale
// vetx produced by an older proxlint simply contributes no facts — the
// tool version string keys the go command's cache, so this only happens
// for hand-edited files).
func (t *FactTable) DecodeMerge(data []byte) error {
	var in map[string][]Fact
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("decoding fact table: %w", err)
	}
	for analyzer, fs := range in {
		for _, f := range fs {
			t.Add(analyzer, f)
		}
	}
	return nil
}

// ExportFact records a fact about obj under the running analyzer's name.
// The fact is visible immediately to later Fact lookups in this package
// and, through the driver, to every package analyzed afterwards that
// imports this one.
func (p *Pass) ExportFact(obj types.Object, kind, detail string) {
	p.facts.Add(p.Analyzer.Name, Fact{Object: ObjectKey(obj), Kind: kind, Detail: detail})
}

// HasFact reports whether the running analyzer (in this or an upstream
// package) recorded a fact of the given kind about obj.
func (p *Pass) HasFact(obj types.Object, kind string) bool {
	_, ok := p.FactDetail(obj, kind)
	return ok
}

// FactDetail returns the detail string of the first fact of the given
// kind recorded about obj by the running analyzer.
func (p *Pass) FactDetail(obj types.Object, kind string) (string, bool) {
	key := ObjectKey(obj)
	if key == "" {
		return "", false
	}
	for _, f := range p.facts.Lookup(p.Analyzer.Name, key) {
		if f.Kind == kind {
			return f.Detail, true
		}
	}
	return "", false
}
