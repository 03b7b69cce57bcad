package experiments

import "testing"

// TestExt10OutputsMatchOneWorker holds ext10 to its note: at every worker
// count the parallel kNN rows and Borůvka MST equal the 1-worker build's.
func TestExt10OutputsMatchOneWorker(t *testing.T) {
	tb, identical := ext10Run(quickCfg)
	if !identical {
		t.Fatalf("ext10: a parallel build differs from the 1-worker build\n%s", tb.Notes)
	}
}
