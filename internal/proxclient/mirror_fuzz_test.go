package proxclient

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"metricprox/internal/core"
	"metricprox/internal/service/api"
)

// fuzzValues is the pool every fuzzed distance, bound and threshold is
// drawn from, so a threshold or a bound that leaked into the mirror would
// often look like a plausible distance.
var fuzzValues = [...]float64{0, 0.125, 0.25, 0.5, 0.75, 1, 0.3, 0.6}

// fuzzCaller is a daemon that answers every request with a well-formed
// body chosen by the fuzz bytes: a distance on every dist and distifless
// answer (exact or not), bounds under a rising ε, and per-op errors. It
// records, per pair, every value a response marked exact.
type fuzzCaller struct {
	data     []byte
	n        int
	eps      float64
	exact    map[uint64][]float64
	requests int64
}

func (f *fuzzCaller) next() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *fuzzCaller) value() float64 { return fuzzValues[int(f.next())%len(fuzzValues)] }

// bounds returns a well-formed interval under an ε that never falls.
func (f *fuzzCaller) bounds() (lb, ub, eps float64) {
	lb, ub = f.value(), f.value()
	f.eps += float64(f.next()%3) / 64
	return min(lb, ub), max(lb, ub), f.eps
}

func (f *fuzzCaller) markExact(i, j int, d float64) {
	k := pairKey(i, j)
	f.exact[k] = append(f.exact[k], d)
}

func (f *fuzzCaller) Requests() int64 { return f.requests }

func (f *fuzzCaller) do(_ context.Context, _, path string, in, out any) error {
	f.requests++
	if f.next()%8 == 0 && !strings.HasSuffix(path, "/sessions") {
		return &APIError{Status: http.StatusBadGateway, Code: api.CodeOracleUnavailable, Message: "fuzz"}
	}
	switch req := in.(type) {
	case api.CreateSessionRequest:
		*out.(*api.SessionInfo) = api.SessionInfo{Name: req.Name, N: f.n, MaxDistance: 1}
	case api.PairRequest:
		if strings.HasSuffix(path, "/dist") {
			d := f.value()
			f.markExact(req.I, req.J, d)
			*out.(*api.DistResponse) = api.DistResponse{D: api.WireFloat(d)}
			break
		}
		lb, ub, eps := f.bounds()
		*out.(*api.BoundsResponse) = api.BoundsResponse{LB: api.WireFloat(lb), UB: api.WireFloat(ub), Eps: api.WireFloat(eps)}
	case api.LessRequest, api.LessThanRequest:
		*out.(*api.LessResponse) = api.LessResponse{Less: f.next()%2 == 0}
	case api.DistIfLessRequest:
		b := f.next()
		less, exact, d := b%2 == 0, b%4 < 2, f.value()
		if less || exact {
			f.markExact(req.I, req.J, d)
		}
		*out.(*api.DistIfLessResponse) = api.DistIfLessResponse{Less: less, D: api.WireFloat(d), Exact: exact}
	case api.BatchRequest:
		res := make([]api.BatchResult, len(req.Ops))
		for x := range res {
			if f.next()%8 == 0 {
				res[x].Err = api.CodeOracleUnavailable
				continue
			}
			lb, ub, eps := f.bounds()
			res[x] = api.BatchResult{LB: api.WireFloat(lb), UB: api.WireFloat(ub), Eps: api.WireFloat(eps)}
		}
		*out.(*api.BatchResponse) = api.BatchResponse{Results: res}
	}
	return nil
}

// FuzzMirrorCommitsOnlyExact drives a Session's primitives and prefetch
// against fuzzCaller and holds the mirror's one rule after every step:
// each known distance is a value some response marked exact for that
// pair — never a threshold, a bound, or a distance shipped without the
// exact mark.
func FuzzMirrorCommitsOnlyExact(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 17})
	f.Add([]byte{4, 0, 1, 3, 3, 5, 4, 1, 2, 7, 1, 6, 2, 5, 5, 3, 1, 2, 9, 9})
	f.Add([]byte{6, 0, 1, 2, 3, 9, 9, 9, 9, 3, 1, 2, 6, 1, 0, 4, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 6
		fc := &fuzzCaller{data: data, n: n, exact: make(map[uint64][]float64)}
		s, err := CreateSession(context.Background(), fc, "f", "tri", SessionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// The script is read from the front of the same bytes the caller
		// answers from, so the schedule and the answers interleave.
		for step := 0; len(fc.data) > 0 && step < 64; step++ {
			op := fc.next()
			i, j := int(fc.next())%n, int(fc.next())%n
			c := fc.value()
			switch op % 7 {
			case 0:
				s.DistErr(i, j)
			case 1:
				s.LessErr(i, j, int(fc.next())%n, int(fc.next())%n)
			case 2:
				s.LessThanErr(i, j, c)
			case 3, 4:
				s.DistIfLessErr(i, j, c)
			case 5:
				s.Bounds(i, j)
			case 6:
				s.PrefetchBounds([]core.Pair{{A: i, B: j}, {A: j, B: (i + 1) % n}, {A: i, B: j}})
			}
			s.mu.Lock()
			for k, d := range s.known {
				ok := false
				for _, e := range fc.exact[k] {
					ok = ok || e == d
				}
				if !ok {
					s.mu.Unlock()
					t.Fatalf("step %d: mirror holds %v for pair %x; exact answers were %v", step, d, k, fc.exact[k])
				}
			}
			s.mu.Unlock()
		}
	})
}
