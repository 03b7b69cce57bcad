package main

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// bench is one workload's run: inputs generated once from the seed, and a
// fresh system under test per round. Round i runs ops i·ops() through
// (i+1)·ops()-1 of the seeded traffic, so every round asks something else
// and a run covers the traffic of all its rounds.
type bench interface {
	// ops is the number of ops one round runs.
	ops() int
	// setup builds fresh state and warms its connections; tr is nil in an
	// untraced round.
	setup(ctx context.Context, tr *tracer) (instance, error)
	// check verifies one op's answer outside the op's timed span and
	// returns its digest. A *wrongAnswer aborts the run; any other error
	// counts the op as failed.
	check(x int, answer any) (uint64, error)
	// verify checks the answers check sampled, once all rounds are done,
	// and returns how many answers were verified in all.
	verify() (int, error)
}

// instance is one round's system under test.
type instance interface {
	// clients returns one op runner per load-client goroutine.
	clients() []client
	// begin snapshots the instance's counters as the timed phase starts.
	begin(ctx context.Context) error
	// end fills r.calls and the instance's own per-layer metrics once the
	// timed phase is over.
	end(ctx context.Context, r *round) error
	close()
}

// client runs ops on one load-client goroutine.
type client struct {
	op func(ctx context.Context, x int) (any, error)
	ct *clientTrace // nil in an untraced round
}

// wrongAnswer is an answer that failed verification. It aborts the run.
type wrongAnswer struct{ msg string }

func (w *wrongAnswer) Error() string { return "wrong answer: " + w.msg }

// round is what one round measured.
type round struct {
	setup   time.Duration
	wall    time.Duration
	ops     int64
	failed  int64
	first   int       // the round's first op
	latMs   []float64 // per op, +Inf for a failed op
	digests []uint64  // per op
	cpu     time.Duration
	alloc   uint64
	heap    uint64
	calls   int64
	gcs     uint32
	gcFrac  float64
	layer   map[string]float64
	trace   totals // traced round: the tracer's counters at the end of the timed phase
	// setupStolen and stolen are the shares of the machine's CPU time the
	// host withheld during set-up and during the timed phase (see
	// stolenShare).
	setupStolen, stolen float64
}

// runRound sets up a fresh instance, runs round index's ops against it and
// tears it down. tr is nil for an untraced round.
func runRound(ctx context.Context, b bench, index int, tr *tracer) (*round, error) {
	runtime.GC()
	ticks0 := readCPUTicks()
	t0 := time.Now()
	inst, err := b.setup(ctx, tr)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	r := &round{setup: time.Since(t0), first: index * b.ops(), layer: map[string]float64{}}
	ticks1 := readCPUTicks()
	r.setupStolen = stolenShare(ticks0, ticks1)
	if err := inst.begin(ctx); err != nil {
		return nil, err
	}
	if tr != nil {
		tr.reset()
	}
	ticks2 := readCPUTicks()
	before := snapshot()
	start := time.Now()
	if err := r.loop(ctx, b, inst.clients(), tr); err != nil {
		return nil, err
	}
	r.wall = time.Since(start)
	r.stolen = stolenShare(ticks2, readCPUTicks())
	after := snapshot()
	if tr != nil {
		r.trace = tr.totals()
	}
	r.cpu = after.cpu - before.cpu
	r.alloc = after.mem.TotalAlloc - before.mem.TotalAlloc
	r.gcs = after.mem.NumGC - before.mem.NumGC
	if total := after.cpuTotal - before.cpuTotal; total > 0 {
		r.gcFrac = (after.cpuGC - before.cpuGC) / total
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heap = ms.HeapAlloc
	return r, inst.end(ctx, r)
}

// loop runs the round's ops on the clients, a closed loop: each client
// sends its next op when the last one has been answered. latMs and
// digests are indexed from the round's first op.
func (r *round) loop(ctx context.Context, b bench, clients []client, tr *tracer) error {
	n := b.ops()
	r.ops = int64(n)
	r.latMs = make([]float64, n)
	r.digests = make([]uint64, n)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next   atomic.Int64
		failed atomic.Int64
		mu     sync.Mutex
		abort  error
		wg     sync.WaitGroup
	)
	for _, c := range clients {
		wg.Add(1)
		go func(c client) {
			defer wg.Done()
			for ctx.Err() == nil {
				x := int(next.Add(1) - 1)
				if x >= n {
					return
				}
				op := r.first + x
				from := time.Now()
				var m mark
				if c.ct != nil {
					c.ct.op = -1
					if tr.sampled(op) {
						c.ct.op = int64(op)
					}
					m = c.ct.begin()
				}
				ans, err := c.op(ctx, op)
				if c.ct != nil {
					c.ct.end(m, kOp, "op")
					c.ct.op = -1
				}
				lat := ms(time.Since(from))
				if err == nil {
					r.digests[x], err = b.check(op, ans)
				}
				var wrong *wrongAnswer
				if errors.As(err, &wrong) {
					mu.Lock()
					if abort == nil {
						abort = err
					}
					mu.Unlock()
					cancel()
					return
				}
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					failed.Add(1)
					lat = math.Inf(1)
				}
				r.latMs[x] = lat
			}
		}(c)
	}
	wg.Wait()
	r.failed = failed.Load()
	return abort
}

// usage is a process resource snapshot.
type usage struct {
	cpu             time.Duration
	mem             runtime.MemStats
	cpuGC, cpuTotal float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapshot() usage {
	var u usage
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&u.mem)
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		u.cpuGC, u.cpuTotal = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return u
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of vals by the nearest-rank rule (vals
// is sorted in place). +Inf entries, the failed ops, sort last.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	x := int(math.Ceil(q*float64(len(vals)))) - 1
	if x < 0 {
		x = 0
	}
	return vals[x]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mix is a splitmix64 step over two words: the benchmark's seeded hash for
// sampling decisions and per-op random streams.
func mix(a, b uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b + 0x632be59bd9b4e5d1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
