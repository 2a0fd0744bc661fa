package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hetmp/internal/cluster"
	"hetmp/internal/core"
	"hetmp/internal/rpc"
	"hetmp/internal/telemetry"
)

const (
	// setupEvery is how many rounds pass between two timed set-ups of
	// a fresh rpc stack, so set-up is sampled across the whole run.
	setupEvery = 100
	// localRegions is how many local regions one round runs: each
	// local kind twice.
	localRegions = 8
	// minLocalN and maxLocalN bound a local region's iteration count.
	minLocalN, maxLocalN = 2000, 6000
	// rpcTol is the relative tolerance between Pool.Run's combined
	// partial sums and the serial sum: the partials are added in a
	// different order, so the last bits may differ.
	rpcTol = 1e-9
	// rpcTimeout bounds each chunk call (loopback; generous).
	rpcTimeout = 30 * time.Second
	// segmentRounds is how many rounds one latency segment holds: 250
	// samples of each rpc kind and 500 of each local kind, so every
	// kind's p95 has more than ten samples beyond it.
	segmentRounds = 250
)

// localKinds are the local-backend operations: ParallelFor and Reduce
// under the static and CSR schedules. Dynamic and HetProbe are left
// out (see README.md).
var localKinds = []string{"for-static", "for-csr", "reduce-static", "reduce-csr"}

// rpcTasks are the rpc operations, with the iteration range each
// draws its size from and the task argument.
var rpcTasks = []struct {
	name       string
	minN, maxN int
	arg        float64
}{
	{"pi", 500, 1500, 0},
	{"blackscholes", 500, 1500, 0},
	{"mandelbrot", 200, 600, 64},
}

// localCSR weights the two 1-core local nodes for the CSR schedule.
var localCSR = map[int]float64{0: 1, 1: 1.5}

// work is the per-iteration body of the local regions.
func work(i int) float64 {
	x := float64(i) + 0.5
	for k := 0; k < 8; k++ {
		x = x*0.999 + 1/x
	}
	return x
}

// Serial forms of the rpc builtins, written here from their
// definitions so Pool.Run is checked against an independent sum.
func serialPi(n int) float64 {
	var s float64
	sign := 1.0
	for i := 0; i < n; i++ {
		s += sign * 4 / float64(2*i+1)
		sign = -sign
	}
	return s
}

func serialBlackscholes(n int) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		x := float64(i%1000)/1000 + 0.5
		spot, strike := 100*x, 100.0
		vol, mat := 0.2+0.15*x, 0.5+x
		const rate = 0.02
		d1 := (math.Log(spot/strike) + (rate+vol*vol/2)*mat) / (vol * math.Sqrt(mat))
		d2 := d1 - vol*math.Sqrt(mat)
		cnd := func(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }
		sum += spot*cnd(d1) - strike*math.Exp(-rate*mat)*cnd(d2)
	}
	return sum
}

func serialMandelbrot(n int, maxIter int) float64 {
	var total float64
	for i := 0; i < n; i++ {
		c := complex(-2+3*float64(i%4096)/4096, -1.2+2.4*float64(i/4096%4096)/4096)
		var z complex128
		k := 0
		for k < maxIter && real(z)*real(z)+imag(z)*imag(z) < 4 {
			z = z*z + c
			k++
		}
		total += float64(k)
	}
	return total
}

func serialTask(name string, n int, arg float64) float64 {
	switch name {
	case "pi":
		return serialPi(n)
	case "blackscholes":
		return serialBlackscholes(n)
	default:
		return serialMandelbrot(n, int(arg))
	}
}

// rpcStack is two loopback workers and a pool dialled to both.
type rpcStack struct {
	servers []*rpc.Server
	addrs   []string
	pool    *rpc.Pool
	wg      sync.WaitGroup
}

// startRPC listens two workers, dials the pool and runs its first
// probe (a small pi run).
func startRPC() (*rpcStack, error) {
	rpc.RegisterBuiltins()
	st := &rpcStack{}
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		srv := &rpc.Server{Name: fmt.Sprintf("w%d", i), Cores: 1}
		st.servers = append(st.servers, srv)
		st.addrs = append(st.addrs, ln.Addr().String())
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			_ = srv.Serve(ln) // returns ErrServerClosed once close runs
		}()
	}
	pool, err := rpc.Dial(st.addrs...)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	st.pool = pool
	got, _, err := pool.Run("pi", 1000, 0, rpc.RunOptions{CallTimeout: rpcTimeout})
	if err != nil {
		st.close()
		return nil, fmt.Errorf("first probe: %w", err)
	}
	if math.Abs(got-serialPi(1000)) > rpcTol*math.Abs(got) {
		st.close()
		return nil, fmt.Errorf("first probe: pi sum %v, serial %v", got, serialPi(1000))
	}
	return st, nil
}

// close stops the pool and both workers and waits for them.
func (st *rpcStack) close() {
	if st.pool != nil {
		st.pool.Close()
	}
	for _, s := range st.servers {
		_ = s.Close() // a repeated Close is harmless; nothing to report
	}
	st.wg.Wait()
}

// loopOp is one timed operation of a round.
type loopOp struct {
	kind   string
	dur    time.Duration
	serial time.Duration // the same work run serially in the benchmark
}

// loopStats accumulates a phase of rounds.
type loopStats struct {
	ops      []loopOp
	roundEnd []int     // len(ops) at the end of each round
	rounds   []float64 // host seconds per round
	virtual  []float64 // runtime-clock seconds per round
	attempts int
	failed   int
	// rpc detail (traced runs)
	runMs          []float64
	busy, capacity time.Duration
	iters, retries int
	redist         int
}

// loops drives rounds of operations from one caller.
type loops struct {
	st  *rpcStack
	tel *telemetry.Telemetry
	tr  *tracer
	out *outcome

	sampleSetups bool
	setups       []float64 // seconds per timed rpc set-up

	// counts and vals are the local regions' per-iteration run counts
	// and results, reused so the benchmark's own garbage stays out of
	// the measured operations.
	counts []int32
	vals   []float64
}

// sampleSetup times the set-up of a fresh rpc stack (workers, pool,
// first probe) and closes it again.
func (l *loops) sampleSetup() error {
	start := time.Now()
	st, err := startRPC()
	if err != nil {
		return err
	}
	l.setups = append(l.setups, time.Since(start).Seconds())
	st.close()
	return nil
}

// localBlock runs one round's local regions on a fresh two-node local
// cluster and returns its makespan as the runtime measured it.
func (l *loops) localBlock(rng *rand.Rand, ls *loopStats, round spanRef) (time.Duration, error) {
	cl, err := cluster.NewLocal(cluster.LocalConfig{NodeCores: []int{1, 1}})
	if err != nil {
		return 0, err
	}
	rt := core.New(cl, core.Options{Telemetry: l.tel})
	sizes := make([]int, localRegions)
	for i := range sizes {
		sizes[i] = minLocalN + rng.Intn(maxLocalN-minLocalN+1)
	}
	err = rt.Run(func(a *core.App) {
		for i, n := range sizes {
			kind := localKinds[i%len(localKinds)]
			sched := core.Schedule(core.StaticSchedule())
			if kind == "for-csr" || kind == "reduce-csr" {
				sched = core.StaticCSR(localCSR)
			}
			counts, out := l.counts[:n], l.vals[:n]
			clear(counts)
			clear(out)
			var sum int64
			sp := l.tr.begin("core.region "+kind, round)
			start := time.Now()
			if kind == "for-static" || kind == "for-csr" {
				a.ParallelFor(kind, n, sched, func(e cluster.Env, lo, hi int) {
					for j := lo; j < hi; j++ {
						atomic.AddInt32(&counts[j], 1)
						out[j] = work(j)
					}
				})
			} else {
				sum = a.ParallelReduce(kind, n, sched, func() any { return int64(0) },
					func(e cluster.Env, lo, hi int, acc any) any {
						s := acc.(int64)
						for j := lo; j < hi; j++ {
							atomic.AddInt32(&counts[j], 1)
							out[j] = work(j)
							s += int64(j)
						}
						return s
					},
					func(x, y any) any { return x.(int64) + y.(int64) }).(int64)
			}
			d := time.Since(start)
			l.tr.end(sp)

			sstart := time.Now()
			for j := 0; j < n; j++ {
				out[j] -= work(j)
			}
			serial := time.Since(sstart)
			ls.attempts++
			ok := true
			for j, c := range counts {
				if c != 1 || out[j] != 0 {
					l.out.fail("%s n=%d: iteration %d ran %d times", kind, n, j, c)
					ok = false
					break
				}
			}
			if (kind == "reduce-static" || kind == "reduce-csr") && sum != int64(n)*int64(n-1)/2 {
				l.out.fail("%s n=%d: sum %d, want %d", kind, n, sum, int64(n)*int64(n-1)/2)
				ok = false
			}
			if !ok {
				continue
			}
			ls.ops = append(ls.ops, loopOp{kind: kind, dur: d, serial: serial})
		}
	})
	if err != nil {
		return 0, err
	}
	return cl.Elapsed(), nil
}

// rpcOp runs one Pool.Run and checks it against the serial sum.
func (l *loops) rpcOp(task string, n int, arg float64, ls *loopStats, round spanRef) time.Duration {
	sp := l.tr.begin("rpc.run "+task, round)
	start := time.Now()
	got, stats, err := l.st.pool.Run(task, n, arg, rpc.RunOptions{CallTimeout: rpcTimeout})
	d := time.Since(start)
	l.tr.end(sp)
	ls.attempts++
	if err != nil {
		ls.failed++
		l.out.notef("rpc %s n=%d failed: %v", task, n, err)
		return 0
	}
	sstart := time.Now()
	want := serialTask(task, n, arg)
	serial := time.Since(sstart)
	if math.Abs(got-want) > rpcTol*math.Abs(want) {
		l.out.fail("rpc %s n=%d: Pool.Run %v, serial %v", task, n, got, want)
		return 0
	}
	ls.ops = append(ls.ops, loopOp{kind: task, dur: d, serial: serial})
	var longest time.Duration
	iters := 0
	for _, s := range stats {
		longest = max(longest, s.Elapsed)
		iters += s.Iterations
		ls.busy += s.Elapsed
		ls.retries += s.Retries
		ls.redist += s.Redistributed
	}
	if iters != n {
		l.out.fail("rpc %s n=%d: workers accounted %d iterations", task, n, iters)
	}
	ls.iters += iters
	ls.capacity += time.Duration(len(stats)) * d
	ls.runMs = append(ls.runMs, ms(d))
	return longest
}

// round runs one whole round: the local block, then each rpc task.
func (l *loops) round(rng *rand.Rand, ls *loopStats) error {
	sp := l.tr.begin("loops.round", spanRef{})
	defer l.tr.end(sp)
	start := time.Now()
	virt, err := l.localBlock(rng, ls, sp)
	if err != nil {
		return err
	}
	for _, t := range rpcTasks {
		n := t.minN + rng.Intn(t.maxN-t.minN+1)
		virt += l.rpcOp(t.name, n, t.arg, ls, sp)
	}
	ls.roundEnd = append(ls.roundEnd, len(ls.ops))
	ls.rounds = append(ls.rounds, time.Since(start).Seconds())
	ls.virtual = append(ls.virtual, virt.Seconds())
	return nil
}

// phase runs rounds until the time is up, or exactly n rounds when
// n > 0.
func (l *loops) phase(seed int64, seconds float64, n int) (*loopStats, error) {
	rng := rand.New(rand.NewSource(seed))
	ls := &loopStats{}
	start := time.Now()
	for r := 0; ; r++ {
		if n > 0 && r >= n || n == 0 && time.Since(start).Seconds() >= seconds {
			return ls, nil
		}
		if l.sampleSetups && r%setupEvery == 0 {
			if err := l.sampleSetup(); err != nil {
				return nil, err
			}
		}
		if err := l.round(rng, ls); err != nil {
			return nil, err
		}
	}
}

// runLoops is the real-loops workload.
func runLoops(o options) (outcome, error) {
	var out outcome
	start := time.Now()
	st, err := startRPC()
	if err != nil {
		return out, err
	}
	defer st.close()
	l := &loops{st: st, out: &out, setups: []float64{time.Since(start).Seconds()},
		counts: make([]int32, maxLocalN), vals: make([]float64, maxLocalN)}

	if o.trace {
		return traceLoops(o, l)
	}
	l.sampleSetups = true
	ls, err := l.phase(o.seed, o.seconds, 0)
	if err != nil {
		return out, err
	}
	out.attempted, out.failed = ls.attempts, ls.failed
	v, err := loopValues(ls)
	if err != nil {
		return out, err
	}
	v["setup_s"] = median(l.setups)
	out.values = v
	out.notef("real-loops: %d rounds, %d operations, %.1f ops/s, p50 %.1fus, p95 %.1fus, %d set-ups",
		len(ls.rounds), len(ls.ops), v["throughput_per_s"], 1000*v["latency_ms"], 1000*v["latency_tail_ms"], len(l.setups))
	return out, nil
}

// opKinds are the seven operation kinds of a round.
var opKinds = append(append([]string(nil), localKinds...), "pi", "blackscholes", "mandelbrot")

// loopValues derives the end-to-end metrics of a phase. Operation
// latency is taken per kind, so the mix of kinds never decides where
// a percentile falls, and per segment of segmentRounds rounds, so a
// burst of host load moves a few segments rather than the run: a
// segment's latency is the geomean over the kinds of each kind's
// median (or p95), and the run reports the median over its whole
// segments.
func loopValues(ls *loopStats) (map[string]float64, error) {
	var segP50, segP95 []float64
	for end := segmentRounds; end <= len(ls.roundEnd); end += segmentRounds {
		lo := 0
		if end > segmentRounds {
			lo = ls.roundEnd[end-segmentRounds-1]
		}
		kinds := map[string][]float64{}
		for _, op := range ls.ops[lo:ls.roundEnd[end-1]] {
			kinds[op.kind] = append(kinds[op.kind], ms(op.dur))
		}
		var p50s, p95s []float64
		for _, k := range opKinds {
			p95, err := tail(kinds[k], 0.95)
			if err != nil {
				return nil, fmt.Errorf("%s latency: %w", k, err)
			}
			p50s = append(p50s, median(kinds[k]))
			p95s = append(p95s, p95)
		}
		segP50 = append(segP50, geomean(p50s))
		segP95 = append(segP95, geomean(p95s))
	}
	if len(segP50) == 0 {
		return nil, fmt.Errorf("%d rounds: no whole latency segment of %d rounds", len(ls.rounds), segmentRounds)
	}
	ratios := map[string][]float64{}
	for _, op := range ls.ops {
		ratios[op.kind] = append(ratios[op.kind], op.serial.Seconds()/op.dur.Seconds())
	}
	var speedups []float64
	for _, k := range opKinds {
		if len(ratios[k]) == 0 {
			return nil, errors.New("no successful " + k + " operation")
		}
		speedups = append(speedups, median(ratios[k]))
	}
	return map[string]float64{
		"wall_s":           median(ls.rounds),
		"speedup_x":        geomean(speedups),
		"throughput_per_s": float64(len(ls.ops)) / float64(len(ls.rounds)) / median(ls.rounds),
		"latency_ms":       median(segP50),
		"latency_tail_ms":  median(segP95),
	}, nil
}

// traceLoops is the traced real-loops run: rounds untraced, the same
// rounds again with spans and telemetry, then the rpc round trip.
func traceLoops(o options, l *loops) (outcome, error) {
	out := l.out
	st := time.Now()
	plain, err := l.phase(o.seed, o.seconds/2, 0)
	if err != nil {
		return *out, err
	}
	plainWall := time.Since(st)
	tel := telemetry.New(telemetry.Options{SpanCapacity: 1})
	l.tel, l.tr = tel, newTracer()
	l.st.pool.Telemetry = tel
	st = time.Now()
	traced, err := l.phase(o.seed, 0, len(plain.rounds))
	if err != nil {
		return *out, err
	}
	tracedWall := time.Since(st)
	out.attempted = plain.attempts + traced.attempts
	out.failed = plain.failed + traced.failed

	var local []float64
	for _, op := range traced.ops {
		if op.kind != "pi" && op.kind != "blackscholes" && op.kind != "mandelbrot" {
			local = append(local, us(op.dur))
		}
	}
	rt, err := roundTripUs(l.st.addrs[0])
	if err != nil {
		return *out, err
	}
	reg := readRegistry(tel)
	v := map[string]float64{
		"core.local_region_us":          median(local),
		"rpc.run_ms":                    median(traced.runMs),
		"rpc.roundtrip_us":              rt,
		"rpc.worker_busy_share":         ratio(float64(traced.busy), float64(traced.capacity)),
		"rpc.worker_busy_share.base_ms": ms(traced.capacity),
		"rpc.iterations":                float64(traced.iters),
		"rpc.retries":                   float64(traced.retries),
		"rpc.redistributed":             float64(traced.redist),
		"trace.overhead_s":              tracedWall.Seconds() - plainWall.Seconds(),
		"model.virtual_s":               median(traced.virtual),
	}
	addCoreAndDSM(v, reg)
	out.values = v
	out.tr = l.tr
	out.notef("real-loops traced: %d rounds untraced in %.2fs, traced in %.2fs", len(plain.rounds),
		plainWall.Seconds(), tracedWall.Seconds())
	return *out, nil
}

// roundTripUs is the median Client.Call time over an empty range.
func roundTripUs(addr string) (float64, error) {
	c, err := rpc.DialClient(addr)
	if err != nil {
		return 0, fmt.Errorf("dial client: %w", err)
	}
	defer c.Close()
	var rts []float64
	for i := 0; i < 2000; i++ {
		start := time.Now()
		if _, err := c.Call("pi", 0, 0, 0, rpcTimeout); err != nil {
			return 0, fmt.Errorf("empty call: %w", err)
		}
		rts = append(rts, us(time.Since(start)))
	}
	return median(rts), nil
}
