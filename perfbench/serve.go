package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hetmp/internal/decstore"
	"hetmp/internal/server"
	"hetmp/internal/telemetry"
)

const (
	serveTenants    = 4
	serveSignatures = 6
	// serveInFlight is the server's concurrency: one job per core.
	serveInFlight = 2
	// cycleSetups is how many serving instances one cycle sets up; the
	// last of them runs a drain. A run repeats whole cycles, so set-ups
	// and drains are spread over the whole run.
	cycleSetups = 3
	// tracedCycles is how many cycles each half of a traced run holds;
	// in its traced half every drain is followed by one segment of the
	// open loop.
	tracedCycles = 5
	// drainRounds is the drain size in rounds of every tenant ×
	// signature pair (24 jobs a round): 216 jobs, so each drain's p95
	// service time has ten samples beyond it.
	drainRounds = 9
	// openRate is the open loop's offered load in jobs per second,
	// about a third of the drain's capacity on a 2-core host.
	openRate = 70.0
	// openSecs is how long the traced run's open loop offers load, in
	// tracedCycles segments.
	openSecs = 15.0
	// execSeed seeds the executor: a job's simulation depends on its
	// signature only, so virtual time is the same for every --seed.
	execSeed = 1
)

// serveShapes returns the six region shapes of the server's own load
// mix (server.Workload), tenant and priority cleared, sorted by region.
func serveShapes() ([]server.Spec, error) {
	seen := map[string]server.Spec{}
	for _, sp := range server.Workload(server.LoadConfig{Jobs: 600, Tenants: serveTenants, Signatures: serveSignatures, Seed: 1}) {
		sp.Tenant, sp.Priority = "", 0
		seen[sp.Region] = sp
	}
	if len(seen) != serveSignatures {
		return nil, fmt.Errorf("server.Workload produced %d shapes, want %d", len(seen), serveSignatures)
	}
	shapes := make([]server.Spec, 0, len(seen))
	for _, sp := range seen {
		shapes = append(shapes, sp)
	}
	sort.Slice(shapes, func(i, j int) bool { return shapes[i].Region < shapes[j].Region })
	return shapes, nil
}

// serveRounds returns n rounds of jobs: each round holds every tenant ×
// shape pair once, with seeded priorities, in seeded order. Whole
// rounds make the total virtual time the same for every seed.
func serveRounds(shapes []server.Spec, n int, rng *rand.Rand) []server.Spec {
	var jobs []server.Spec
	for r := 0; r < n; r++ {
		var round []server.Spec
		for t := 0; t < serveTenants; t++ {
			for _, sh := range shapes {
				sp := sh
				sp.Tenant = fmt.Sprintf("t%d", t)
				sp.Priority = rng.Intn(2)
				round = append(round, sp)
			}
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		jobs = append(jobs, round...)
	}
	return jobs
}

// execTimer is a pass-through Executor that times each Execute call
// into a shared sink (traced runs only).
type execTimer struct {
	inner server.Executor
	sink  *execSink
}

// execSink collects Execute durations in ms.
type execSink struct {
	mu   sync.Mutex
	durs []float64
}

func (w *execTimer) Execute(sp server.Spec) (server.ExecResult, error) {
	start := time.Now()
	res, err := w.inner.Execute(sp)
	d := ms(time.Since(start))
	w.sink.mu.Lock()
	w.sink.durs = append(w.sink.durs, d)
	w.sink.mu.Unlock()
	return res, err
}

// serveInstance is one serving stack: a shared decision cache, the
// executor over it, and a paused server ready for a preloaded drain.
type serveInstance struct {
	rs    *server.RegionServer
	cold  map[string]int64 // signature → cold job virtual ns
	setup time.Duration
	open  time.Duration // decision cache open
}

// serveEnv is what every instance of a run shares.
type serveEnv struct {
	shapes []server.Spec
	dir    string
	tel    *telemetry.Telemetry // traced runs only
	execs  *execSink            // traced runs only
	tr     *tracer
}

// setup starts one instance: open the cache, run one cold job per
// signature through a server, then start the paused drain server over
// the warm cache.
func (env *serveEnv) setup(i int) (*serveInstance, []server.Result, error) {
	in := &serveInstance{cold: map[string]int64{}}
	span := env.tr.begin("serve.setup", spanRef{})
	defer env.tr.end(span)
	start := time.Now()
	xcfg := server.SimExecutorConfig{Seed: execSeed, Telemetry: env.tel}
	fp := server.NewSimExecutor(xcfg).Fingerprint()
	openSpan := env.tr.begin("decstore.open", span)
	openStart := time.Now()
	store, err := server.NewCache(filepath.Join(env.dir, fmt.Sprintf("cache-%d", i)), fp)
	in.open = time.Since(openStart)
	env.tr.end(openSpan)
	if err != nil {
		return nil, nil, fmt.Errorf("open decision cache: %w", err)
	}
	xcfg.Store = store
	var x server.Executor = server.NewSimExecutor(xcfg)
	if env.execs != nil {
		x = &execTimer{inner: x, sink: env.execs}
	}
	warm := server.New(server.Config{MaxInFlight: serveInFlight, Executor: x, Telemetry: env.tel})
	var chans []<-chan server.Result
	for k, sh := range env.shapes {
		sp := sh
		sp.Tenant = fmt.Sprintf("t%d", k%serveTenants)
		ch, err := warm.SubmitAsync(sp)
		if err != nil {
			warm.Close()
			return nil, nil, fmt.Errorf("cold job %s: %w", sp.Sig(), err)
		}
		chans = append(chans, ch)
	}
	var colds []server.Result
	for _, ch := range chans {
		r := <-ch
		colds = append(colds, r)
		in.cold[r.Sig] = r.VirtualNs
	}
	warm.Close()
	in.rs = server.New(server.Config{
		MaxInFlight: serveInFlight,
		QueueDepth:  4 * drainRounds * serveTenants * serveSignatures,
		StartPaused: true,
		Executor:    x,
		Telemetry:   env.tel,
	})
	in.setup = time.Since(start)
	return in, colds, nil
}

// drainResult is one preloaded drain.
type drainResult struct {
	wall    time.Duration
	results []server.Result
	stats   server.Stats
	refused int
}

// drain preloads jobs into the paused server, resumes it and waits for
// every result.
func (in *serveInstance) drain(jobs []server.Spec) drainResult {
	var d drainResult
	var chans []<-chan server.Result
	for _, sp := range jobs {
		ch, err := in.rs.SubmitAsync(sp)
		if err != nil {
			d.refused++
			continue
		}
		chans = append(chans, ch)
	}
	start := time.Now()
	in.rs.Resume()
	for _, ch := range chans {
		d.results = append(d.results, <-ch)
	}
	d.wall = time.Since(start)
	d.stats = in.rs.Stats()
	return d
}

// serveReference runs every signature cold then warm on a separate
// executor with its own cache, outside any server, and returns each
// signature's warm virtual time.
func serveReference(shapes []server.Spec) (map[string]int64, error) {
	xcfg := server.SimExecutorConfig{Seed: execSeed}
	xcfg.Store = decstore.NewMem(server.NewSimExecutor(xcfg).Fingerprint())
	x := server.NewSimExecutor(xcfg)
	warm := map[string]int64{}
	for _, sh := range shapes {
		sp := sh
		sp.Tenant = "ref"
		if _, err := x.Execute(sp); err != nil {
			return nil, fmt.Errorf("reference cold %s: %w", sp.Sig(), err)
		}
		r, err := x.Execute(sp)
		if err != nil {
			return nil, fmt.Errorf("reference warm %s: %w", sp.Sig(), err)
		}
		if r.Probes != 0 || r.Predictions == 0 {
			return nil, fmt.Errorf("reference %s did not run warm (%d probes, %d predictions)", sp.Sig(), r.Probes, r.Predictions)
		}
		warm[sp.Sig()] = r.VirtualNs
	}
	return warm, nil
}

// checkWarm checks the results of jobs that must all run warm.
func checkWarm(out *outcome, phase string, rs []server.Result, ref map[string]int64) {
	for _, r := range rs {
		switch {
		case r.Err != nil:
			out.failed++
			out.fail("%s job %d (%s): %v", phase, r.Seq, r.Sig, r.Err)
		case r.Probes != 0 || !r.Warm:
			out.fail("%s job %d (%s) did not run warm: %d probes", phase, r.Seq, r.Sig, r.Probes)
		case r.VirtualNs != ref[r.Sig]:
			out.fail("%s job %d (%s): virtual %dns, reference %dns", phase, r.Seq, r.Sig, r.VirtualNs, ref[r.Sig])
		}
	}
}

// serveRun accumulates one run's measurements.
type serveRun struct {
	out   *outcome
	env   *serveEnv
	rng   *rand.Rand
	ref   map[string]int64 // signature → reference warm virtual ns
	cold  map[string]int64 // signature → cold virtual ns, first set-up
	drain []server.Spec

	made          int // instances set up so far; each has its own cache
	setups, opens []float64
	drains        []drainResult
	// drain service time (dispatch to result), median and p95 per drain
	drainP50, drainP95 []float64
	// open loop (traced runs): pooled
	lat, late, waits, svcs, execs []float64
	openJobs, refused             int
	lastStats                     server.Stats
}

// phase repeats cycles of cycleSetups set-ups, the last of which runs
// a drain, until seconds have passed (whole cycles), or exactly n
// cycles when n > 0. With open set, every drain is followed by one
// segment of the open loop.
func (sr *serveRun) phase(seconds float64, n int, open bool) error {
	start := time.Now()
	for c := 0; n > 0 && c < n || n == 0 && (c == 0 || time.Since(start).Seconds() < seconds); c++ {
		for i := 0; i < cycleSetups; i++ {
			in, colds, err := sr.env.setup(sr.made)
			if err != nil {
				return err
			}
			sr.made++
			sr.out.attempted += len(colds)
			for _, r := range colds {
				if r.Err != nil {
					sr.out.failed++
					sr.out.notef("cold job %s failed: %v", r.Sig, r.Err)
				} else if r.Warm {
					sr.out.fail("cold job %s ran warm on an empty cache", r.Sig)
				}
			}
			if sr.cold == nil {
				sr.cold = in.cold
			}
			sr.setups = append(sr.setups, in.setup.Seconds())
			sr.opens = append(sr.opens, in.open.Seconds())
			if i < cycleSetups-1 {
				in.rs.Close() // a set-up-only instance
				continue
			}
			if err := sr.runDrain(in); err != nil {
				in.rs.Close()
				return err
			}
			if open {
				if err := sr.openLoop(in, openSecs/tracedCycles); err != nil {
					in.rs.Close()
					return err
				}
			}
			sr.lastStats = in.rs.Stats()
			in.rs.Close()
		}
	}
	// Every drain dispatches the same preloaded sequence.
	for _, d := range sr.drains[1:] {
		if d.stats.DispatchHash != sr.drains[0].stats.DispatchHash || d.stats.VirtualNs != sr.drains[0].stats.VirtualNs {
			sr.out.fail("drains differ: hash %016x/%016x, virtual %d/%d", sr.drains[0].stats.DispatchHash,
				d.stats.DispatchHash, sr.drains[0].stats.VirtualNs, d.stats.VirtualNs)
		}
	}
	return nil
}

// runDrain runs one drain on a fresh instance, checks it, and records
// its service-time median and p95.
func (sr *serveRun) runDrain(in *serveInstance) error {
	d := in.drain(sr.drain)
	sr.out.attempted += len(sr.drain)
	sr.out.failed += d.refused
	checkWarm(sr.out, "drain", d.results, sr.ref)
	if d.stats.WarmProbes != 0 {
		sr.out.fail("drain paid %d warm probes", d.stats.WarmProbes)
	}
	sr.drains = append(sr.drains, d)
	var svc []float64
	for _, r := range d.results {
		if r.Err == nil {
			svc = append(svc, ms(r.Service))
		}
	}
	p95, err := tail(svc, 0.95)
	if err != nil {
		return fmt.Errorf("drain service time: %w", err)
	}
	sr.drainP50 = append(sr.drainP50, median(svc))
	sr.drainP95 = append(sr.drainP95, p95)
	return nil
}

// openLoop offers openRate jobs per second to a drained (warm) server
// for about secs seconds, in whole rounds, and records each job's time
// from its due time to its result.
func (sr *serveRun) openLoop(in *serveInstance, secs float64) error {
	rounds := max(1, int(secs*openRate)/(serveTenants*serveSignatures))
	jobs := serveRounds(sr.env.shapes, rounds, sr.rng)
	dues := jitteredDues(len(jobs), openRate, sr.rng)
	nexec := 0
	if sr.env.execs != nil {
		nexec = len(sr.env.execs.durs)
	}
	ol := drive(dues, time.Now, time.Sleep, func(i int) (<-chan server.Result, error) {
		return in.rs.SubmitAsync(jobs[i])
	})
	if sr.env.execs != nil {
		sr.execs = append(sr.execs, sr.env.execs.durs[nexec:]...)
	}
	sr.out.attempted += len(jobs)
	sr.out.failed += ol.refused
	sr.openJobs += len(jobs)
	sr.refused += ol.refused
	var sent []server.Result
	for i, ok := range ol.sent {
		if !ok {
			continue
		}
		r := ol.results[i]
		due := ol.start.Add(dues[i])
		sr.env.tr.span("serve.job "+r.Sig, spanRef{}, due, due.Add(ol.latency[i]))
		sent = append(sent, r)
		sr.late = append(sr.late, ms(ol.late[i]))
		if r.Err == nil {
			sr.lat = append(sr.lat, ms(ol.latency[i]))
			sr.waits = append(sr.waits, ms(r.Wait))
			sr.svcs = append(sr.svcs, ms(r.Service))
		}
	}
	checkWarm(sr.out, "open-loop", sent, sr.ref)
	return nil
}

// runServe is the serve-tenants workload.
func runServe(o options) (outcome, error) {
	var out outcome
	shapes, err := serveShapes()
	if err != nil {
		return out, err
	}
	ref, err := serveReference(shapes)
	if err != nil {
		return out, err
	}
	dir, err := os.MkdirTemp(o.outDir, "serve-")
	if err != nil {
		return out, fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)

	rng := rand.New(rand.NewSource(o.seed))
	sr := &serveRun{
		out:   &out,
		env:   &serveEnv{shapes: shapes, dir: dir},
		rng:   rng,
		ref:   ref,
		drain: serveRounds(shapes, drainRounds, rng),
	}
	if !o.trace {
		if err := sr.phase(o.seconds, 0, false); err != nil {
			return out, err
		}
		// The decision cache's payoff: cold over warm virtual time.
		var speedups []float64
		for _, sh := range shapes {
			speedups = append(speedups, float64(sr.cold[sh.Sig()])/float64(ref[sh.Sig()]))
		}
		var tputs []float64
		for _, d := range sr.drains {
			tputs = append(tputs, float64(len(d.results))/d.wall.Seconds())
		}
		out.values = map[string]float64{
			"setup_s":          median(sr.setups),
			"wall_s":           medianWall(sr.drains),
			"speedup_x":        geomean(speedups),
			"throughput_per_s": median(tputs),
			"latency_ms":       median(sr.drainP50),
			"latency_tail_ms":  median(sr.drainP95),
		}
		out.notef("serve-tenants: %d setups, %d drains of %d jobs at %.1f jobs/s, service p50 %.2fms p95 %.2fms, drain virtual %.9fs",
			len(sr.setups), len(sr.drains), len(sr.drain), median(tputs), median(sr.drainP50), median(sr.drainP95),
			time.Duration(sr.drains[0].stats.VirtualNs).Seconds())
		return out, nil
	}

	// The traced run first repeats untraced cycles, then as many with
	// spans, the executor timer and telemetry on, each drain followed by
	// a segment of the open loop; trace.overhead_s compares their drains.
	if err := sr.phase(0, tracedCycles, false); err != nil {
		return out, err
	}
	plainWall := medianWall(sr.drains)
	sr.setups, sr.opens, sr.drains = nil, nil, nil
	sr.env.tel = telemetry.New(telemetry.Options{SpanCapacity: 1})
	sr.env.execs = &execSink{}
	sr.env.tr = newTracer()
	if err := sr.phase(0, tracedCycles, true); err != nil {
		return out, err
	}
	latp95, err := tail(sr.lat, 0.95)
	if err != nil {
		return out, fmt.Errorf("open-loop latency: %w", err)
	}
	latep95, err := tail(sr.late, 0.95)
	if err != nil {
		return out, fmt.Errorf("open-loop lateness: %w", err)
	}
	out.notef("serve-tenants traced: open loop %d jobs at %.0f jobs/s offered: p50 %.2fms p95 %.2fms from due time, generator late p95 %.3fms, %d refused",
		sr.openJobs, openRate, median(sr.lat), latp95, latep95, sr.refused)

	st := sr.lastStats
	reg := readRegistry(sr.env.tel)
	v := map[string]float64{
		"trace.overhead_s":         medianWall(sr.drains) - plainWall,
		"model.virtual_s":          time.Duration(sr.drains[0].stats.VirtualNs).Seconds(),
		"simtime.switch_ns":        switchNs(),
		"server.wait_ms":           median(sr.waits),
		"server.service_ms":        median(sr.svcs),
		"server.execute_ms":        median(sr.execs),
		"server.overhead_ms":       median(sr.svcs) - median(sr.execs),
		"server.dispatched":        float64(st.Dispatched),
		"server.cache_hits":        float64(st.CacheHits),
		"server.cross_tenant_warm": float64(st.CrossTenantWarm),
		"server.rejections":        float64(st.Rejected),
		"decstore.open_s":          median(sr.opens),
		"loadgen.latency_ms":       median(sr.lat),
		"loadgen.latency_p95_ms":   latp95,
		"loadgen.late_p95_ms":      latep95,
		"interconnect.fault_us":    1e6 * ratio(reg["hetmp_interconnect_fault_seconds_sum"], reg["hetmp_interconnect_fault_seconds_count"]),
	}
	addCoreAndDSM(v, reg)
	out.values = v
	out.tr = sr.env.tr
	return out, nil
}

// medianWall is the median drain wall time in seconds.
func medianWall(ds []drainResult) float64 {
	var w []float64
	for _, d := range ds {
		w = append(w, d.wall.Seconds())
	}
	return median(w)
}
