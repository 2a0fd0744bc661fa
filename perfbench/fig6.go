package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"hetmp/internal/cluster"
	"hetmp/internal/core"
	"hetmp/internal/experiments"
	"hetmp/internal/interconnect"
	"hetmp/internal/kernels"
	"hetmp/internal/machine"
	"hetmp/internal/simtime"
	"hetmp/internal/telemetry"
)

// mirrorConfigs is the traced mirror's per-kernel run order. HetProbe
// runs before Ideal CSR, whose weights are that run's measured CSR
// (Table 2's procedure), so the mirror runs each of the 50 cells once.
var mirrorConfigs = []string{
	experiments.CfgXeon, experiments.CfgThunderX, experiments.CfgHetProbe,
	experiments.CfgIdealCSR, experiments.CfgCrossDyn,
}

// cfgKey names each configuration in per-layer metric names.
var cfgKey = map[string]string{
	experiments.CfgXeon:     "xeon",
	experiments.CfgThunderX: "thunderx",
	experiments.CfgIdealCSR: "idealcsr",
	experiments.CfgCrossDyn: "crossdyn",
	experiments.CfgHetProbe: "hetprobe",
}

// dynChunks mirrors the experiment suite's per-benchmark Cross-Node
// Dynamic chunk sizes. The traced run checks every mirror cell against
// the suite's own Suite.Run, so a drift here fails the run.
var dynChunks = map[string]int{
	"blackscholes": 16, "BT-C": 4, "cfd": 8, "CG-C": 16, "EP-C": 2,
	"kmeans": 8, "lavaMD": 1, "lud": 2, "SP-C": 4, "streamcluster": 16,
}

// errVerify marks a mirror cell whose kernel ran but computed a wrong
// result.
var errVerify = errors.New("verify failed")

// gridPass is one whole Figure 6 grid produced by the suite's own code.
type gridPass struct {
	times   map[string]time.Duration // "bench/config" → virtual makespan
	cellMs  []float64                // host ms of each Suite.Run
	runS    map[string]time.Duration // host time per configuration
	wall    time.Duration
	virtual time.Duration
	speedup float64
	cells   int
	failed  int
	runErrs []string // cells that failed to run
	errs    []string // failed output checks
}

// calibrate builds a fresh quick suite and times its threshold
// calibration (the sequential, verified, knobs-off suite Figure 6 uses).
func calibrate() (*experiments.Suite, time.Duration, time.Duration, error) {
	s := experiments.Quick()
	s.Parallel = 1
	start := time.Now()
	th, err := s.Threshold(interconnect.RDMA56())
	return s, th, time.Since(start), err
}

// fig6Grid runs whole grids as Suite.Figure6 does with Parallel 1: a
// fresh suite, calibrated, then every cell through Suite.Run, kernels
// in the given order and, per kernel, experiments.Configs in order.
// Suite.Run verifies every kernel's result, so a wrong result is a
// failed cell.
type fig6Grid struct {
	th  time.Duration // the first calibration's threshold
	out *outcome
	// setups are the calibration times: the pass's own, then one on a
	// throwaway suite after every kernel, so set-up is sampled across
	// the whole run.
	setups []float64
}

// calibrateInto times one calibration on a fresh suite, checks it
// finds the first calibration's threshold, and returns the suite.
func (g *fig6Grid) calibrateInto() (*experiments.Suite, error) {
	s, th, d, err := calibrate()
	if err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	if th != g.th {
		g.out.fail("calibration is not deterministic: threshold %v then %v", g.th, th)
	}
	g.setups = append(g.setups, d.Seconds())
	return s, nil
}

// pass produces one grid. Its wall time is the sum of its cells' host
// times; calibrations are set-up, not part of it.
func (g *fig6Grid) pass(order []string) (gridPass, error) {
	p := gridPass{times: map[string]time.Duration{}, runS: map[string]time.Duration{}}
	s, err := g.calibrateInto()
	if err != nil {
		return p, err
	}
	proto := interconnect.RDMA56()
	var ratios []float64
	for _, bench := range order {
		for _, config := range experiments.Configs {
			p.cells++
			start := time.Now()
			res, err := s.Run(bench, config, proto)
			d := time.Since(start)
			p.wall += d
			p.runS[config] += d
			p.cellMs = append(p.cellMs, ms(d))
			if err != nil {
				p.failed++
				p.runErrs = append(p.runErrs, err.Error())
				continue
			}
			if (config == experiments.CfgXeon || config == experiments.CfgThunderX) && res.Faults != 0 {
				p.errs = append(p.errs, fmt.Sprintf("%s/%s: single-node run took %d DSM faults", bench, config, res.Faults))
			}
			p.times[bench+"/"+config] = res.Time
			p.virtual += res.Time
		}
		x, h := p.times[bench+"/"+experiments.CfgXeon], p.times[bench+"/"+experiments.CfgHetProbe]
		if x > 0 && h > 0 {
			ratios = append(ratios, float64(x)/float64(h))
		}
		if _, err := g.calibrateInto(); err != nil {
			return p, err
		}
	}
	if len(ratios) == len(order) {
		p.speedup = geomean(ratios)
	}
	return p, nil
}

// mirror runs the grid one cell at a time, building each run the way
// experiments.Suite.Run does, so a traced pass can time region steps
// and wrap the cluster handed to core.New. Only the traced run uses it
// (once untraced, once traced, for trace.overhead_s), and it checks
// every cell against the suite's own Suite.Run.
type mirror struct {
	s     *experiments.Suite
	th    time.Duration
	proto interconnect.Spec // scaled to the suite's time scale

	// Set for the traced pass only.
	tr  *tracer
	tel *telemetry.Telemetry
	lay *simLayers

	verify time.Duration
}

func (f *mirror) platform(which string) machine.Platform {
	xeon := machine.XeonE5_2620v4().ScaleCaches(f.s.CacheScale)
	xeon.Cores = f.s.XeonCores
	tx := machine.ThunderX().ScaleCaches(f.s.CacheScale)
	tx.Cores = f.s.TXCores
	switch which {
	case "xeon":
		return machine.Platform{Nodes: []machine.NodeSpec{xeon}}
	case "tx":
		return machine.Platform{Nodes: []machine.NodeSpec{tx}}
	default:
		return machine.Platform{Nodes: []machine.NodeSpec{xeon, tx}, Origin: 0}
	}
}

// cellResult is one benchmark × configuration run of the mirror.
type cellResult struct {
	virtual   time.Duration
	decisions map[string]core.Decision
}

// cell runs one benchmark under one configuration and verifies it.
func (f *mirror) cell(bench, config string, csr map[int]float64) (cellResult, error) {
	var (
		which string
		sched core.Schedule
	)
	switch config {
	case experiments.CfgXeon:
		which, sched = "xeon", core.StaticSchedule()
	case experiments.CfgThunderX:
		which, sched = "tx", core.StaticSchedule()
	case experiments.CfgIdealCSR:
		which, sched = "both", core.StaticCSR(csr)
	case experiments.CfgCrossDyn:
		which, sched = "both", core.DynamicSchedule(dynChunks[bench])
	case experiments.CfgHetProbe:
		which, sched = "both", core.HetProbeSchedule()
	default:
		return cellResult{}, fmt.Errorf("unknown config %q", config)
	}
	root := f.tr.begin("experiments.run "+bench+"/"+config, spanRef{})
	defer f.tr.end(root)

	k, err := kernels.New(bench, f.s.Scale)
	if err != nil {
		return cellResult{}, err
	}
	sim, err := cluster.NewSim(cluster.SimConfig{
		Platform:      f.platform(which),
		Protocol:      f.proto,
		Seed:          f.s.Seed,
		MigrationCost: time.Duration(200 * float64(time.Microsecond) * f.s.TimeScale),
		Telemetry:     f.tel,
	})
	if err != nil {
		return cellResult{}, err
	}
	var cl cluster.Cluster = sim
	if f.lay != nil {
		cl = &tracedCluster{Cluster: sim, l: f.lay}
	}
	rt := core.New(cl, core.Options{
		FaultPeriodThreshold: f.th,
		ProbeRegionID:        k.ProbeRegion(),
		Telemetry:            f.tel,
	})

	// The schedule factory is called as each region starts: one span
	// per region step, from one region's start to the next's.
	var last time.Time
	var step spanRef
	run := f.tr.begin("core.run", root)
	factory := func(region string) core.Schedule {
		now := time.Now()
		if !last.IsZero() {
			f.tr.endAt(step, now)
		}
		last = now
		step = f.tr.begin("region "+region, run)
		return sched
	}
	err = rt.Run(func(a *core.App) { k.Run(a, factory) })
	if !last.IsZero() {
		f.tr.endAt(step, time.Now())
	}
	f.tr.end(run)
	if err != nil {
		return cellResult{}, fmt.Errorf("%s/%s: %w", bench, config, err)
	}

	vs := f.tr.begin("kernels.verify", root)
	vstart := time.Now()
	err = k.Verify()
	f.verify += time.Since(vstart)
	f.tr.end(vs)
	if err != nil {
		return cellResult{}, fmt.Errorf("%s/%s: %w: %v", bench, config, errVerify, err)
	}
	return cellResult{virtual: sim.Elapsed(), decisions: rt.Decisions()}, nil
}

// mainCSR derives Ideal CSR weights from a HetProbe run's decisions:
// the CSR of the longest-running region (ties broken by name), as the
// suite's Table 2 procedure does.
func mainCSR(decs map[string]core.Decision) map[int]float64 {
	ids := make([]string, 0, len(decs))
	for id := range decs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	best := ""
	for _, id := range ids {
		if best == "" || decs[id].CumTime > decs[best].CumTime {
			best = id
		}
	}
	if best == "" {
		return map[int]float64{}
	}
	return core.CSRFromDecision(decs[best])
}

// pass runs the whole grid once through the mirror.
func (f *mirror) pass(order []string) gridPass {
	p := gridPass{times: map[string]time.Duration{}}
	start := time.Now()
	for _, bench := range order {
		var csr map[int]float64
		for _, config := range mirrorConfigs {
			p.cells++
			res, err := f.cell(bench, config, csr)
			if errors.Is(err, errVerify) {
				p.errs = append(p.errs, err.Error())
				continue
			}
			if err != nil {
				p.failed++
				p.runErrs = append(p.runErrs, err.Error())
				continue
			}
			if config == experiments.CfgHetProbe {
				csr = mainCSR(res.decisions)
			}
			p.times[bench+"/"+config] = res.virtual
			p.virtual += res.virtual
		}
	}
	p.wall = time.Since(start)
	return p
}

// sameTimes reports the first cell whose virtual time differs.
func sameTimes(a, b map[string]time.Duration) string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(a) != len(b) {
		return fmt.Sprintf("%d cells vs %d", len(a), len(b))
	}
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Sprintf("%s: %v vs %v", k, a[k], b[k])
		}
	}
	return ""
}

// runFig6 is the fig6-sim workload.
func runFig6(o options) (outcome, error) {
	var out outcome
	// Set-up is threshold calibration; this first one fixes the
	// threshold every later calibration must find.
	_, th, d, err := calibrate()
	if err != nil {
		return out, fmt.Errorf("calibrate: %w", err)
	}
	g := &fig6Grid{th: th, out: &out, setups: []float64{d.Seconds()}}

	// The seed permutes the kernel order; the grid itself is fixed.
	order := append([]string(nil), kernels.PaperOrder...)
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	record := func(p gridPass) {
		out.attempted += p.cells
		out.failed += p.failed
		for _, e := range p.runErrs {
			out.notef("cell failed: %s", e)
		}
		for _, e := range p.errs {
			out.fail("%s", e)
		}
	}

	first, err := g.pass(order)
	if err != nil {
		return out, err
	}
	record(first)
	if o.trace {
		err := traceFig6(&out, g, first, order, record)
		return out, err
	}
	passes := []gridPass{first}
	want := int(math.Round(o.seconds / first.wall.Seconds()))
	for len(passes) < max(2, want) {
		p, err := g.pass(order)
		if err != nil {
			return out, err
		}
		record(p)
		passes = append(passes, p)
	}
	var walls, cells []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		cells = append(cells, p.cellMs...)
		if d := sameTimes(first.times, p.times); d != "" {
			out.fail("virtual times differ between passes: %s", d)
		}
		if p.virtual != first.virtual || p.speedup != first.speedup {
			out.fail("virtual time/speedup_x differ between passes: %v/%v vs %v/%v",
				first.virtual, first.speedup, p.virtual, p.speedup)
		}
	}
	// Cell times range from tens of ms to over a second with gaps
	// between kernels, so a median could jump across a gap; the
	// geomean moves with every cell. Two or three passes give 100-150
	// cell times: p90 is the highest percentile with ten beyond it.
	p90, err := tail(cells, 0.90)
	if err != nil {
		return out, fmt.Errorf("cell latency: %w", err)
	}
	var total float64
	for _, w := range walls {
		total += w
	}
	out.values = map[string]float64{
		"setup_s":          median(g.setups),
		"wall_s":           median(walls),
		"speedup_x":        first.speedup,
		"throughput_per_s": float64(len(cells)) / total,
		"latency_ms":       geomean(cells),
		"latency_tail_ms":  p90,
	}
	out.notef("fig6-sim: %d passes of %d cells, threshold %v, virtual %.9fs",
		len(passes), first.cells, th, first.virtual.Seconds())
	return out, nil
}

// traceFig6 is the traced fig6-sim run. After the untraced grid (the
// suite's own Suite.Run, which gives the per-configuration host times)
// it runs the grid through the mirror twice, plain and then with spans,
// the cluster wrapper and the telemetry registry on, and requires every
// mirror cell to match the suite's.
func traceFig6(out *outcome, g *fig6Grid, plain gridPass, order []string, record func(gridPass)) error {
	s, _, _, err := calibrate()
	if err != nil {
		return fmt.Errorf("calibrate: %w", err)
	}
	f := &mirror{s: s, th: g.th, proto: interconnect.RDMA56().Scaled(s.TimeScale)}
	untraced := f.pass(order)
	record(untraced)
	f.tr, f.lay = newTracer(), newSimLayers()
	f.tel = telemetry.New(telemetry.Options{SpanCapacity: 1})
	f.verify = 0
	traced := f.pass(order)
	record(traced)
	for name, p := range map[string]gridPass{"untraced": untraced, "traced": traced} {
		if d := sameTimes(plain.times, p.times); d != "" {
			out.fail("%s mirror differs from the suite's Suite.Run: %s", name, d)
		}
	}

	reg := readRegistry(f.tel, `outcome="cross-node"`)
	cats := f.lay.tl.totals()
	v := map[string]float64{
		"simtime.switch_ns":         switchNs(),
		"cluster.env_calls":         float64(f.lay.calls.Load()),
		"cluster.access_s":          cats[catAccess].Seconds(),
		"cluster.compute_s":         cats[catCompute].Seconds(),
		"cluster.sync_s":            cats[catSync].Seconds(),
		"kernels.self_s":            cats[catKernel].Seconds(),
		"kernels.verify_s":          f.verify.Seconds(),
		"experiments.calibration_s": median(g.setups),
		"perf.llc_misses":           float64(f.lay.perf.LLCMisses),
		"perf.misses_per_kinst":     ratio(float64(f.lay.perf.LLCMisses), float64(f.lay.perf.Instructions)/1000),
		"trace.overhead_s":          traced.wall.Seconds() - untraced.wall.Seconds(),
		"model.virtual_s":           plain.virtual.Seconds(),
		"core.cross_node_decisions": reg[`hetmp_hetprobe_decisions_total|outcome="cross-node"`],
		"interconnect.fault_us":     1e6 * ratio(reg["hetmp_interconnect_fault_seconds_sum"], reg["hetmp_interconnect_fault_seconds_count"]),
	}
	for cfg, key := range cfgKey {
		v["experiments.run_s."+key] = plain.runS[cfg].Seconds()
	}
	addCoreAndDSM(v, reg)
	out.values = v
	out.tr = f.tr
	out.notef("fig6-sim traced: suite grid %.2fs, mirror %.2fs untraced and %.2fs traced, %d spans",
		plain.wall.Seconds(), untraced.wall.Seconds(), traced.wall.Seconds(), len(f.tr.spans))
	return nil
}

// addCoreAndDSM copies the runtime's and the DSM's registry counters
// into per-layer values.
func addCoreAndDSM(v map[string]float64, reg promSums) {
	v["dsm.read_faults"] = reg["hetmp_dsm_read_faults_total"]
	v["dsm.write_faults"] = reg["hetmp_dsm_write_faults_total"]
	v["dsm.invalidations"] = reg["hetmp_dsm_invalidations_total"]
	v["dsm.bytes_in"] = reg["hetmp_dsm_bytes_in_total"]
	v["dsm.stall_s"] = reg["hetmp_dsm_stall_seconds_sum"]
	v["core.regions"] = reg["hetmp_regions_total"]
	v["core.iterations"] = reg["hetmp_iterations_total"]
	v["core.probes"] = reg["hetmp_hetprobe_probes_total"]
	v["core.fallbacks"] = reg["hetmp_hetprobe_adaptive_fallbacks_total"]
	v["core.predictions"] = reg["hetmp_hetprobe_predictions_total"]
	base := reg["hetmp_hetprobe_predictions_total"] + reg["hetmp_hetprobe_probes_total"]
	v["core.warm_share.base"] = base
	v["core.warm_share"] = ratio(reg["hetmp_hetprobe_predictions_total"], base)
}

// switchNs times a fixed two-proc ping-pong on the simulator and
// returns host ns per proc handoff (median of five runs).
func switchNs() float64 {
	const rounds = 100_000
	var runs []float64
	for r := 0; r < 5; r++ {
		eng := simtime.NewEngine(1)
		last, switches := -1, 0
		body := func(id int) func(*simtime.Proc) {
			return func(p *simtime.Proc) {
				for i := 0; i < rounds; i++ {
					if last != id {
						switches++
						last = id
					}
					p.Advance(1)
					p.Yield()
				}
			}
		}
		eng.Go("ping", 0, body(0))
		eng.Go("pong", 0, body(1))
		start := time.Now()
		if err := eng.Run(); err != nil {
			return 0
		}
		runs = append(runs, float64(time.Since(start).Nanoseconds())/float64(max(switches, 1)))
	}
	return median(runs)
}
