package main

import (
	"bytes"
	"strconv"
	"strings"

	"hetmp/internal/telemetry"
)

// metricDef names one reported metric and its unit. The lists below
// are the benchmark's contract; BENCHMARK.json at the repository root
// repeats them (a test keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd metrics: every untraced run reports all of them. The
// modelled makespan is not among them: on the simulated workloads it is
// deterministic, the same on every run, so it is a per-layer metric
// (model.virtual_s) that each run also checks for exact repeats.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"speedup_x", "x"},
	{"throughput_per_s", "1/s"},
	{"latency_ms", "ms"},
	{"latency_tail_ms", "ms"},
}

// perLayer metrics: every traced run reports all of them; a layer a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"model.virtual_s", "s"},
	{"simtime.switch_ns", "ns"},
	{"cluster.env_calls", "count"},
	{"cluster.access_s", "s"},
	{"cluster.compute_s", "s"},
	{"cluster.sync_s", "s"},
	{"kernels.self_s", "s"},
	{"kernels.verify_s", "s"},
	{"experiments.calibration_s", "s"},
	{"experiments.run_s.xeon", "s"},
	{"experiments.run_s.thunderx", "s"},
	{"experiments.run_s.idealcsr", "s"},
	{"experiments.run_s.crossdyn", "s"},
	{"experiments.run_s.hetprobe", "s"},
	{"dsm.read_faults", "count"},
	{"dsm.write_faults", "count"},
	{"dsm.invalidations", "count"},
	{"dsm.bytes_in", "bytes"},
	{"dsm.stall_s", "s"},
	{"interconnect.fault_us", "us"},
	{"perf.llc_misses", "count"},
	{"perf.misses_per_kinst", "1/kinst"},
	{"core.regions", "count"},
	{"core.iterations", "count"},
	{"core.probes", "count"},
	{"core.cross_node_decisions", "count"},
	{"core.fallbacks", "count"},
	{"core.predictions", "count"},
	{"core.warm_share", "ratio"},
	{"core.warm_share.base", "count"},
	{"core.local_region_us", "us"},
	{"server.wait_ms", "ms"},
	{"server.service_ms", "ms"},
	{"server.execute_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.dispatched", "count"},
	{"server.cache_hits", "count"},
	{"server.cross_tenant_warm", "count"},
	{"server.rejections", "count"},
	{"decstore.open_s", "s"},
	{"loadgen.latency_ms", "ms"},
	{"loadgen.latency_p95_ms", "ms"},
	{"loadgen.late_p95_ms", "ms"},
	{"rpc.run_ms", "ms"},
	{"rpc.roundtrip_us", "us"},
	{"rpc.worker_busy_share", "ratio"},
	{"rpc.worker_busy_share.base_ms", "ms"},
	{"rpc.iterations", "count"},
	{"rpc.retries", "count"},
	{"rpc.redistributed", "count"},
	{"trace.overhead_s", "s"},
}

// metricVal is one reported value.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// fill builds the metric map for defs from values; a missing value
// reads 0.
func fill(defs []metricDef, values map[string]float64) map[string]metricVal {
	out := make(map[string]metricVal, len(defs))
	for _, d := range defs {
		out[d.name] = metricVal{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// promSums reads a telemetry registry through its Prometheus export
// and sums every series of each family (histograms contribute their
// _sum and _count lines). Series whose label block contains filter are
// also summed under "family|filter" when filter is non-empty.
type promSums map[string]float64

func readRegistry(tel *telemetry.Telemetry, filters ...string) promSums {
	var buf bytes.Buffer
	_ = tel.Metrics().WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
	out := promSums{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
		}
		out[name] += v
		for _, f := range filters {
			if strings.Contains(labels, f) {
				out[name+"|"+f] += v
			}
		}
	}
	return out
}
