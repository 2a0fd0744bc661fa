// Command perfbench is hetmp's benchmark. One invocation runs one
// workload for a fixed time and prints, as its last line, a JSON object
// with the operations attempted and failed, whether every output check
// passed, and either the end-to-end metrics (-trace 0) or the per-layer
// metrics of a traced run (-trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// outcome is what a workload hands back to main.
type outcome struct {
	attempted, failed int
	problems          []string // failed output checks
	notes             []string
	values            map[string]float64
	tr                *tracer // traced runs only
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (outcome, error){
	"fig6-sim":      runFig6,
	"serve-tenants": runServe,
	"real-loops":    runLoops,
}

// maxProcs is the benchmark's fixed parallelism: the load is sized for
// a 2-core host, and fewer cores than that are used when fewer exist.
const maxProcs = 2

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: fig6-sim, serve-tenants or real-loops")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the workload's generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the run measures")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for span files and scratch state")
	flag.Parse()
	o.trace = traceFlag == 1

	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", o.workload, o.seconds, traceFlag)
		os.Exit(2)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	procs := min(maxProcs, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)

	out, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, GOMAXPROCS %d (%d CPUs)\n", o.workload, o.seed, procs, runtime.NumCPU())
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, "perfbench:", n)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		path := filepath.Join(o.outDir, "trace-"+o.workload+".json")
		if err := out.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	rep := report{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   fill(defs, out.values),
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
