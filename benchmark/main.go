// Command gocast-bench is the repository benchmark: one workload per run,
// every metric printed by name and unit, outputs checked, and a separate
// traced mode that attributes CPU and work to the program's layers.
//
//	bash benchmark/run.sh --workload sim-steady --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 500, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set. README.md in this directory records why each
// workload exists and which layer metric should move which end-to-end
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract (the last stdout line).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics, its operation counts, and every
// correctness problem found; a run with any problem is not correct.
type report struct {
	e2e       map[string]metric
	layer     map[string]metric
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *report) end(name, unit string, v float64) { r.e2e[name] = metric{v, unit} }
func (r *report) per(name, unit string, v float64) { r.layer[name] = metric{v, unit} }
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}
func (r *report) count(name string, v int64)          { r.per(name, "count", float64(v)) }
func (r *report) ratio(name string, num, den float64) { r.per(name, "ratio", safeDiv(num, den)) }

// options are the command-line inputs shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) error{
	"sim-steady":      runSimSteady,
	"sim-lossy-mixed": runSimLossy,
	"live-tcp":        runLiveTCP,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "measured duration of the live workload, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "gocast-bench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rep := newReport()
	if err := run(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "gocast-bench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if rep.attempted < 1 {
		rep.fail("no operations attempted")
	}
	out := result{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed}
	if o.trace {
		out.Metrics = rep.layer
	} else {
		out.Metrics = rep.e2e
	}
	printTable(o, out.Metrics)
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "gocast-bench: CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gocast-bench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printTable writes the human-readable metric table ahead of the JSON line.
func printTable(o options, ms map[string]metric) {
	kind := "end-to-end"
	if o.trace {
		kind = "per-layer"
	}
	fmt.Printf("workload %s  seed %d  (%s)\n", o.workload, o.seed, kind)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func safeDiv(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median returns the middle of xs (the mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile returns the q-quantile of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
