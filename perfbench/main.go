// Command perfbench is btrace's end-to-end benchmark. It runs one named
// workload, a fixed amount of work sized by --seconds, and prints one
// JSON result line:
//
//	perfbench -serve <btrace-serve binary> --workload ingest-single --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured against a
// real btrace-serve process (record-replay runs internal/core in
// process). With --trace 1 the metrics are per-layer: the same inputs go
// through the layers built in process from their public functions, each
// call timed with spans (see trace.go). `perfbench steady` runs the
// steadiness check (steady.go). perfbench/run.sh builds both binaries
// and is the command BENCHMARK.json names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// opts are the per-run arguments every workload receives.
type opts struct {
	seed    uint64
	seconds int    // sizes the run's fixed work (see rounds)
	serve   string // btrace-serve binary
}

// rounds is the fixed work of one run: every run of a workload with the
// same --seconds does the same number of whole rounds, so sizes and
// counts compare across runs. perSecond is the workload's round rate on
// the reference machine, so a run measures for about --seconds there.
func (o opts) rounds(perSecond int) int { return max(1, o.seconds*perSecond) }

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is what a workload hands back: its end-to-end result, plus
// detail figures printed on stderr (they are not part of the gated
// metric set).
type run struct {
	result
	detail map[string]float64
	errs   []error // failed correctness checks
}

func newRun() *run {
	return &run{result: result{Metrics: map[string]metric{}}, detail: map[string]float64{}}
}

func (r *run) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// check records a correctness failure (nil is a pass).
func (r *run) check(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
	}
}

// workloads maps each workload name to its untraced runner.
var workloads = map[string]func(opts) (*run, error){
	"ingest-single": func(o opts) (*run, error) { return runIngest(o, singleIngest) },
	"ingest-cluster": func(o opts) (*run, error) {
		return runIngest(o, clusterIngest)
	},
	"query-cold":    runQueryCold,
	"record-replay": runRecordReplay,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	serve := fs.String("serve", "", "btrace-serve binary")
	name := fs.String("workload", "", "workload: ingest-single, ingest-cluster, query-cold, record-replay")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "run length: sizes the run's fixed work")
	trace := fs.Int("trace", 0, "1 = traced per-layer run")
	fs.Parse(os.Args[1:])
	o := opts{seed: *seed, seconds: *seconds, serve: *serve}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	var (
		r   *run
		err error
	)
	if *trace == 1 {
		r, err = runTraced(o, *name)
	} else {
		r, err = workloads[*name](o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %v\n", *name, e)
	}
	for metricName, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s is %v\n", *name, metricName, m.Value)
			os.Exit(1)
		}
	}
	r.Correct = len(r.errs) == 0
	if r.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted nothing\n", *name)
		os.Exit(1)
	}
	detail, _ := json.Marshal(r.detail)
	fmt.Fprintf(os.Stderr, "perfbench: %s detail %s\n", *name, detail)
	line, err := json.Marshal(r.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
