package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the steadiness check
// reads: workload names and end-to-end bounds.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain runs each workload in two interleaved sets of runs, each
// run on its own seed, and flags every end-to-end metric whose set
// medians differ by more than its bound, whose quartile spread is wider
// than its bound, or whose runs vary by more than a tenth. It exits 1
// when anything is flagged.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	serve := fs.String("serve", "", "btrace-serve binary")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition")
	only := fs.String("workloads", "", "comma-separated workloads (default: those BENCHMARK.json lists)")
	runs := fs.Int("runs", 10, "runs per set")
	sets := fs.Int("sets", 2, "interleaved sets (1 measures spread only)")
	seconds := fs.Int("seconds", 0, "run length (default run_seconds)")
	fs.Parse(args)
	raw, err := os.ReadFile(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	var b benchmarkSpec
	if err := json.Unmarshal(raw, &b); err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = b.RunSeconds
	}
	names := strings.Split(*only, ",")
	if *only == "" {
		names = nil
		for _, w := range b.Workloads {
			names = append(names, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 2
	}
	flagged := false
	for _, name := range names {
		// vals[set][metric] collects one value per run; failed shares
		// must match exactly between sets.
		vals := make([]map[string][]float64, *sets)
		failShare := make([][2]int64, *sets)
		for s := range vals {
			vals[s] = map[string][]float64{}
		}
		for i := 0; i < *runs; i++ {
			for s := 0; s < *sets; s++ {
				seed := 1000*(s+1) + i
				res, err := runChild(self, *serve, name, seed, *seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", name, seed, err)
					return 1
				}
				if !res.Correct {
					fmt.Printf("FLAG %s seed %d: correctness checks failed\n", name, seed)
					flagged = true
				}
				failShare[s][0] += res.Failed
				failShare[s][1] += res.Attempted
				for m, v := range res.Metrics {
					vals[s][m] = append(vals[s][m], v.Value)
				}
			}
		}
		fmt.Printf("== %s (%d runs x %d sets, %ds)\n", name, *runs, *sets, *seconds)
		for s := range failShare {
			fmt.Printf("   set %d failed %d of %d\n", s+1, failShare[s][0], failShare[s][1])
		}
		for _, e := range b.EndToEnd {
			var meds []float64
			line := fmt.Sprintf("   %-18s bound %.2f", e.Name, e.Bound)
			for s := range vals {
				xs := vals[s][e.Name]
				q1, q2, q3 := quartiles(xs)
				lo, hi := minMax(xs)
				spread, rng := (q3-q1)/q2, (hi-lo)/q2
				meds = append(meds, q2)
				line += fmt.Sprintf(" | set%d med %.6g q1 %.6g q3 %.6g iqr %.3f range %.3f", s+1, q2, q1, q3, spread, rng)
				if spread > e.Bound {
					line += " [SPREAD]"
					flagged = true
				}
				if rng > 0.1 {
					line += " [VARIES]"
					flagged = true
				}
			}
			if len(meds) == 2 && math.Abs(meds[1]-meds[0])/meds[0] > e.Bound {
				line += " [MEDIANS]"
				flagged = true
			}
			fmt.Println(line)
		}
	}
	if flagged {
		return 1
	}
	return 0
}

// runChild runs one benchmark invocation and parses its result line.
func runChild(self, serve, name string, seed, seconds int) (*result, error) {
	cmd := exec.Command(self, "-serve", serve, "--workload", name, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("result line %q: %v", last, err)
	}
	return &res, nil
}

func minMax(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[0], s[len(s)-1]
}
