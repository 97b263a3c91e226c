package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"btrace/internal/analysis"
	"btrace/internal/core"
	"btrace/internal/replay"
	"btrace/internal/sim"
	"btrace/internal/tracer"
	"btrace/internal/workload"
)

// The Table 2 configuration (internal/experiments): thread-level replay
// at 5% of the paper's volume into a buffer of 5% of its 12 MiB budget,
// with mid-write preemption. replayModels is the replayed subset of the
// paper's workload models, one replay each per round.
const (
	replayRateScale = 0.05
	replayPreempt   = 0.002
	replayBudget    = 12 << 20 * 5 / 100 // 12 MiB at replayRateScale
	replayRoundsPS  = 3                  // rounds of every model per --seconds
)

var replayModels = []string{"LockScr.", "IM", "Video-1", "eShop-1"}

// model is one workload model with its pre-built, seeded schedule.
type model struct {
	w     workload.Workload
	sched *workload.Schedule
}

// buildModels materializes every replayed model's schedule for seed.
func buildModels(seed uint64) ([]model, error) {
	topo := sim.Phone12()
	var ms []model
	for _, name := range replayModels {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		w.Seed ^= int64(seed * 0x9e3779b97f4a7c15 >> 1)
		s, err := w.BuildSchedule(workload.GenOptions{Topology: topo, RateScale: replayRateScale})
		if err != nil {
			return nil, err
		}
		ms = append(ms, model{w: w, sched: s})
	}
	return ms, nil
}

// replayOnce is one replay of m into a fresh core buffer, read out
// through the cursor and scored.
type replayOnce struct {
	tr       tracer.Tracer
	rr       *replay.Result
	ret      analysis.Retention
	readout  time.Duration
	retained []uint64
}

func replayModel(m model) (*replayOnce, error) {
	topo := sim.Phone12()
	tr, err := tracer.New(core.TracerName, replayBudget, topo.Cores(), m.w.ThreadsTotal*topo.Cores())
	if err != nil {
		return nil, err
	}
	rr, err := replay.Run(replay.Config{
		Tracer: tr, Workload: m.w, Schedule: m.sched, Topology: topo,
		Mode: replay.ThreadLevel, PreemptProb: replayPreempt, MeasureLatency: true,
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	retained, err := replay.RetainedStamps(tr)
	readout := time.Since(t0)
	if err != nil {
		return nil, err
	}
	ret, err := analysis.Analyze(rr.Truth, retained, replayBudget)
	if err != nil {
		return nil, err
	}
	return &replayOnce{tr: tr, rr: rr, ret: ret, readout: readout, retained: retained}, nil
}

// checkRetention holds a readout to what the method guarantees: unique
// retained stamps within the written range, no more bytes retained than
// the buffer holds, and a latest fragment no larger than the readout.
func checkRetention(truth []uint32, retained []uint64, budget int, ret analysis.Retention) error {
	var bytes uint64
	for i, s := range retained {
		if s == 0 || s > uint64(len(truth)) {
			return fmt.Errorf("retained stamp %d outside written range [1, %d]", s, len(truth))
		}
		if i > 0 && s <= retained[i-1] {
			return fmt.Errorf("retained stamp %d after %d: duplicated or misordered", s, retained[i-1])
		}
		bytes += uint64(truth[s-1])
	}
	if bytes > uint64(budget) {
		return fmt.Errorf("retained %d bytes, buffer holds %d", bytes, budget)
	}
	if ret.LatestFragmentBytes > bytes {
		return fmt.Errorf("latest fragment %d bytes exceeds the %d retained", ret.LatestFragmentBytes, bytes)
	}
	return nil
}

// runRecordReplay is the record-replay workload: whole rounds of the
// replayed models into internal/core, in process.
func runRecordReplay(o opts) (*run, error) {
	r := newRun()
	var (
		models []model
		setups []float64
		err    error
	)
	for i := 0; i < setupRepeats; i++ {
		// Set-up is the schedule build plus one untimed warm-up replay of
		// each model.
		t0 := time.Now()
		if models, err = buildModels(o.seed); err != nil {
			return nil, err
		}
		for _, m := range models {
			if _, err := replayModel(m); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var (
		lats     nsHistogram
		rates    []float64
		readouts []float64
		latest   = map[string][]float64{}
		replays  int
	)
	for range o.rounds(replayRoundsPS) {
		var written uint64
		var busy time.Duration
		for _, m := range models {
			one, err := replayModel(m)
			if err != nil {
				return nil, err
			}
			replays++
			r.check(checkRetention(one.rr.Truth, one.retained, replayBudget, one.ret))
			for _, ns := range one.rr.LatenciesNs {
				lats.add(ns)
			}
			written += one.rr.Written
			busy += one.rr.Elapsed
			readouts = append(readouts, ms(one.readout))
			latest[m.w.Name] = append(latest[m.w.Name], float64(one.ret.LatestFragmentBytes)/1e6)
		}
		rates = append(rates, float64(written)/busy.Seconds())
	}
	var perModel []float64
	for _, name := range replayModels {
		perModel = append(perModel, median(latest[name]))
	}
	// What the replayed buffers leave resident once their garbage is
	// collected and returned to the system.
	debug.FreeOSMemory()
	rss, err := procStatusMB(fmt.Sprintf("/proc/%d/status", os.Getpid()), "VmRSS:")
	if err != nil {
		return nil, err
	}
	r.set("throughput_per_s", "1/s", median(rates))
	r.set("latency_ms_p50", "ms", lats.quantile(0.5)/1e6)
	r.set("visible_ms_p50", "ms", median(readouts))
	r.set("rss_mb", "MB", rss)
	r.set("setup_s", "s", median(setups))
	r.Attempted = int64(replays)
	r.detail["latest_fragment_mb"] = geomean(perModel)
	return r, nil
}

// nsHistogram pools nanosecond latencies exactly up to its range, so a
// run's millions of writes cost a fixed few megabytes.
type nsHistogram struct {
	counts [1 << 20]uint64 // counts[ns]; the last bucket holds everything longer
	n      uint64
}

func (h *nsHistogram) add(ns int64) {
	h.counts[min(max(ns, 0), int64(len(h.counts)-1))]++
	h.n++
}

// quantile returns the q-quantile, interpolated within its 1 ns bucket
// so that a median does not snap to the clock's granularity.
func (h *nsHistogram) quantile(q float64) float64 {
	rank := q * float64(h.n)
	var seen float64
	for ns, c := range h.counts {
		if c > 0 && seen+float64(c) > rank {
			return float64(ns) + (rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(len(h.counts) - 1)
}
