package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"btrace/internal/live"
)

// ingestMode is one server configuration the ingest workloads drive.
type ingestMode struct {
	name     string
	flags    []string // btrace-serve flags beyond -store and the fixed ones
	copies   uint64   // stored copies of each acked event (replication)
	warmup   int      // untimed warm-up batches per setup
	roundsPS int      // writer rounds per --seconds
}

var (
	singleIngest  = ingestMode{name: "ingest-single", copies: 1, warmup: 1000, roundsPS: 80}
	clusterIngest = ingestMode{name: "ingest-cluster", copies: 2, warmup: 100, roundsPS: 10,
		flags: []string{"-shards", "4", "-replication", "2", "-backend", "object"}}
)

// Fixed traffic shape of the ingest workloads.
const (
	ingestBatch   = 512                   // events per writer batch
	writerRound   = 16                    // writer batches per round; runs do whole rounds
	probeBatch    = 16                    // events per probe batch
	probeInterval = 50 * time.Millisecond // prober period
	pollGap       = 500 * time.Microsecond
	setupRepeats  = 5    // setups per run; setup_s is their median
	sampleBatches = 8    // acked writer batches read back per run
	maxBackoffs   = 1000 // 429s tolerated per batch before it counts failed
)

// serveFlags are the flags every server workload passes: sampling and
// shedding off, so every run admits and stores the same events.
var serveFlags = []string{"-sample-rate", "1", "-shed=false"}

// batchRec is one posted batch as the generator saw it.
type batchRec struct {
	lo, hi uint64
	sent   time.Time
	ack    time.Duration
}

// poster posts /ingest bodies on one connection.
type poster struct {
	c    *http.Client
	base string
}

// post delivers body, retrying the server's 429 backpressure after a
// millisecond, and returns how many events the 202 acknowledged.
func (p *poster) post(body []byte) (uint64, error) {
	for try := 0; try < maxBackoffs; try++ {
		resp, err := p.c.Post(p.base+"/ingest", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		rb, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			var ack struct {
				Accepted uint64  `json:"accepted"`
				Acked    *uint64 `json:"acked"`
			}
			if err := json.Unmarshal(rb, &ack); err != nil {
				return 0, fmt.Errorf("ack body %q: %v", rb, err)
			}
			if ack.Acked != nil { // cluster: quorum-acked count
				return *ack.Acked, nil
			}
			return ack.Accepted, nil
		case http.StatusTooManyRequests:
			time.Sleep(time.Millisecond)
		default:
			return 0, fmt.Errorf("ingest status %d: %s", resp.StatusCode, bytes.TrimSpace(rb))
		}
	}
	return 0, errors.New("ingest: backpressure did not clear")
}

// visible reports whether stamp s answers a point /store/query.
func visible(ctx context.Context, c *http.Client, base string, s uint64) (bool, error) {
	body, err := getBody(ctx, c, fmt.Sprintf("%s/store/query?min_stamp=%d&max_stamp=%d&format=csv", base, s, s))
	if err != nil {
		return false, err
	}
	return bytes.Count(body, []byte("\n")) >= 2, nil
}

// waitVisible polls until stamp s is queryable and returns when it was
// first seen, or fails after timeout.
func waitVisible(ctx context.Context, c *http.Client, base string, s uint64, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	for {
		ok, err := visible(ctx, c, base, s)
		if err != nil {
			return time.Time{}, err
		}
		if ok {
			return time.Now(), nil
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("stamp %d not visible after %v", s, timeout)
		}
		time.Sleep(pollGap)
	}
}

// liveTap records every probe event the /live subscription delivers.
// Missed and evicted notices are not counted: a probe event they stand
// for is absent from seen, and the probe-stream check reports it.
type liveTap struct {
	resp *http.Response
	mu   sync.Mutex
	seen []uint64
	at   map[uint64]time.Time // first arrival per stamp
	done chan struct{}
}

// subscribeProbes opens /live filtered to the probe TID.
func subscribeProbes(base string) (*liveTap, error) {
	resp, err := http.Get(fmt.Sprintf("%s/live?tids=%d", base, probeTID))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("/live status %d", resp.StatusCode)
	}
	t := &liveTap{resp: resp, at: map[uint64]time.Time{}, done: make(chan struct{})}
	go t.read()
	return t, nil
}

func (t *liveTap) read() {
	defer close(t.done)
	sr := live.NewStreamReader(t.resp.Body)
	for {
		ev, data, err := sr.Next()
		if err != nil {
			return
		}
		now := time.Now()
		if ev != live.EventTrace {
			continue
		}
		e, err := live.DecodeFrame(data)
		if err != nil {
			return
		}
		t.mu.Lock()
		t.seen = append(t.seen, e.Stamp)
		if _, ok := t.at[e.Stamp]; !ok {
			t.at[e.Stamp] = now
		}
		t.mu.Unlock()
	}
}

// waitFor blocks until the tap has seen stamp s or timeout passes.
func (t *liveTap) waitFor(s uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		t.mu.Lock()
		_, ok := t.at[s]
		t.mu.Unlock()
		if ok {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

func (t *liveTap) close() {
	t.resp.Body.Close()
	<-t.done
}

// ingestSetup boots the server over the empty store directory and warms
// it up with writer batches until the last one is queryable.
func ingestSetup(o opts, m ingestMode, dir, store string, c *http.Client, next *atomic.Uint64) (*server, error) {
	args := append([]string{"-store", store}, serveFlags...)
	srv, err := startServer(o.serve, filepath.Join(dir, "serve.log"), append(args, m.flags...)...)
	if err != nil {
		return nil, err
	}
	sh := shape{o.seed}
	enc := newEncoder()
	p := &poster{c: c, base: srv.base}
	next.Store(0)
	for i := 0; i < m.warmup; i++ {
		hi := next.Add(ingestBatch)
		if n, err := p.post(enc.batch(hi-ingestBatch+1, hi, sh.entry)); err != nil || n != ingestBatch {
			srv.stop()
			return nil, fmt.Errorf("warm-up batch: acked %d, %v", n, err)
		}
	}
	if _, err := waitVisible(context.Background(), c, srv.base, next.Load(), 30*time.Second); err != nil {
		srv.stop()
		return nil, err
	}
	return srv, nil
}

// runIngest is the ingest-single / ingest-cluster workload: a closed-loop
// writer and a periodic prober against a fresh btrace-serve.
func runIngest(o opts, m ingestMode) (*run, error) {
	dir, cleanup, err := workDir(m.name)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	r := newRun()
	wc, pc := newClient(), newClient()
	var next atomic.Uint64 // last stamp handed out

	// Set up several times and keep the last; setup_s is the median.
	var (
		srv    *server
		setups []float64
	)
	store := filepath.Join(dir, "store")
	for i := 0; i < setupRepeats; i++ {
		// Removing the previous set-up's store is not part of a set-up.
		srv.stop()
		if err := os.RemoveAll(store); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if srv, err = ingestSetup(o, m, dir, store, wc, &next); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()
	warm := next.Load()
	tap, err := subscribeProbes(srv.base)
	if err != nil {
		return nil, err
	}
	defer tap.close()
	start, err := scrape(pc, srv.base)
	if err != nil {
		return nil, err
	}

	// Measured phase.
	sh := shape{o.seed}
	wp, pp := &poster{c: wc, base: srv.base}, &poster{c: pc, base: srv.base}
	var (
		writes, probes []batchRec
		rates          []float64 // events/s of each writer round
		visMs          []float64
		wErr, pErr     error
		wg             sync.WaitGroup
		stop           = make(chan struct{})
	)
	wg.Add(2)
	go func() { // writer: closed loop, whole rounds
		defer wg.Done()
		defer close(stop)
		enc := newEncoder()
		for range o.rounds(m.roundsPS) {
			round := time.Now()
			for i := 0; i < writerRound; i++ {
				hi := next.Add(ingestBatch)
				lo := hi - ingestBatch + 1
				body := enc.batch(lo, hi, sh.entry)
				sent := time.Now()
				n, err := wp.post(body)
				if err == nil && n != ingestBatch {
					err = fmt.Errorf("batch [%d, %d]: acked %d of %d", lo, hi, n, ingestBatch)
				}
				if err != nil {
					wErr = err
					return
				}
				writes = append(writes, batchRec{lo: lo, hi: hi, sent: sent, ack: time.Since(sent)})
			}
			rates = append(rates, writerRound*ingestBatch/time.Since(round).Seconds())
		}
	}()
	go func() { // prober: one tagged batch per interval, polled until queryable
		defer wg.Done()
		enc := newEncoder()
		tick := time.NewTicker(probeInterval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			hi := next.Add(probeBatch)
			lo := hi - probeBatch + 1
			sent := time.Now()
			n, err := pp.post(enc.batch(lo, hi, probeEntry))
			if err == nil && n != probeBatch {
				err = fmt.Errorf("probe [%d, %d]: acked %d", lo, hi, n)
			}
			if err != nil {
				pErr = err
				return
			}
			probes = append(probes, batchRec{lo: lo, hi: hi, sent: sent, ack: time.Since(sent)})
			seen, err := waitVisible(context.Background(), pc, srv.base, hi, 30*time.Second)
			if err != nil {
				pErr = err
				return
			}
			visMs = append(visMs, ms(seen.Sub(sent)))
		}
	}()
	wg.Wait()
	if wErr != nil || pErr != nil {
		return nil, errors.Join(wErr, pErr)
	}
	// Barrier before the readback: the highest stamp handed out and the
	// writer's last batch are both queryable. On the asynchronous
	// single-store path a probe batch holding the highest stamps can be
	// queued ahead of the writer's last batch, so the first alone does
	// not show that every batch is stored.
	last := next.Load()
	for _, s := range []uint64{last, writes[len(writes)-1].hi} {
		if _, err := waitVisible(context.Background(), pc, srv.base, s, 60*time.Second); err != nil {
			return nil, err
		}
	}
	acked := last - warm

	// Every probe batch must reach /live, whole and in order.
	for _, b := range probes {
		if !tap.waitFor(b.hi, 10*time.Second) {
			break
		}
	}
	tap.mu.Lock()
	liveSeen := append([]uint64(nil), tap.seen...)
	liveAt := tap.at
	tap.mu.Unlock()
	var probeStamps []uint64
	var liveMs []float64
	for _, b := range probes {
		probeStamps = append(probeStamps, stampRange(b.lo, b.hi)...)
		if at, ok := liveAt[b.lo]; ok {
			liveMs = append(liveMs, ms(at.Sub(b.sent)))
		}
	}
	if err := checkStamps(probeStamps, liveSeen); err != nil {
		r.check(fmt.Errorf("/live probe stream: %v", err))
	}

	// Readback: the whole run counts exactly, and a seeded sample of
	// acked batches reads back exactly (merged and replica-deduplicated
	// in cluster mode).
	ctx := context.Background()
	got, err := countQuery(ctx, pc, srv.base, fmt.Sprintf("stamp >= 1 && stamp <= %d", last))
	if err != nil {
		return nil, err
	}
	r.check(checkCount("whole run", last, got))
	rng := rand.New(rand.NewPCG(o.seed, 7))
	for i := 0; i < sampleBatches && len(writes) > 0; i++ {
		b := writes[rng.IntN(len(writes))]
		body, err := getBody(ctx, pc, fmt.Sprintf("%s/store/query?min_stamp=%d&max_stamp=%d&format=csv&limit=%d",
			srv.base, b.lo, b.hi, 2*ingestBatch))
		if err != nil {
			return nil, err
		}
		rows, err := parseCSV(body)
		if err != nil {
			return nil, err
		}
		r.check(checkRows(sh, stampRange(b.lo, b.hi), rows))
	}

	// The server's own counters over the measured phase.
	end, err := scrape(pc, srv.base)
	if err != nil {
		return nil, err
	}
	d := end.diff(start)
	r.check(identity("overload seen == admitted", d["btrace_overload_seen_total"], d["btrace_overload_admitted_total"]))
	r.check(identity("stored events == copies x acked", d["btrace_store_appends_total"], float64(m.copies*acked)))
	r.check(identity("live delivered + missed == matched",
		d["btrace_live_delivered_total"]+d["btrace_live_missed_total"], d["btrace_live_matched_total"]))
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	acks := make([]float64, len(writes))
	for i, b := range writes {
		acks[i] = ms(b.ack)
	}
	p50, p99, tail := percentiles(acks)
	r.set("throughput_per_s", "1/s", median(rates))
	r.set("latency_ms_p50", "ms", p50)
	if tail {
		r.detail["ack_ms_p99"] = p99
	}
	r.set("visible_ms_p50", "ms", median(visMs))
	r.set("rss_mb", "MB", rss)
	r.set("setup_s", "s", median(setups))
	r.Attempted = int64(len(writes) + len(probes))
	r.detail["live_ms_p50"] = median(liveMs)
	return r, nil
}

// identity checks one /metrics accounting identity over the run.
func identity(what string, got, want float64) error {
	if got != want {
		return fmt.Errorf("/metrics %s: %s != %s", what,
			strconv.FormatFloat(got, 'f', -1, 64), strconv.FormatFloat(want, 'f', -1, 64))
	}
	return nil
}
