package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"path/filepath"
	"sync"
	"time"

	"btrace/internal/store"
	"btrace/internal/tracer"
)

// Preload and traffic shape of query-cold.
const (
	preloadEvents = 1_000_000 // frozen into cold v2 blocks
	tailEvents    = 100_000   // appended after the freeze, left hot
	preloadBatch  = 4096
	// coldAfter is the server's -cold-after: longer than the hot tail's
	// virtual span (tailEvents * tsPerStamp), so the background
	// compactor leaves the tail hot for the whole run.
	coldAfter  = 200 * time.Millisecond
	btqlWindow = 50_000 // stamps covered by a selective BTQL query
	// The writer posts btrace-vulture's default batch on its default
	// interval (-batch 64, -interval 20ms), one writer.
	qcWriterBatch   = 64
	qcWriterPeriod  = 20 * time.Millisecond
	queryCategories = shapeCategories - 1 // scans pick from 0..6; 7 is the writer's
	queryRoundsPS   = 2                   // query rounds per --seconds
)

// queryKinds name the kinds of one query round, in order; each round
// draws fresh seeded targets for them. Point, BTQL and count run 2:1:1,
// the reads btrace-vulture makes of every acked batch before it ages
// (sequential and parallel stamp-range reads, a BTQL range, a count()).
// The one wide scan per round has no such source: it is an assumption.
var queryKinds = []string{"point", "point", "point", "point", "point", "point", "point", "point",
	"btql", "btql", "btql", "btql", "count", "count", "count", "count", "scan"}

// preload writes the query-cold store through the store's public API:
// preloadEvents events sealed and frozen into cold blocks, then a hot
// tail. It returns the freeze time.
func preload(sh shape, dir string) (time.Duration, error) {
	st, err := store.Open(dir, store.Config{ColdAfterNs: 1})
	if err != nil {
		return 0, err
	}
	payload := make([]byte, maxPayload*preloadBatch)
	batch := make([]tracer.Entry, 0, preloadBatch)
	appendRange := func(lo, hi uint64) error {
		for s := lo; s <= hi; s += preloadBatch {
			batch = batch[:0]
			for k := s; k <= hi && k < s+preloadBatch; k++ {
				i := int(k - s)
				batch = append(batch, sh.entry(k, payload[i*maxPayload:(i+1)*maxPayload]))
			}
			if err := st.AppendEntries(batch); err != nil {
				return err
			}
		}
		return nil
	}
	if err := appendRange(1, preloadEvents); err != nil {
		st.Close()
		return 0, err
	}
	if err := st.Seal(); err != nil {
		st.Close()
		return 0, err
	}
	t0 := time.Now()
	if _, err := st.CompactCold(); err != nil {
		st.Close()
		return 0, err
	}
	freeze := time.Since(t0)
	if err := appendRange(preloadEvents+1, preloadEvents+tailEvents); err != nil {
		st.Close()
		return 0, err
	}
	return freeze, st.Close()
}

// query is one request of the mix with its independently derived
// expectation.
type query struct {
	kind  string
	path  string   // URL path and query string
	where string   // BTQL filter of a count
	want  []uint64 // expected stamps (point, btql, scan)
	count uint64   // expected count (count)
}

// A picker returns the next position in [0, span) for a query of kind.
type picker func(kind string, span uint64) uint64

// uniform picks every position independently.
func uniform(rng *rand.Rand) picker {
	return func(_ string, span uint64) uint64 { return rng.Uint64N(span) }
}

// stratified picks the positions of a run's queries of each kind from
// equal strata of their span, one query per stratum, in seeded order
// with a seeded offset inside each stratum. A seed then changes which
// rows each query asks for and when, but every run covers the store
// alike: as many windows fall in the hot tail, and in the part the last
// scan left in the block cache, on every seed.
func stratified(rng *rand.Rand, rounds int) picker {
	left := map[string][]uint64{}
	return func(kind string, span uint64) uint64 {
		ps, ok := left[kind]
		if !ok {
			n := 0
			for _, k := range queryKinds {
				if k == kind {
					n += rounds
				}
			}
			for _, i := range rng.Perm(n) {
				lo, hi := span*uint64(i)/uint64(n), span*uint64(i+1)/uint64(n)
				ps = append(ps, lo+rng.Uint64N(max(hi-lo, 1)))
			}
		}
		left[kind] = ps[1:]
		return ps[0]
	}
}

// queryMix builds one round's queries, placing each with pick and
// drawing the rest from rng; byCat lists the stored stamps of each
// category.
func queryMix(rng *rand.Rand, pick picker, sh shape, byCat [][]uint64) []query {
	const total = preloadEvents + tailEvents
	qs := make([]query, 0, len(queryKinds))
	for _, kind := range queryKinds {
		var q query
		q.kind = kind
		switch kind {
		case "point":
			s := 1 + pick(kind, total)
			q.path = fmt.Sprintf("/store/query?min_stamp=%d&max_stamp=%d&format=csv", s, s)
			q.want = []uint64{s}
		case "btql":
			lo := 1 + pick(kind, total-btqlWindow)
			hi := lo + btqlWindow - 1
			tid := sh.tid(lo + rng.Uint64N(btqlWindow))
			cat := uint8(rng.IntN(queryCategories))
			for s := lo; s <= hi; s++ {
				if sh.tid(s) == tid && sh.category(s) == cat {
					q.want = append(q.want, s)
				}
			}
			src := fmt.Sprintf("tid == %d && category == %d && stamp >= %d && stamp <= %d", tid, cat, lo, hi)
			q.path = "/store/query?format=csv&q=" + url.QueryEscape(src)
		case "count":
			lo := 1 + pick(kind, total/2)
			hi := lo + total/2 - 1
			q.where = fmt.Sprintf("time >= %d && time <= %d", lo*tsPerStamp, hi*tsPerStamp)
			q.path = "/store/query?q=" + url.QueryEscape(q.where+" | count()")
			q.count = hi - lo + 1
		case "scan":
			cat := pick(kind, queryCategories)
			q.path = fmt.Sprintf("/store/query?categories=%d&format=csv&limit=%d", cat, 1<<20)
			q.want = byCat[cat]
		}
		qs = append(qs, q)
	}
	return qs
}

// do runs q and checks its answer against the expectation.
func (q *query) do(ctx context.Context, r *run, c *httpClient, sh shape) (time.Duration, error) {
	t0 := time.Now()
	if q.kind == "count" {
		got, err := countQuery(ctx, c.Client, c.base, q.where)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		r.check(checkCount(q.path, q.count, got))
		return d, nil
	}
	body, err := getBody(ctx, c.Client, c.base+q.path)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	rows, err := parseCSV(body)
	if err != nil {
		return 0, err
	}
	if err := checkRows(sh, q.want, rows); err != nil {
		r.check(fmt.Errorf("%s %s: %v", q.kind, q.path, err))
	}
	return d, nil
}

// runQueryCold is the query-cold workload: a seeded query mix over a
// majority-cold preloaded store, next to an open-loop writer whose
// batches are each probed until visible.
func runQueryCold(o opts) (*run, error) {
	dir, cleanup, err := workDir("query-cold")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	r := newRun()
	sh := shape{o.seed}
	const total = preloadEvents + tailEvents
	byCat := make([][]uint64, shapeCategories)
	for s := uint64(1); s <= total; s++ {
		c := sh.category(s)
		byCat[c] = append(byCat[c], s)
	}
	qc := &httpClient{Client: newClient()}
	wc := &httpClient{Client: newClient()}

	var (
		srv    *server
		setups []float64
		warm   []query
		mixes  [][]query
	)
	ctx := context.Background()
	for i := 0; i < setupRepeats; i++ {
		srv.stop()
		storeDir := filepath.Join(dir, fmt.Sprintf("store-%d", i))
		t0 := time.Now()
		// The schedule: a warm-up round, then every measured round.
		rng := rand.New(rand.NewPCG(o.seed, 11))
		warm, mixes = queryMix(rng, uniform(rng), sh, byCat), nil
		pick := stratified(rng, o.rounds(queryRoundsPS))
		for range o.rounds(queryRoundsPS) {
			mixes = append(mixes, queryMix(rng, pick, sh, byCat))
		}
		if _, err := preload(sh, storeDir); err != nil {
			return nil, err
		}
		args := append([]string{"-store", storeDir, "-compact-interval", "1s",
			"-cold-after", coldAfter.String()}, serveFlags...)
		srv, err = startServer(o.serve, filepath.Join(dir, "serve.log"), args...)
		if err != nil {
			return nil, err
		}
		qc.base, wc.base = srv.base, srv.base
		for j := range warm {
			if _, err := warm[j].do(ctx, r, qc, sh); err != nil {
				srv.stop()
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()
	start, err := scrape(qc.Client, srv.base)
	if err != nil {
		return nil, err
	}

	var (
		lat        = map[string][]float64{}
		rates      []float64 // queries/s of each round
		visMs      []float64
		lateMs     []float64 // how late the open-loop writer sent each batch
		written    uint64
		queries    int
		qErr, wErr error
		wg         sync.WaitGroup
		stop       = make(chan struct{})
	)
	t0 := time.Now()
	wg.Add(2)
	go func() { // query connection: whole rounds of the seeded mix
		defer wg.Done()
		defer close(stop)
		for _, mix := range mixes {
			round := time.Now()
			for j := range mix {
				d, err := mix[j].do(ctx, r, qc, sh)
				if err != nil {
					qErr = err
					return
				}
				lat[mix[j].kind] = append(lat[mix[j].kind], ms(d))
				queries++
			}
			rates = append(rates, float64(len(mix))/time.Since(round).Seconds())
		}
	}()
	go func() { // writer connection: open loop, each batch probed until visible
		defer wg.Done()
		enc := newEncoder()
		p := &poster{c: wc.Client, base: srv.base}
		next := uint64(total)
		for k := 0; ; k++ {
			due := t0.Add(time.Duration(k) * qcWriterPeriod)
			select {
			case <-stop:
				return
			case <-time.After(time.Until(due)):
			}
			lo, hi := next+1, next+qcWriterBatch
			lateMs = append(lateMs, ms(time.Since(due)))
			n, err := p.post(enc.batch(lo, hi, probeEntry))
			if err == nil && n != qcWriterBatch {
				err = fmt.Errorf("writer batch [%d, %d]: acked %d", lo, hi, n)
			}
			if err != nil {
				wErr = err
				return
			}
			next = hi
			written += qcWriterBatch
			seen, err := waitVisible(ctx, wc.Client, srv.base, hi, 30*time.Second)
			if err != nil {
				wErr = err
				return
			}
			visMs = append(visMs, ms(seen.Sub(due)))
		}
	}()
	wg.Wait()
	if qErr != nil || wErr != nil {
		return nil, fmt.Errorf("query-cold: %w", errors.Join(qErr, wErr))
	}

	end, err := scrape(qc.Client, srv.base)
	if err != nil {
		return nil, err
	}
	d := end.diff(start)
	r.check(identity("overload seen == admitted", d["btrace_overload_seen_total"], d["btrace_overload_admitted_total"]))
	r.check(identity("stored events == acked", d["btrace_store_appends_total"], float64(written)))
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	for _, k := range []string{"point", "btql", "count", "scan"} {
		r.detail["query_"+k+"_ms_p50"] = median(lat[k])
	}
	// The gated latency is the selective BTQL median alone, the path
	// pruning and the block cache serve; the round rate carries the
	// count and scan cost (see README, "Blind spots").
	r.set("throughput_per_s", "1/s", median(rates))
	r.set("latency_ms_p50", "ms", r.detail["query_btql_ms_p50"])
	r.set("visible_ms_p50", "ms", median(visMs))
	r.set("rss_mb", "MB", rss)
	r.set("setup_s", "s", median(setups))
	r.Attempted = int64(queries + len(visMs))
	// An open-loop generator reports how late it ran: visible_ms_p50 is
	// timed from the due time, so a late writer would read as a slow
	// server.
	r.detail["writer_late_ms_p50"] = median(lateMs)
	return r, nil
}

// httpClient is a client bound to the server's base URL.
type httpClient struct {
	*http.Client
	base string
}
