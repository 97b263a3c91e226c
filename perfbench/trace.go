package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync/atomic"
	"time"

	"btrace/internal/btql"
	"btrace/internal/collect"
	"btrace/internal/core"
	"btrace/internal/distributor"
	"btrace/internal/live"
	"btrace/internal/obs"
	"btrace/internal/overload"
	"btrace/internal/store"
	"btrace/internal/store/backend"
	"btrace/internal/store/backend/local"
	"btrace/internal/tracer"
)

// The traced run pushes one workload's inputs through every layer,
// built in process from the layers' public functions, and times each
// call with spans:
//
//	core      replay.Run into internal/core, cursor readout
//	decode    tracer.DecodeAll of each wire body
//	single    overload.Gate.Filter (Admitted -> live.Hub.Publish), then
//	          collect.Supervisor.Step (store appends as child spans)
//	cluster   distributor.Distributor.Ingest over 4 LocalShards at RF=2
//	          on the object backend (replica Ingest, Publish and store
//	          appends as child spans)
//	query     btql.Parse, store.Store.QueryParallel/Aggregate over the
//	          single-path store after store.Store.CompactCold
//
// Each workload supplies the inputs and sizes: its own event shape and
// batch size, its query-cold preload, its replayed models. Layers a
// workload's server path does not run are still measured on its inputs
// (the README says which figures explain which end-to-end metric).
// Before the sweep, the workload's own server configuration takes the
// same bodies untraced, so the ack time no layer covers is reported as
// serve.unattributed_ms_per_batch.

// tracedInputs are the batches a traced run ingests.
type tracedInputs struct {
	batches [][]tracer.Entry
	bodies  [][]byte
	cluster bool   // the workload's server runs the cluster path
	preload string // query-cold: directory of the preloaded store
	freeze  time.Duration
	replays int // core section: rounds of the replayed models
}

// timedStore is the collector's DumpStore seam with each append timed
// as a child of the caller's current span and counted.
type timedStore struct {
	st     collect.DumpStore
	name   string // span name
	spans  *spanLog
	parent *atomic.Uint64 // current parent span id
	batch  *atomic.Uint64
	events *atomic.Int64
}

func (w *timedStore) AppendEntries(es []tracer.Entry) error {
	s := w.spans.start(w.name, w.parent.Load(), w.batch.Load())
	err := w.st.AppendEntries(es)
	s.finish()
	w.events.Add(int64(len(es)))
	return err
}

// AppendEntriesAsync keeps the async staging surface the collector
// prefers when the wrapped store offers it.
func (w *timedStore) AppendEntriesAsync(es []tracer.Entry) error {
	a, ok := w.st.(interface{ AppendEntriesAsync([]tracer.Entry) error })
	if !ok {
		return w.AppendEntries(es)
	}
	s := w.spans.start(w.name, w.parent.Load(), w.batch.Load())
	err := a.AppendEntriesAsync(es)
	s.finish()
	w.events.Add(int64(len(es)))
	return err
}

// timedBackend counts the time and bytes of every positional write the
// store makes through its backend.
type timedBackend struct {
	backend.Backend
	ns, bytes *atomic.Int64
}

func (b timedBackend) Create(name string, prealloc int64) (backend.File, error) {
	f, err := b.Backend.Create(name, prealloc)
	if err != nil {
		return nil, err
	}
	return timedFile{f, b.ns, b.bytes}, nil
}

func (b timedBackend) OpenRW(name string) (backend.File, error) {
	f, err := b.Backend.OpenRW(name)
	if err != nil {
		return nil, err
	}
	return timedFile{f, b.ns, b.bytes}, nil
}

type timedFile struct {
	backend.File
	ns, bytes *atomic.Int64
}

func (f timedFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.ns.Add(int64(time.Since(t0)))
	f.bytes.Add(int64(n))
	return n, err
}

// timedShard times each replica delivery as a child of the batch's
// Distributor.Ingest span.
type timedShard struct {
	distributor.Shard
	spans         *spanLog
	parent, batch *atomic.Uint64
}

func (s timedShard) Ingest(es []tracer.Entry) error {
	sp := s.spans.start("distributor.replica", s.parent.Load(), s.batch.Load())
	err := s.Shard.Ingest(es)
	sp.finish()
	return err
}

// queuePoller hands the supervisor one queued batch per poll.
type queuePoller struct{ q chan []tracer.Entry }

func (p queuePoller) Poll() ([]tracer.Entry, uint64, error) {
	select {
	case es := <-p.q:
		return es, 0, nil
	default:
		return nil, 0, nil
	}
}

// dumpEvery fires a dump for every non-empty batch, as btrace-serve's
// ingest trigger does.
type dumpEvery struct{}

func (dumpEvery) Observe(es []tracer.Entry) string {
	if len(es) > 0 {
		return "ingest"
	}
	return ""
}
func (dumpEvery) Name() string { return "ingest" }

// obsValue reads a series from the process-wide metrics registry.
func obsValue(name string) float64 { return obs.Default().Snapshot().Value(name) }

// runTraced is the --trace 1 run of workload name.
func runTraced(o opts, name string) (*run, error) {
	dir, cleanup, err := workDir(name + "-traced")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	r := newRun()
	sp := newSpanLog()
	in, err := tracedInputsFor(o, name, dir)
	if err != nil {
		return nil, err
	}

	// Untraced acks from the workload's own server configuration.
	ackMs, err := serverAcks(o, in, dir)
	if err != nil {
		return nil, err
	}

	// decode
	var events int
	for i, body := range in.bodies {
		s := sp.start("tracer.decode", 0, uint64(i+1))
		recs, truncated := tracer.DecodeAll(body)
		s.finish()
		if truncated || len(recs) != len(in.batches[i]) {
			return nil, fmt.Errorf("decode batch %d: %d records, truncated %v", i, len(recs), truncated)
		}
		events += len(recs)
	}

	hub := live.NewHub(live.Config{})
	sub, err := hub.Subscribe(live.Filter{TIDs: []uint32{probeTID}})
	if err != nil {
		return nil, err
	}
	stopDrain, drained := make(chan struct{}), make(chan struct{})
	go func() { // the /live handler's role: keep the subscriber drained
		defer close(drained)
		batch := make([]tracer.Entry, 256)
		for {
			if n, _, err := sub.Next(batch); err != nil || n > 0 {
				if err != nil {
					return
				}
				continue
			}
			select {
			case <-sub.Notify():
			case <-stopDrain:
				return
			}
		}
	}()
	var parent, batchID atomic.Uint64
	publish := func(tenant string, es []tracer.Entry) {
		s := sp.start("live.publish", parent.Load(), batchID.Load())
		hub.Publish(tenant, es)
		s.finish()
	}
	gcfg := overload.Config{MinSampleRate: 1, EngagePressure: 2, Admitted: publish}

	// single path: gate, then supervisor step into the store
	var writeNs, writeBytes atomic.Int64
	scfg := store.Config{ColdAfterNs: 1}
	loc := filepath.Join(dir, "single")
	if in.preload != "" {
		loc, scfg.ColdAfterNs = in.preload, uint64(coldAfter)
	}
	be, err := local.New(loc)
	if err != nil {
		return nil, err
	}
	scfg.Backend = timedBackend{be, &writeNs, &writeBytes}
	st, err := store.Open(loc, scfg)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	storeBefore := st.Events()
	gate := overload.NewGate(gcfg)
	q := make(chan []tracer.Entry, 1)
	var appended atomic.Int64
	ts := &timedStore{st: st, name: "store.append", spans: sp, parent: &parent, batch: &batchID, events: &appended}
	sup, err := collect.NewSupervisor(collect.SupervisorConfig{
		Source: queuePoller{q}, Triggers: []collect.Trigger{dumpEvery{}},
		Store: ts, StoreSink: true, SourceUnordered: true,
	})
	if err != nil {
		return nil, err
	}
	for i, es := range in.batches {
		id := uint64(i + 1)
		batchID.Store(id)
		f := sp.start("overload.filter", 0, id)
		parent.Store(f.rec.ID)
		admitted := gate.Filter(es)
		f.finish()
		q <- admitted
		s := sp.start("collect.step", 0, id)
		parent.Store(s.rec.ID)
		sup.Step()
		s.finish()
	}
	if err := sup.Flush(); err != nil {
		return nil, err
	}
	if err := st.Sync(); err != nil {
		return nil, err
	}
	gs := gate.Stats()
	r.check(identity("gate seen == admitted", float64(gs.Seen), float64(gs.Admitted)))
	r.check(identity("single-path store events == ingested", float64(st.Events()-storeBefore), float64(events)))
	r.check(identity("collector appends == ingested", float64(appended.Load()), float64(events)))

	// freeze, then queries over the single-path store
	freeze := in.freeze
	if in.preload == "" {
		if err := st.Seal(); err != nil {
			return nil, err
		}
		f := sp.start("store.freeze", 0, 0)
		if _, err := st.CompactCold(); err != nil {
			return nil, err
		}
		freeze = time.Duration(f.finish().dur())
	}
	qstats, queries, err := tracedQueries(o, st, sp)
	if err != nil {
		return nil, err
	}
	cold := st.TierStats()[store.TierCold]

	// cluster path
	quarantined0, hedges0 := obsValue("btrace_collect_quarantined_total"), obsValue("btrace_distributor_hedges_total")
	var shards []distributor.Shard
	var replicaEvents atomic.Int64
	var cWriteNs, cWriteBytes atomic.Int64
	for i := 0; i < 4; i++ {
		cst, err := store.OpenBackend(timedBackend{backend.NewObject(), &cWriteNs, &cWriteBytes}, store.Config{})
		if err != nil {
			return nil, err
		}
		ls, err := distributor.NewLocalShard(distributor.LocalConfig{
			Name: fmt.Sprintf("shard-%02d", i), Store: cst,
			WrapStore: func(ds collect.DumpStore) collect.DumpStore {
				return &timedStore{st: ds, name: "store.replica_append", spans: sp, parent: &parent,
					batch: &batchID, events: &replicaEvents}
			},
		})
		if err != nil {
			return nil, err
		}
		shards = append(shards, timedShard{ls, sp, &parent, &batchID})
	}
	d, err := distributor.New(shards, distributor.Config{Replication: 2, Gate: gcfg})
	if err != nil {
		return nil, err
	}
	for i, es := range in.batches {
		id := uint64(len(in.batches) + i + 1)
		batchID.Store(id)
		s := sp.start("distributor.ingest", 0, id)
		parent.Store(s.rec.ID)
		res := d.Ingest("", es)
		s.finish()
		if res.Acked != len(es) {
			d.Close()
			return nil, fmt.Errorf("distributor acked %d of %d", res.Acked, len(es))
		}
	}
	r.check(identity("replica appends == 2 x ingested", float64(replicaEvents.Load()), float64(2*events)))
	quarantined := obsValue("btrace_collect_quarantined_total") - quarantined0
	hedges := obsValue("btrace_distributor_hedges_total") - hedges0
	d.Close()
	close(stopDrain)
	<-drained
	sub.Close()
	ss := sub.Stats()
	r.check(identity("live delivered + missed == matched", float64(ss.Delivered+ss.Missed), float64(ss.Matched)))

	// core: write counters come from internal/core's own series
	coreStats, err := tracedCore(o, in.replays, r)
	if err != nil {
		return nil, err
	}

	if err := sp.write(filepath.Join(buildDir(), "spans", fmt.Sprintf("%s-seed%d.json", name, o.seed))); err != nil {
		return nil, err
	}

	// per-layer figures
	nb := float64(len(in.batches))
	ev := float64(events)
	per := func(name string) float64 { return sp.selfSum(name) / ev }
	set := r.set
	set("tracer.decode_ns_per_event", "ns", per("tracer.decode"))
	set("overload.filter_ns_per_event", "ns", per("overload.filter"))
	set("live.publish_ns_per_event", "ns", sp.selfSum("live.publish")/(2*ev))
	set("live.missed_events", "count", float64(ss.Missed))
	set("collect.step_us_per_batch", "us", sp.selfSum("collect.step")/nb/1e3)
	set("collect.quarantined_events", "count", quarantined)
	set("store.append_ns_per_event", "ns", per("store.append"))
	set("store.replica_append_ns_per_event", "ns", sp.selfSum("store.replica_append")/(2*ev))
	set("store.bytes_per_event", "B", float64(writeBytes.Load())/ev)
	set("backend.local_write_ns_per_kib", "ns", float64(writeNs.Load())/float64(writeBytes.Load())*1024)
	set("backend.object_write_ns_per_kib", "ns", float64(cWriteNs.Load())/float64(cWriteBytes.Load())*1024)
	set("store.freeze_s", "s", freeze.Seconds())
	set("store.cold_shrink_x", "x", float64(cold.RawBytes)/float64(cold.Bytes))
	for k, v := range qstats {
		r.Metrics[k] = v
	}
	ingest := sp.named("distributor.ingest")
	replicas := sp.named("distributor.replica")
	slowest := map[uint64]int64{}
	for _, rep := range replicas {
		slowest[rep.Batch] = max(slowest[rep.Batch], rep.dur())
	}
	var fanout []float64
	for _, in := range ingest {
		fanout = append(fanout, float64(in.dur()-slowest[in.Batch])/1e6)
	}
	set("distributor.ingest_ms_p50", "ms", median(sp.durationsMs("distributor.ingest")))
	set("distributor.replica_ms_p50", "ms", median(sp.durationsMs("distributor.replica")))
	set("distributor.fanout_ms_p50", "ms", median(fanout))
	set("distributor.groups_per_batch", "count", float64(len(replicas))/nb/2)
	set("distributor.hedges", "count", hedges)
	for k, v := range coreStats {
		r.Metrics[k] = v
	}

	// The ack time no layer on the server's ack path covers.
	covered := median(sp.durationsMs("tracer.decode"))
	if in.cluster {
		covered += median(sp.durationsMs("distributor.ingest"))
	}
	set("serve.unattributed_ms_per_batch", "ms", median(ackMs)-covered)
	r.Attempted = int64(3*len(in.batches) + queries)
	return r, nil
}

// tracedInputsFor builds the workload's batches.
func tracedInputsFor(o opts, name, dir string) (*tracedInputs, error) {
	in := &tracedInputs{replays: 1}
	sh := shape{o.seed}
	payload := make([]byte, maxPayload)
	add := func(es []tracer.Entry) {
		in.batches = append(in.batches, es)
		var body []byte
		for i := range es {
			body = appendRecord(body, &es[i])
		}
		in.bodies = append(in.bodies, body)
	}
	gen := func(lo, hi uint64, f func(uint64, []byte) tracer.Entry) []tracer.Entry {
		es := make([]tracer.Entry, 0, hi-lo+1)
		for s := lo; s <= hi; s++ {
			e := f(s, payload)
			e.Payload = append([]byte(nil), e.Payload...)
			es = append(es, e)
		}
		return es
	}
	switch name {
	case "ingest-single", "ingest-cluster":
		n := 300
		if name == "ingest-cluster" {
			n, in.cluster = 150, true
		}
		next := uint64(0)
		for i := 0; i < n; i++ {
			add(gen(next+1, next+ingestBatch, sh.entry))
			next += ingestBatch
			if i%10 == 9 {
				add(gen(next+1, next+probeBatch, probeEntry))
				next += probeBatch
			}
		}
	case "query-cold":
		in.preload = filepath.Join(dir, "preload")
		var err error
		if in.freeze, err = preload(sh, in.preload); err != nil {
			return nil, err
		}
		next := uint64(preloadEvents + tailEvents)
		for i := 0; i < 200; i++ {
			add(gen(next+1, next+qcWriterBatch, probeEntry))
			next += qcWriterBatch
		}
	case "record-replay":
		// The device uploads what it recorded: each model's readout,
		// stamps offset so the uploads stay in stamp order.
		in.replays = 2
		models, err := buildModels(o.seed)
		if err != nil {
			return nil, err
		}
		var offset uint64
		for _, m := range models {
			es, written, err := readoutOf(m)
			if err != nil {
				return nil, err
			}
			for i := range es {
				es[i].Stamp += offset
			}
			offset += written
			for len(es) > 0 {
				k := min(len(es), ingestBatch)
				add(es[:k:k])
				es = es[k:]
			}
		}
	}
	return in, nil
}

// readoutOf replays m and returns the cursor readout and the stamps
// written.
func readoutOf(m model) ([]tracer.Entry, uint64, error) {
	one, err := replayModel(m)
	if err != nil {
		return nil, 0, err
	}
	cur := one.tr.(core.Adapter).NewCursor()
	defer cur.Close()
	es, err := tracer.Drain(cur, 4096)
	return es, uint64(len(one.rr.Truth)), err
}

// serverAcks posts the traced inputs, untraced and closed loop, to the
// workload's own server configuration and returns the ack times.
func serverAcks(o opts, in *tracedInputs, dir string) ([]float64, error) {
	args := append([]string{"-store", filepath.Join(dir, "serve-store")}, serveFlags...)
	if in.cluster {
		args = append(args, clusterIngest.flags...)
	}
	srv, err := startServer(o.serve, filepath.Join(dir, "serve.log"), args...)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	p := &poster{c: newClient(), base: srv.base}
	var acks []float64
	for _, body := range in.bodies {
		t0 := time.Now()
		if _, err := p.post(body); err != nil {
			return nil, err
		}
		acks = append(acks, ms(time.Since(t0)))
	}
	return acks, nil
}

// tracedQueries runs a seeded query mix over st, in query-cold's
// proportions (see queryKinds): BTQL compiles, parallel queries (first
// batch and drain) and aggregates.
func tracedQueries(o opts, st *store.Store, sp *spanLog) (map[string]metric, int, error) {
	before := st.Stats()
	lo, hi, ok := storeHull(st)
	if !ok {
		return nil, 0, fmt.Errorf("traced store is empty")
	}
	rng := rand.New(rand.NewPCG(o.seed, 13))
	var (
		first, aggMs, compileUs []float64
		scanEvents              float64
		scanNs                  float64
		queries                 int
	)
	batch := make([]tracer.Entry, 1024)
	drain := func(q store.Query, scan bool) error {
		t0 := time.Now()
		cur := st.QueryParallel(q, store.DefaultQueryWorkers)
		defer cur.Close()
		n, _, err := cur.Next(batch)
		first = append(first, ms(time.Since(t0)))
		total := n
		for err == nil && n > 0 {
			n, _, err = cur.Next(batch)
			total += n
		}
		if scan {
			scanEvents += float64(total)
			scanNs += float64(time.Since(t0))
		}
		queries++
		return err
	}
	compile := func(src string) (*btql.Query, error) {
		s := sp.start("btql.compile", 0, 0)
		bq, err := btql.Parse(src)
		if err == nil && bq.Filter != nil {
			bq.Predicate()
		}
		compileUs = append(compileUs, float64(s.finish().dur())/1e3)
		return bq, err
	}
	width := hi - lo + 1
	for round := 0; round < 4; round++ {
		for i := 0; i < 8; i++ {
			s := lo + rng.Uint64N(width)
			if err := drain(store.Query{MinStamp: s, MaxStamp: s}, false); err != nil {
				return nil, 0, err
			}
		}
		for i := 0; i < 4; i++ {
			a := lo + rng.Uint64N(width)
			src := fmt.Sprintf("category == %d && stamp >= %d && stamp <= %d", rng.IntN(queryCategories), a, a+btqlWindow)
			bq, err := compile(src)
			if err != nil {
				return nil, 0, err
			}
			if err := drain(store.Query{Pred: bq.Predicate()}, false); err != nil {
				return nil, 0, err
			}
		}
		for i := 0; i < 4; i++ {
			a := lo + rng.Uint64N(width/2+1)
			bq, err := compile(fmt.Sprintf("stamp >= %d && stamp <= %d | count()", a, a+width/2))
			if err != nil {
				return nil, 0, err
			}
			s := sp.start("store.aggregate", 0, 0)
			_, _, err = st.Aggregate(store.Query{Pred: bq.Predicate()}, []btql.AggSpec{*bq.Agg})
			aggMs = append(aggMs, float64(s.finish().dur())/1e6)
			if err != nil {
				return nil, 0, err
			}
			queries++
		}
		if err := drain(store.Query{Categories: []uint8{uint8(rng.IntN(queryCategories))}}, true); err != nil {
			return nil, 0, err
		}
	}
	after := st.Stats()
	nq := float64(queries)
	hits := float64(after.BlockCacheHits - before.BlockCacheHits)
	misses := float64(after.BlockCacheMisses - before.BlockCacheMisses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	return map[string]metric{
		"store.query_first_batch_ms":    {median(first), "ms"},
		"store.scan_events_per_s":       {scanEvents / (scanNs / 1e9), "1/s"},
		"store.aggregate_ms_p50":        {median(aggMs), "ms"},
		"btql.compile_us_p50":           {median(compileUs), "us"},
		"store.blocks_pruned_per_query": {float64(after.BlocksPruned-before.BlocksPruned) / nq, "count"},
		"store.payload_skips_per_query": {float64(after.PayloadSkips-before.PayloadSkips) / nq, "count"},
		"store.block_cache_hit_ratio":   {ratio, "ratio"},
	}, queries, nil
}

// storeHull returns the stored stamp hull.
func storeHull(st *store.Store) (lo, hi uint64, ok bool) {
	for _, seg := range st.Segments() {
		if seg.Events == 0 {
			continue
		}
		if !ok || seg.BaseStamp < lo {
			lo = seg.BaseStamp
		}
		if !ok || seg.MaxStamp > hi {
			hi = seg.MaxStamp
		}
		ok = true
	}
	return lo, hi, ok
}

// tracedCore replays the workload's models into internal/core and
// reads the core's own counters around it.
func tracedCore(o opts, replays int, r *run) (map[string]metric, error) {
	models, err := buildModels(o.seed)
	if err != nil {
		return nil, err
	}
	if replays == 1 {
		models = models[:1]
	}
	cas0, skip0, dummy0 := obsValue("btrace_core_cas_retries_total"), obsValue("btrace_core_blocks_skipped_total"),
		obsValue("btrace_core_dummy_bytes_total")
	var (
		writes float64
		lats   nsHistogram
		latest []float64
	)
	for range replays {
		for _, m := range models {
			one, err := replayModel(m)
			if err != nil {
				return nil, err
			}
			r.check(checkRetention(one.rr.Truth, one.retained, replayBudget, one.ret))
			writes += float64(one.rr.Written)
			for _, ns := range one.rr.LatenciesNs {
				lats.add(ns)
			}
			latest = append(latest, float64(one.ret.LatestFragmentBytes)/1e6)
		}
	}
	kw := writes / 1000
	return map[string]metric{
		"core.record_ns_p50":             {lats.quantile(0.5), "ns"},
		"core.latest_fragment_mb":        {geomean(latest), "MB"},
		"core.cas_retries_per_kwrite":    {(obsValue("btrace_core_cas_retries_total") - cas0) / kw, "count"},
		"core.blocks_skipped_per_kwrite": {(obsValue("btrace_core_blocks_skipped_total") - skip0) / kw, "count"},
		"core.dummy_kib":                 {(obsValue("btrace_core_dummy_bytes_total") - dummy0) / 1024, "KiB"},
	}, nil
}
