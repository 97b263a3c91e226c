package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanRec is one timed call into a layer. Spans of one input batch
// share Batch; Parent is the span whose interval caused this one (0 for
// a root).
type spanRec struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Batch  uint64 `json:"batch"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s spanRec) dur() int64 { return s.End - s.Start }

// spanLog keeps every span of a traced run in memory; write saves them
// when the run ends.
type spanLog struct {
	t0   time.Time
	next atomic.Uint64
	mu   sync.Mutex
	recs []spanRec
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// openSpan is a started span; finish records it.
type openSpan struct {
	l   *spanLog
	rec spanRec
}

func (l *spanLog) start(name string, parent, batch uint64) *openSpan {
	return &openSpan{l: l, rec: spanRec{Name: name, ID: l.next.Add(1), Parent: parent, Batch: batch,
		Start: int64(time.Since(l.t0))}}
}

func (s *openSpan) finish() spanRec {
	s.rec.End = int64(time.Since(s.l.t0))
	s.l.mu.Lock()
	s.l.recs = append(s.l.recs, s.rec)
	s.l.mu.Unlock()
	return s.rec
}

// named returns the spans called name, in start order.
func (l *spanLog) named(name string) []spanRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []spanRec
	for _, r := range l.recs {
		if r.Name == name {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Children that overlap
// (concurrent replica deliveries) are counted once.
func selfTimes(recs []spanRec) map[uint64]int64 {
	kids := map[uint64][]spanRec{}
	for _, r := range recs {
		if r.Parent != 0 {
			kids[r.Parent] = append(kids[r.Parent], r)
		}
	}
	out := make(map[uint64]int64, len(recs))
	for _, r := range recs {
		cs := kids[r.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		lo, hi := int64(-1), int64(-1) // current merged run of child coverage
		for _, c := range cs {
			s, e := max(c.Start, r.Start), min(c.End, r.End)
			if e <= s {
				continue
			}
			if s > hi {
				covered += hi - lo
				lo, hi = s, e
			} else if e > hi {
				hi = e
			}
		}
		covered += hi - lo
		out[r.ID] = r.dur() - covered
	}
	return out
}

// selfSum is the summed self time of the spans called name, in ns.
func (l *spanLog) selfSum(name string) float64 {
	l.mu.Lock()
	self := selfTimes(l.recs)
	l.mu.Unlock()
	var sum float64
	for _, r := range l.named(name) {
		sum += float64(self[r.ID])
	}
	return sum
}

// durationsMs returns the durations of the spans called name, in ms.
func (l *spanLog) durationsMs(name string) []float64 {
	var out []float64
	for _, r := range l.named(name) {
		out = append(out, float64(r.dur())/1e6)
	}
	return out
}

// write saves the spans as one JSON array.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.recs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
