package main

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"btrace/internal/analysis"
)

func TestPercentilesMedianOnlyBelowFortySamples(t *testing.T) {
	xs := make([]float64, minTailSamples-1)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p50, p99, ok := percentiles(xs)
	if ok || !math.IsNaN(p99) {
		t.Fatalf("%d samples: p99 %v reported (ok=%v), want median only", len(xs), p99, ok)
	}
	if p50 != 20 {
		t.Fatalf("median of 1..39 = %v, want 20", p50)
	}
	xs = append(xs, 40)
	if _, p99, ok = percentiles(xs); !ok || p99 < 39 || p99 > 40 {
		t.Fatalf("40 samples: p99 = %v ok=%v, want in [39, 40]", p99, ok)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestSelfTimesSubtractChildCoverageOnce(t *testing.T) {
	recs := []spanRec{
		{Name: "root", ID: 1, Start: 0, End: 100},
		{Name: "kid", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "kid", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2
		{Name: "kid", ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the root
		{Name: "grandkid", ID: 5, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(recs)
	want := map[uint64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
}

func TestCheckStampsRejectsDoctoredReadback(t *testing.T) {
	want := []uint64{5, 6, 7, 8}
	if err := checkStamps(want, []uint64{5, 6, 7, 8}); err != nil {
		t.Fatalf("exact readback rejected: %v", err)
	}
	for name, got := range map[string][]uint64{
		"dropped":    {5, 6, 8},
		"duplicated": {5, 6, 6, 7, 8},
		"misordered": {5, 7, 6, 8},
		"foreign":    {5, 6, 7, 8, 9},
	} {
		err := checkStamps(want, got)
		if err == nil {
			t.Errorf("%s readback %v accepted", name, got)
			continue
		}
		if name != "foreign" && !strings.Contains(err.Error(), name) {
			t.Errorf("%s readback: error %q does not say %s", name, err, name)
		}
	}
}

func TestCheckCountRejectsWrongCount(t *testing.T) {
	if err := checkCount("run", 10, 10); err != nil {
		t.Fatal(err)
	}
	if checkCount("run", 10, 9) == nil || checkCount("run", 10, 11) == nil {
		t.Fatal("wrong count accepted")
	}
}

func TestCheckRowsHoldsFieldsToTheShape(t *testing.T) {
	sh := shape{42}
	var rows []row
	for s := uint64(100); s < 104; s++ {
		rows = append(rows, row{stamp: s, ts: s * tsPerStamp, core: sh.core(s), tid: sh.tid(s),
			category: categoryName(sh.category(s)), level: sh.level(s), payloadLen: sh.payloadLen(s)})
	}
	if err := checkRows(sh, stampRange(100, 103), rows); err != nil {
		t.Fatalf("exact rows rejected: %v", err)
	}
	rows[2].tid++
	if checkRows(sh, stampRange(100, 103), rows) == nil {
		t.Fatal("row with a wrong TID accepted")
	}
	if checkRows(sh, stampRange(100, 104), rows[:2]) == nil {
		t.Fatal("short readback accepted")
	}
}

func TestCheckRetentionRejectsDoctoredReadout(t *testing.T) {
	truth := []uint32{100, 100, 100, 100}
	ok := []uint64{2, 3, 4}
	ret, err := analysis.Analyze(truth, ok, 300)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRetention(truth, ok, 300, ret); err != nil {
		t.Fatalf("valid readout rejected: %v", err)
	}
	for name, got := range map[string][]uint64{
		"duplicated":   {2, 3, 3},
		"misordered":   {3, 2, 4},
		"out of range": {2, 3, 5},
	} {
		if checkRetention(truth, got, 300, ret) == nil {
			t.Errorf("%s readout %v accepted", name, got)
		}
	}
	if checkRetention(truth, ok, 200, ret) == nil {
		t.Error("readout larger than the buffer accepted")
	}
	big := ret
	big.LatestFragmentBytes = 400
	if checkRetention(truth, ok, 300, big) == nil {
		t.Error("latest fragment larger than the readout accepted")
	}
}

func TestParseCSVRoundTrip(t *testing.T) {
	body := "stamp,ts_ns,core,tid,category,level,payload_bytes\n7,7000,3,1001,sched,2,16\n"
	rows, err := parseCSV([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	want := row{stamp: 7, ts: 7000, core: 3, tid: 1001, category: "sched", level: 2, payloadLen: 16}
	if len(rows) != 1 || rows[0] != want {
		t.Fatalf("rows = %+v, want [%+v]", rows, want)
	}
	if _, err := parseCSV([]byte("nope\n")); err == nil {
		t.Fatal("bad header accepted")
	}
}

func TestStratifiedPutsOneQueryInEachStratum(t *testing.T) {
	const rounds, span = 20, 1_000_000
	n := 0 // btql queries in a run
	for _, k := range queryKinds {
		if k == "btql" {
			n += rounds
		}
	}
	pick := stratified(rand.New(rand.NewPCG(1, 2)), rounds)
	seen := make([]int, n)
	for i := 0; i < n; i++ {
		p := pick("btql", span)
		if p >= span {
			t.Fatalf("position %d outside [0, %d)", p, span)
		}
		seen[p*uint64(n)/span]++
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("stratum %d holds %d positions, want 1", i, c)
		}
	}
}
