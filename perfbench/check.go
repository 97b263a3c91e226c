package main

import (
	"fmt"
	"strconv"
	"strings"

	"btrace/internal/workload"
)

// row is one /store/query CSV row.
type row struct {
	stamp, ts   uint64
	core, level uint8
	tid         uint32
	category    string
	payloadLen  int
}

// parseCSV parses a /store/query?format=csv body.
func parseCSV(body []byte) ([]row, error) {
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "stamp,") {
		return nil, fmt.Errorf("unexpected CSV header %q", lines[0])
	}
	rows := make([]row, 0, len(lines)-1)
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) != 7 {
			return nil, fmt.Errorf("bad CSV row %q", line)
		}
		var (
			r    row
			errs [6]error
			u    uint64
		)
		r.stamp, errs[0] = strconv.ParseUint(f[0], 10, 64)
		r.ts, errs[1] = strconv.ParseUint(f[1], 10, 64)
		u, errs[2] = strconv.ParseUint(f[2], 10, 8)
		r.core = uint8(u)
		u, errs[3] = strconv.ParseUint(f[3], 10, 32)
		r.tid = uint32(u)
		r.category = f[4]
		u, errs[4] = strconv.ParseUint(f[5], 10, 8)
		r.level = uint8(u)
		r.payloadLen, errs[5] = strconv.Atoi(f[6])
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("bad CSV row %q: %v", line, err)
			}
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// checkStamps reports whether got is exactly want: every stamp once, in
// order. The error names the first dropped, duplicated or misordered
// stamp.
func checkStamps(want, got []uint64) error {
	seen := make(map[uint64]int, len(got))
	for i, s := range got {
		if i > 0 && s <= got[i-1] {
			if s == got[i-1] {
				return fmt.Errorf("stamp %d duplicated", s)
			}
			return fmt.Errorf("stamp %d after %d: misordered", s, got[i-1])
		}
		seen[s]++
	}
	for _, s := range want {
		if seen[s] == 0 {
			return fmt.Errorf("stamp %d dropped (%d of %d returned)", s, len(got), len(want))
		}
		delete(seen, s)
	}
	for s := range seen {
		return fmt.Errorf("stamp %d returned but never written", s)
	}
	return nil
}

// checkRows holds a readback to the closed-form shape: exactly the
// wanted stamps in order, each with the fields the rule gives it.
func checkRows(sh shape, want []uint64, rows []row) error {
	got := make([]uint64, len(rows))
	for i, r := range rows {
		got[i] = r.stamp
	}
	if err := checkStamps(want, got); err != nil {
		return err
	}
	for _, r := range rows {
		s := r.stamp
		if r.ts != s*tsPerStamp || r.tid != sh.tid(s) || r.core != sh.core(s) ||
			r.category != categoryName(sh.category(s)) ||
			r.level != sh.level(s) || r.payloadLen != sh.payloadLen(s) {
			return fmt.Errorf("stamp %d read back as %+v", s, r)
		}
	}
	return nil
}

// checkCount holds a count aggregate to the independently known count.
func checkCount(what string, want, got uint64) error {
	if got != want {
		return fmt.Errorf("%s: count() = %d, want %d", what, got, want)
	}
	return nil
}

// stampRange returns lo..hi.
func stampRange(lo, hi uint64) []uint64 {
	out := make([]uint64, 0, hi-lo+1)
	for s := lo; s <= hi; s++ {
		out = append(out, s)
	}
	return out
}

// categoryName is the CSV spelling of category c.
func categoryName(c uint8) string { return workload.Category(c).Name() }
