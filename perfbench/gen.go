package main

import (
	"fmt"

	"btrace/internal/tracer"
)

// Event shape shared by every server workload. Each field of the event
// with stamp s is a closed-form function of (seed, s), so the checks can
// derive what any stamp must read back as without keeping the events.
const (
	shapeTIDs       = 256  // writer threads, TIDs tidBase..tidBase+255
	tidBase         = 1000 // first writer TID
	probeTID        = 900  // probe batches (ingest prober, query-cold writer)
	shapeCategories = 8    // categories 0..7
	shapeCores      = 4    // cores 0..3
	minPayload      = 8    // payload bytes, uniform in [minPayload, maxPayload]
	maxPayload      = 40
	tsPerStamp      = 1000 // virtual ns between consecutive stamps
)

// mix is splitmix64's finalizer: a bijective 64-bit hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shape is the closed-form rule for one seed.
type shape struct{ seed uint64 }

func (sh shape) h(s uint64) uint64 { return mix(sh.seed*0x2545f4914f6cdd1d ^ s) }

// tid, category, core, level and payloadLen give the fields of the
// writer event with stamp s.
func (sh shape) tid(s uint64) uint32     { return tidBase + uint32(sh.h(s)%shapeTIDs) }
func (sh shape) category(s uint64) uint8 { return uint8(sh.h(s) >> 8 % shapeCategories) }
func (sh shape) core(s uint64) uint8     { return uint8(sh.h(s) >> 16 % shapeCores) }
func (sh shape) level(s uint64) uint8    { return 1 + uint8(sh.h(s)>>24%3) }
func (sh shape) payloadLen(s uint64) int {
	return minPayload + int(sh.h(s)>>32%(maxPayload-minPayload+1))
}

// entry builds the writer event with stamp s; payload is scratch space
// of at least maxPayload bytes the entry borrows.
func (sh shape) entry(s uint64, payload []byte) tracer.Entry {
	p := payload[:sh.payloadLen(s)]
	for i := range p {
		p[i] = byte(s >> (8 * (i % 8)))
	}
	return tracer.Entry{
		Stamp: s, TS: s * tsPerStamp, Core: sh.core(s), TID: sh.tid(s),
		Category: sh.category(s), Level: sh.level(s), Payload: p,
	}
}

// probeEntry builds a probe event: fixed TID and the last category.
func probeEntry(s uint64, payload []byte) tracer.Entry {
	p := payload[:minPayload]
	for i := range p {
		p[i] = byte(s >> (8 * i))
	}
	return tracer.Entry{
		Stamp: s, TS: s * tsPerStamp, Core: uint8(s % shapeCores), TID: probeTID,
		Category: shapeCategories - 1, Level: 1, Payload: p,
	}
}

// encoder appends wire records for POST /ingest bodies.
type encoder struct {
	buf     []byte
	payload []byte
}

func newEncoder() *encoder { return &encoder{payload: make([]byte, maxPayload)} }

// batch encodes stamps lo..hi built by gen and returns the body (valid
// until the next call).
func (enc *encoder) batch(lo, hi uint64, gen func(uint64, []byte) tracer.Entry) []byte {
	enc.buf = enc.buf[:0]
	for s := lo; s <= hi; s++ {
		e := gen(s, enc.payload)
		enc.buf = appendRecord(enc.buf, &e)
	}
	return enc.buf
}

// appendRecord appends e's wire record to buf.
func appendRecord(buf []byte, e *tracer.Entry) []byte {
	n := e.WireSize()
	off := len(buf)
	buf = append(buf, make([]byte, n)...)
	if _, err := tracer.EncodeEvent(buf[off:off+n], e); err != nil {
		panic(fmt.Sprintf("encode stamp %d: %v", e.Stamp, err))
	}
	return buf
}
