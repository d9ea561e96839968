package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// Tracing lives in the harness, never in internal/: a span per transaction
// and a child span around each call into the top layer's exported functions.
// Spans stay in memory during the window and are written out afterwards.

type spanName uint8

const (
	spTxn spanName = iota
	spGet
	spScan
	spPut
	spCommit
	spParse
	spSelect
	spUpdate
	spInsert
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spTxn:    "txn",
	spGet:    "engine.get",
	spScan:   "engine.scan",
	spPut:    "engine.put",
	spCommit: "engine.commit",
	spParse:  "sqlengine.parse",
	spSelect: "sqlengine.select",
	spUpdate: "sqlengine.update",
	spInsert: "sqlengine.insert",
}

// noSpan is the index begin returns when tracing is off.
const noSpan = -1

// span is one timed interval. parent indexes the same recorder's slice
// (noSpan for a transaction's root); start and end are nanoseconds since
// the recorder's base.
type span struct {
	parent     int32
	txn        uint32
	name       spanName
	start, end int64
}

// recorder holds one client's spans; it is used by that client's goroutine
// only. A nil recorder records nothing, so the untraced run pays one nil
// check per call.
type recorder struct {
	client int
	base   time.Time
	spans  []span
}

func newRecorder(client int, base time.Time, capacity int) *recorder {
	return &recorder{client: client, base: base, spans: make([]span, 0, capacity)}
}

func (r *recorder) begin(name spanName, parent int, txn int) int {
	if r == nil {
		return noSpan
	}
	r.spans = append(r.spans, span{parent: int32(parent), txn: uint32(txn), name: name,
		start: int64(time.Since(r.base))})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	r.spans[i].end = int64(time.Since(r.base))
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover (overlapping children are counted
// once).
func selfTimes(spans []span) []int64 {
	// Visit children in start order so each parent's covered interval can
	// be extended with a single high-water mark. A recorder appends in
	// start order already; the sort only runs for hand-built input.
	order := make([]int32, len(spans))
	for i := range order {
		order[i] = int32(i)
	}
	byStart := func(a, b int) bool { return spans[order[a]].start < spans[order[b]].start }
	if !sort.SliceIsSorted(order, byStart) {
		sort.SliceStable(order, byStart)
	}
	self := make([]int64, len(spans))
	reach := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		reach[i] = s.start
	}
	for _, i := range order {
		p := spans[i].parent
		if p == noSpan {
			continue
		}
		lo, hi := spans[i].start, spans[i].end
		if lo < reach[p] {
			lo = reach[p]
		}
		if hi > spans[p].end {
			hi = spans[p].end
		}
		if hi > lo {
			self[p] -= hi - lo
			reach[p] = hi
		}
	}
	return self
}

// durations collects every span's duration, by span name.
func durations(recs []*recorder) (out [numSpanNames]latencies) {
	for _, r := range recs {
		for _, s := range r.spans {
			out[s.name] = append(out[s.name], s.end-s.start)
		}
	}
	return out
}

// writeTrace writes every span as one JSON object per line: name, start and
// end (ns since the window opened), id, parent id, client and txn number.
// Span ids are unique within a client.
func writeTrace(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, r := range recs {
		for i, s := range r.spans {
			line = append(line[:0], `{"name":"`...)
			line = append(line, spanNames[s.name]...)
			line = append(line, `","client":`...)
			line = strconv.AppendInt(line, int64(r.client), 10)
			line = append(line, `,"txn":`...)
			line = strconv.AppendInt(line, int64(s.txn), 10)
			line = append(line, `,"id":`...)
			line = strconv.AppendInt(line, int64(i), 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendInt(line, int64(s.parent), 10)
			line = append(line, `,"start_ns":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, "}\n"...)
			if _, err := w.Write(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
