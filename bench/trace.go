package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// epoch anchors every timestamp of a run; now is nanoseconds since it,
// on the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one call the benchmark made into a layer. Spans of one
// request share Req; Parent is the ID of the span that caused this one
// (0 for a request's root). IDs are buffer positions plus one.
type span struct {
	Name       string
	Start, End int64
	Req        uint64
	Parent     int32
}

// sample is one reading of a program counter during a traced interval.
type sample struct {
	Name  string
	At    int64
	Value float64
}

// tracer keeps spans in a buffer allocated before the traced interval
// and writes nothing until it has ended. When the buffer fills, later
// spans are counted as dropped rather than grown into.
type tracer struct {
	spans    []span
	n        atomic.Int64
	every    uint64   // one request in every is traced
	readings []sample // written by the one sampler goroutine
}

// newTracer allocates room for capacity spans. One request in every
// is traced, evenly over the interval, so that a loop of a hundred
// thousand requests a second fits without losing the interval's end.
func newTracer(capacity int, every uint64) *tracer {
	return &tracer{spans: make([]span, capacity), every: every}
}

// samples reports whether request number req is one to trace. A nil
// tracer traces nothing.
func (t *tracer) samples(req uint64) bool { return t != nil && req%t.every == 0 }

// reserve claims a span ID to be filled in later by set: a root span is
// reserved at issue, so that its children can name it, and set at
// completion. It returns 0 when the buffer is full.
func (t *tracer) reserve() int32 {
	i := t.n.Add(1)
	if i > int64(len(t.spans)) {
		return 0
	}
	return int32(i)
}

func (t *tracer) set(id int32, s span) {
	if id > 0 {
		t.spans[id-1] = s
	}
}

func (t *tracer) add(s span) { t.set(t.reserve(), s) }

// recorded returns the filled part of the buffer and the number of
// spans that did not fit.
func (t *tracer) recorded() ([]span, int64) {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		return t.spans, n - int64(len(t.spans))
	}
	return t.spans[:n], 0
}

// write stores the spans and samples as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	spans, _ := t.recorded()
	var buf []byte
	for i, s := range spans {
		if s.Name == "" {
			continue // reserved by a request that never completed
		}
		buf = append(buf[:0], `{"id":`...)
		buf = strconv.AppendInt(buf, int64(i+1), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.Parent), 10)
		buf = append(buf, `,"req":`...)
		buf = strconv.AppendUint(buf, s.Req, 10)
		buf = append(buf, `,"name":"`...)
		buf = append(buf, s.Name...)
		buf = append(buf, `","start_ns":`...)
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.End, 10)
		buf = append(buf, "}\n"...)
		w.Write(buf)
	}
	for _, s := range t.readings {
		fmt.Fprintf(w, `{"sample":%q,"at_ns":%d,"value":%g}`+"\n", s.Name, s.At, s.Value)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceLine is one line of a trace file: a span or a counter sample.
type traceLine struct {
	ID      int32   `json:"id"`
	Parent  int32   `json:"parent"`
	Req     uint64  `json:"req"`
	Name    string  `json:"name"`
	StartNs int64   `json:"start_ns"`
	EndNs   int64   `json:"end_ns"`
	Sample  string  `json:"sample"`
	Value   float64 `json:"value"`
}

// layerTime is what one span name cost over a trace. Self is the span's
// duration minus the durations of the spans it caused.
type layerTime struct {
	Name            string
	Count           int
	TotalNs, SelfNs int64
	P50Ns, SelfP50  int64
}

// selfTimes folds spans into per-name totals. IDs are positions in
// spans plus one, as the tracer assigns them.
func selfTimes(spans []span) []layerTime {
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Name != "" && s.Parent > 0 && int(s.Parent) <= len(spans) {
			children[s.Parent-1] += s.End - s.Start
		}
	}
	type acc struct{ dur, self []int64 }
	byName := map[string]*acc{}
	for i, s := range spans {
		if s.Name == "" {
			continue
		}
		a := byName[s.Name]
		if a == nil {
			a = &acc{}
			byName[s.Name] = a
		}
		d := s.End - s.Start
		a.dur = append(a.dur, d)
		a.self = append(a.self, d-children[i])
	}
	out := make([]layerTime, 0, len(byName))
	for name, a := range byName {
		lt := layerTime{Name: name, Count: len(a.dur)}
		for i := range a.dur {
			lt.TotalNs += a.dur[i]
			lt.SelfNs += a.self[i]
		}
		lt.P50Ns = percentile(a.dur, 50)
		lt.SelfP50 = percentile(a.self, 50)
		out = append(out, lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// summarize prints the self time per layer of a trace file, so that a
// later change can attribute a delta without reading the benchmark.
func summarize(path string, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var l traceLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if l.Sample != "" || l.ID <= 0 {
			continue
		}
		for int(l.ID) > len(spans) {
			spans = append(spans, span{})
		}
		spans[l.ID-1] = span{Name: l.Name, Start: l.StartNs, End: l.EndNs, Req: l.Req, Parent: l.Parent}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Fprintf(out, "%-32s %10s %12s %12s %12s %12s\n", "span", "count", "p50_us", "self_p50_us", "total_ms", "self_ms")
	for _, lt := range selfTimes(spans) {
		fmt.Fprintf(out, "%-32s %10d %12.2f %12.2f %12.1f %12.1f\n", lt.Name, lt.Count,
			float64(lt.P50Ns)/1e3, float64(lt.SelfP50)/1e3, float64(lt.TotalNs)/1e6, float64(lt.SelfNs)/1e6)
	}
	return nil
}
