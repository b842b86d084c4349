package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Span names. Each is recorded by this package around one call into a
// layer; the layer column of the self-time table comes from spanLayer.
const (
	spanRep = iota
	spanSetup
	spanTopology
	spanWorkloadSetup
	spanBuildFrame
	spanMarshal
	spanRun
	spanRunUntil
	spanOnSend
	spanKVReceive
	spanAFU
	spanRxCB
	spanSnapshot
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanRep:           "rep",
	spanSetup:         "setup",
	spanTopology:      "topology",
	spanWorkloadSetup: "workload.setup",
	spanBuildFrame:    "tcp.BuildFrame",
	spanMarshal:       "rpc.Frame.Marshal",
	spanRun:           "run",
	spanRunUntil:      "sim.RunUntil",
	spanOnSend:        "workload.OnSend",
	spanKVReceive:     "kv.AFU.Receive",
	spanAFU:           "fld.handler",
	spanRxCB:          "swdriver.OnReceive",
	spanSnapshot:      "telemetry.Snapshot+Hash",
}

var spanLayer = [numSpanNames]string{
	spanRep:           "bench",
	spanSetup:         "bench",
	spanTopology:      "facade",
	spanWorkloadSetup: "workload",
	spanBuildFrame:    "tcp",
	spanMarshal:       "rpc",
	spanRun:           "bench",
	spanRunUntil:      "sim+engine-driven",
	spanOnSend:        "workload",
	spanKVReceive:     "accel/kv",
	spanAFU:           "fld",
	spanRxCB:          "swdriver",
	spanSnapshot:      "telemetry",
}

// span is one recorded interval, in nanoseconds since the tracer's
// epoch; parent indexes the enclosing span (-1 for a root).
type span struct {
	name       uint8
	parent     int32
	start, end int64
}

// tracer records spans in memory until the process exits. All
// workloads run on the sequential schedule, so one open-span stack
// gives every span its parent. A nil *tracer records nothing: the
// untraced runs pay one nil check per hook.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name uint8) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its direct children cover. Children are unioned
// and clipped to the parent, so overlapping or escaping spans show up
// as a sum that no longer matches the root's duration.
func (t *tracer) selfTimes() []int64 {
	children := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		var covered int64
		cur := s.start
		for _, c := range children[i] { // appended in start order
			lo, hi := max(t.spans[c].start, cur), min(t.spans[c].end, s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerRow aggregates one span name over the traced reps.
type layerRow struct {
	calls      int64
	incl, self int64
}

func (r *layerRow) add(o layerRow) {
	r.calls += o.calls
	r.incl += o.incl
	r.self += o.self
}

// addSubtree adds the spans of root's subtree to rows, per span name,
// and returns the subtree's summed self time. Spans are recorded in
// start order, so a parent always precedes its children.
func (t *tracer) addSubtree(root int32, self []int64, rows *[numSpanNames]layerRow) int64 {
	in := make([]bool, len(t.spans))
	var total int64
	for i := int(root); i < len(t.spans); i++ {
		s := t.spans[i]
		if i != int(root) && (s.parent < 0 || !in[s.parent]) {
			continue
		}
		in[i] = true
		r := &rows[s.name]
		r.calls++
		r.incl += s.end - s.start
		r.self += self[i]
		total += self[i]
	}
	return total
}

func printLayerTable(w io.Writer, title string, rows *[numSpanNames]layerRow) {
	var total int64
	for _, r := range rows {
		total += r.self
	}
	fmt.Fprintf(w, "%s (self times sum to %.6f s)\n", title, float64(total)/1e9)
	fmt.Fprintf(w, "  %-24s %-18s %10s %12s %12s %7s\n", "span", "layer", "calls", "incl s", "self s", "self %")
	var order []int
	for i, r := range rows {
		if r.calls > 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return rows[order[a]].self > rows[order[b]].self })
	for _, i := range order {
		r := rows[i]
		fmt.Fprintf(w, "  %-24s %-18s %10d %12.6f %12.6f %6.2f%%\n", spanNames[i], spanLayer[i],
			r.calls, float64(r.incl)/1e9, float64(r.self)/1e9, 100*float64(r.self)/float64(total))
	}
}
