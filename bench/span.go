package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Times are nanoseconds since the tracer's epoch (shared with the
// meter, so spans and slices are on one clock).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 at the top of a slice
	Name   string `json:"name"`
	Slice  int    `json:"slice"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so code shared by the traced and untraced paths can call do
// unconditionally.
type tracer struct {
	epoch time.Time
	slice int
	spans []span
	stack []int
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// do runs fn inside a span named name, child of the innermost open span.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Slice: t.slice})
	t.stack = append(t.stack, id)
	start := int64(time.Since(t.epoch))
	fn()
	end := int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].Start, t.spans[id].End = start, end
}

// doErr is do for calls that can fail.
func (t *tracer) doErr(name string, fn func() error) error {
	var err error
	t.do(name, func() { err = fn() })
	return err
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children are not
// counted twice).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		c := kids[s.ID]
		sort.Slice(c, func(a, b int) bool { return spans[c[a]].Start < spans[c[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range c {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerRow is one line of the per-layer table written beside the spans.
type layerRow struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"total_cms"`    // inclusive, calibrated ms
	SelfMs  float64 `json:"self_cms"`     // exclusive, calibrated ms
	RawMs   float64 `json:"total_raw_ms"` // inclusive, raw ms
}

// layerTable folds spans by name into inclusive and self calibrated
// milliseconds; factor maps a slice id to its calibration factor.
func layerTable(spans []span, factor func(slice int) float64) []layerRow {
	self := selfTimes(spans)
	byName := map[string]*layerRow{}
	var order []string
	for i, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			byName[s.Name] = r
			order = append(order, s.Name)
		}
		f := factor(s.Slice)
		r.Calls++
		r.RawMs += float64(s.End-s.Start) / 1e6
		r.TotalMs += float64(s.End-s.Start) / 1e6 * f
		r.SelfMs += float64(self[i]) / 1e6 * f
	}
	sort.Strings(order)
	out := make([]layerRow, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}
