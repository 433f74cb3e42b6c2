package ixp

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"shangrila/internal/cg"
)

// decodedTrace mirrors the trace_event JSON Object Format envelope with
// events kept generic so the test validates the actual wire fields.
type decodedTrace struct {
	TraceEvents     []map[string]any `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	OtherData       map[string]any   `json:"otherData"`
}

// TestChromeTraceFormat runs a traced forwarding loop, exports it, and
// validates the document against the trace_event format: a traceEvents
// array whose records carry name/ph/ts/pid/tid, duration events with
// non-negative dur, instants with a scope, and naming metadata for every
// thread track that appears.
func TestChromeTraceFormat(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RingSlots = 64
	m, err := New(cfg, WithMedia(&FixedDescMedia{}))
	if err != nil {
		t.Fatal(err)
	}
	ct := NewChromeTracer(cfg.ClockMHz)
	m.Observer().SetTracer(ct)
	m.GrowRing(cg.RingFree, 128)
	for i := 0; i < 100; i++ {
		m.Rings[cg.RingFree].Put(uint32(i), 64<<16|128)
	}
	mustLoad(t, m, 0, loopProg())
	if err := m.Run(50_000); err != nil {
		t.Fatal(err)
	}
	if ct.Len() == 0 || ct.Dropped() != 0 {
		t.Fatalf("recorded %d events, dropped %d", ct.Len(), ct.Dropped())
	}

	var buf bytes.Buffer
	if err := ct.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}

	phases := map[string]int{}
	namedTids := map[float64]bool{}
	seenTids := map[float64]bool{}
	for i, ev := range doc.TraceEvents {
		name, _ := ev["name"].(string)
		ph, _ := ev["ph"].(string)
		if name == "" || ph == "" {
			t.Fatalf("event %d missing name/ph: %v", i, ev)
		}
		phases[ph]++
		switch ph {
		case "M": // metadata: no timestamp required
			if name == "thread_name" {
				namedTids[ev["tid"].(float64)] = true
			}
			continue
		case "X", "i", "C":
		default:
			t.Fatalf("event %d has unknown phase %q", i, ph)
		}
		ts, ok := ev["ts"].(float64)
		if !ok || ts < 0 || math.IsNaN(ts) || math.IsInf(ts, 0) {
			t.Fatalf("event %d has bad ts %v", i, ev["ts"])
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %d missing pid", i)
		}
		tid, ok := ev["tid"].(float64)
		if !ok {
			t.Fatalf("event %d missing tid", i)
		}
		seenTids[tid] = true
		if ph == "X" {
			if dur, ok := ev["dur"].(float64); ok && dur < 0 {
				t.Fatalf("event %d negative dur %v", i, dur)
			}
		}
		if ph == "i" {
			if s, _ := ev["s"].(string); s == "" {
				t.Fatalf("instant %d missing scope", i)
			}
		}
	}
	// The run exercised every event kind.
	for _, ph := range []string{"X", "i", "C", "M"} {
		if phases[ph] == 0 {
			t.Errorf("no %q events in trace (phases: %v)", ph, phases)
		}
	}
	// Every thread track (counter track 0 excepted) is named for viewers.
	for tid := range seenTids {
		if tid != counterTid && !namedTids[tid] {
			t.Errorf("tid %v has events but no thread_name metadata", tid)
		}
	}
	if doc.OtherData["clock_mhz"].(float64) != cfg.ClockMHz {
		t.Errorf("otherData clock_mhz = %v, want %v", doc.OtherData["clock_mhz"], cfg.ClockMHz)
	}
}

// TestChromeTraceDeterministicAndBounded: identical runs export identical
// bytes, and the event cap drops the excess instead of growing without
// bound.
func TestChromeTraceDeterministic(t *testing.T) {
	export := func() []byte {
		cfg := DefaultConfig()
		cfg.RingSlots = 64
		m, err := New(cfg, WithMedia(&FixedDescMedia{}))
		if err != nil {
			t.Fatal(err)
		}
		ct := NewChromeTracer(cfg.ClockMHz)
		m.Observer().SetTracer(ct)
		m.GrowRing(cg.RingFree, 128)
		for i := 0; i < 100; i++ {
			m.Rings[cg.RingFree].Put(uint32(i), 64<<16|128)
		}
		mustLoad(t, m, 0, loopProg())
		if err := m.Run(30_000); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ct.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Error("identical runs produced different trace bytes")
	}
}

func TestChromeTraceLimit(t *testing.T) {
	ct := NewChromeTracer(600)
	ct.Limit = 8
	for i := 0; i < 20; i++ {
		ct.ThreadRun(int64(i*10), 0, 0, 5, YieldCtx)
	}
	if ct.Len() != 8 {
		t.Errorf("recorded %d events, want the cap 8", ct.Len())
	}
	if ct.Dropped() != 12 {
		t.Errorf("dropped %d, want 12", ct.Dropped())
	}
	var buf bytes.Buffer
	if err := ct.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.OtherData["dropped"].(float64) != 12 {
		t.Errorf("otherData dropped = %v, want 12", doc.OtherData["dropped"])
	}
}
