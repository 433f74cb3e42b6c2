// Package metrics provides the lightweight instrumentation substrate for
// the evaluation engine: named counters, gauges, histograms and
// time-series sampled on simulator cycles. The IXP model records per-ME
// utilization, per-controller saturation and per-ring occupancy through a
// Registry; the harness reads a Snapshot of it into its reports.
//
// Instruments are goroutine-safe: the sweep runner measures many machine
// instances concurrently, and each machine owns a private Registry, but
// nothing prevents a shared registry (e.g. a fleet-wide one) from being
// updated from several goroutines.
package metrics

import (
	"sync"
	"sync/atomic"
)

// Sample is one point of a time-series: simulator cycle and value.
type Sample struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time float metric (latest value wins).
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the last recorded value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Series is a time-series that keeps every sample appended to it.
type Series struct {
	mu      sync.Mutex
	samples []Sample
}

// Append records v at cycle t.
func (s *Series) Append(t int64, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = append(s.samples, Sample{T: t, V: v})
}

// Samples returns a copy of the samples in append order.
func (s *Series) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.samples...)
}

// Registry holds named instruments. Instruments are created on first use
// and identified by a typed Key (see keys.go); lookups are get-or-create.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	series     map[string]*Series
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		series:     map[string]*Series{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name Key) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[string(name)]
	if !ok {
		c = &Counter{}
		r.counters[string(name)] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name Key) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[string(name)]
	if !ok {
		g = &Gauge{}
		r.gauges[string(name)] = g
	}
	return g
}

// Series returns the named series, creating it if needed.
func (r *Registry) Series(name Key) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[string(name)]
	if !ok {
		s = &Series{}
		r.series[string(name)] = s
	}
	return s
}

// Snapshot is an immutable copy of a registry's contents.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Series     map[string][]Sample          `json:"series,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot deep-copies the registry. The result is detached: later updates
// to the registry do not affect it.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{}
	if len(r.counters) > 0 {
		snap.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			snap.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(r.gauges))
		for n, g := range r.gauges {
			snap.Gauges[n] = g.Value()
		}
	}
	if len(r.series) > 0 {
		snap.Series = make(map[string][]Sample, len(r.series))
		for n, s := range r.series {
			snap.Series[n] = s.Samples()
		}
	}
	if len(r.histograms) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for n, h := range r.histograms {
			snap.Histograms[n] = h.Snapshot()
		}
	}
	return snap
}
