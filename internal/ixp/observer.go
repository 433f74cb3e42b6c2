package ixp

import "shangrila/internal/metrics"

// Observer is the machine's observability surface: the packet-accounting
// hooks media implementations and the runtime call, the accessors the
// harness reads (latency, ring occupancy, telemetry registry, ME labels)
// and tracer attachment. Everything an outside component may observe or
// account goes through this one type. An Observer is a cheap value (one
// pointer); take it fresh from Machine.Observer whenever needed.
type Observer struct {
	m *Machine
}

// Observer returns the machine's observability surface.
func (m *Machine) Observer() Observer { return Observer{m} }

// ---------------------------------------------------------------------------
// Accounting hooks (media / runtime → machine)

// RxPacket counts one received packet of frameBytes and stamps its buffer
// id with the current cycle, opening a latency sample that closes when the
// id reaches the Tx ring (or is cancelled when the buffer is recycled
// without transmission). Media implementations call it from Inject for
// every packet they enqueue.
func (o Observer) RxPacket(id uint32, frameBytes int) {
	m := o.m
	m.stats.RxPackets++
	m.stats.RxBits += uint64(frameBytes * 8)
	m.rxStamp[id] = m.now
	if m.tracer != nil {
		m.tracer.Rx(m.now, id, frameBytes, false)
	}
}

// RxDrop counts one saturation loss of frameBytes at the Rx ring (called
// by Media.Inject when the ring is full or buffers ran out). The dropped
// bits still count toward offered load.
func (o Observer) RxDrop(frameBytes int) {
	m := o.m
	m.stats.RxDropped++
	m.stats.RxDroppedBits += uint64(frameBytes * 8)
	if m.tracer != nil {
		m.tracer.Rx(m.now, 0, frameBytes, true)
	}
}

// PacketFreed counts one dropped-or-recycled packet returned to the free
// list outside ME ring operations (XScale drops, hook recycling) and
// cancels its pending latency sample.
func (o Observer) PacketFreed(id uint32) {
	m := o.m
	m.stats.FreedPackets++
	delete(m.rxStamp, id)
}

// Fault records a machine check that host-side code found in what ME code
// wrote, such as a ring descriptor naming no packet buffer: Run stops and
// returns the first error, as for a memory access out of range.
func (o Observer) Fault(err error) {
	if o.m.err == nil {
		o.m.err = err
	}
}

// SetMELabel names ME i's program (the runtime loader passes the
// aggregate's PPF names) so stall breakdowns and traces can say which
// pipeline stage an engine runs.
func (o Observer) SetMELabel(i int, label string) {
	m := o.m
	for len(m.meLabels) <= i {
		m.meLabels = append(m.meLabels, "")
	}
	m.meLabels[i] = label
}

// ---------------------------------------------------------------------------
// Accessors (machine → harness)

// Latency summarizes the Rx→Tx latency (in core cycles) of every packet
// transmitted since the last stats reset.
func (o Observer) Latency() metrics.HistogramSnapshot { return o.m.lat.Snapshot() }

// MergeLatencyInto folds the machine's Rx→Tx latency histogram (every
// sample since the last stats reset) into dst, preserving exact bucket
// counts — the cluster harness aggregates per-chip distributions into
// one line-card tail this way.
func (o Observer) MergeLatencyInto(dst *metrics.Histogram) { dst.Merge(o.m.lat) }

// RingMaxOcc returns each ring's high-water occupancy since the last stats
// reset, indexed by ring number.
func (o Observer) RingMaxOcc() []int {
	out := make([]int, len(o.m.Rings))
	for i, r := range o.m.Rings {
		out[i] = r.MaxOcc()
	}
	return out
}

// Metrics returns the machine's own telemetry registry. Time-series are
// only populated when Cfg.SampleInterval is positive.
func (o Observer) Metrics() *metrics.Registry { return o.m.reg }

// MELabels returns the per-ME program labels (indexes past the last
// SetMELabel call are empty).
func (o Observer) MELabels() []string {
	out := make([]string, o.m.Cfg.NumMEs)
	copy(out, o.m.meLabels)
	return out
}

// InFlight returns the number of accepted packets whose buffers have
// neither been transmitted nor freed — the population conservation tests
// balance against: RxPackets + inFlight(start) = TxPackets + FreedPackets
// + inFlight(end).
func (o Observer) InFlight() int { return len(o.m.rxStamp) }

// ---------------------------------------------------------------------------
// Tracing

// SetTracer installs the event sink (nil disables tracing; compose several
// sinks with MultiTracer). Attach before Run — events are emitted from the
// event loop, so installing mid-run starts the stream at the current
// cycle.
func (o Observer) SetTracer(t Tracer) { o.m.tracer = t }

// StallReport builds the breakdown of an attached StallTracer over the
// window since the last stats reset, labelled with the ME program labels.
// It returns nil when no StallTracer is attached (directly or inside a
// MultiTracer).
func (o Observer) StallReport() *StallReport {
	st := findStallTracer(o.m.tracer)
	if st == nil {
		return nil
	}
	return st.Report(o.m.now, o.MELabels())
}

func findStallTracer(t Tracer) *StallTracer {
	switch tt := t.(type) {
	case *StallTracer:
		return tt
	case multiTracer:
		for _, sub := range tt {
			if st := findStallTracer(sub); st != nil {
				return st
			}
		}
	}
	return nil
}
