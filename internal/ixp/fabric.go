package ixp

// The inter-chip switch fabric's per-machine attachment point. In a
// multi-NPU line card (internal/cluster) every simulated IXP2400 sits
// behind a FabricPort: the cluster's flow-hash load balancer schedules
// arrivals into the port's frame source, and the port is the machine's
// Media — it paces deliveries exactly like the single-machine workload
// player, so a one-chip cluster is bit-identical to a plain run.

// FrameSource supplies a fabric port's scheduled arrivals. The cluster
// load balancer implements it per chip, sharding one deterministic
// workload stream by flow hash.
type FrameSource interface {
	// NextFrame pops the port's next scheduled arrival: the wire frame
	// length in bytes, the flow it belongs to, and the fractional-cycle
	// gap until the port's following arrival. ok=false means the source
	// is dry — drained, or permanently idle — and the port re-polls
	// after a fixed gap. Implementations may block briefly (a shared
	// generator behind a mutex) but must be deterministic: the frame
	// sequence a chip sees may not depend on how other chips interleave.
	NextFrame() (frameBytes, flow int, gap float64, ok bool)
}

// FabricSink materializes delivered frames into a machine's Rx path and
// recycles transmitted buffers — the chip's runtime. rts.Runtime
// implements it.
type FabricSink interface {
	// DeliverFrame copies one arriving frame into the machine (payload
	// selection by flow, descriptor push, Observer accounting). A false
	// return means the Rx path was saturated and the frame was counted
	// as a loss; the arrival is consumed either way (open loop).
	DeliverFrame(m *Machine, frameBytes, flow int) bool
	// Transmit consumes one descriptor popped from the Tx ring and
	// returns the frame length in bytes (Media.Transmit semantics).
	Transmit(m *Machine, w0, w1 uint32) int
}

// fabricPollGap is the idle re-poll spacing (cycles) when the frame
// source is dry. It has no observable effect: a dry poll neither
// delivers nor accounts anything.
const fabricPollGap = 64

// FabricPort joins one machine to the cluster switch fabric. It is the
// machine's Media: Inject pulls due frames from the source and hands
// them to the sink, returning the source's inter-arrival gap so the
// machine's fractional-cycle Rx pacing reproduces the scheduled arrival
// times; Transmit delegates recycling to the sink.
type FabricPort struct {
	src  FrameSource
	sink FabricSink

	// latency is the one-time delivery offset modelling the load
	// balancer and fabric traversal: the first pull is deferred by this
	// many cycles. Constant per-hop latency cancels out of inter-arrival
	// gaps, so an offset is the whole observable effect.
	latency  float64
	started  bool
	draining bool
}

// NewFabricPort builds a port delivering src's frames into sink, with
// the first delivery deferred by latencyCycles (0 = immediate).
func NewFabricPort(src FrameSource, sink FabricSink, latencyCycles int64) *FabricPort {
	return &FabricPort{src: src, sink: sink, latency: float64(latencyCycles)}
}

// SetSink installs the sink after construction (the chip runtime is
// built with the port as its Media, so the two reference each other).
func (p *FabricPort) SetSink(s FabricSink) { p.sink = s }

// Drain takes the port out of service: subsequent Inject calls deliver
// nothing, letting in-flight packets complete while the load balancer
// redistributes the chip's flows. Call it only while the machine is not
// running (the cluster scheduler drains at epoch barriers).
func (p *FabricPort) Drain() { p.draining = true }

// Inject implements Media.
func (p *FabricPort) Inject(m *Machine) float64 {
	if !p.started {
		p.started = true
		if p.latency > 0 {
			return p.latency
		}
	}
	if p.draining || p.sink == nil {
		return fabricPollGap
	}
	frameBytes, flow, gap, ok := p.src.NextFrame()
	if !ok {
		return fabricPollGap
	}
	p.sink.DeliverFrame(m, frameBytes, flow)
	return gap
}

// Transmit implements Media.
func (p *FabricPort) Transmit(m *Machine, w0, w1 uint32) int {
	return p.sink.Transmit(m, w0, w1)
}
