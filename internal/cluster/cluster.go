// Package cluster simulates a multi-NPU line card: N IXP machines joined
// by an inter-chip switch fabric and fronted by an ECMP flow-hash load
// balancer. One deterministic workload stream (millions of concurrent
// Zipf flows) is sharded across the chips by flow hash; each chip runs
// its own compiled image behind an ixp.FabricPort whose gap-chained
// deliveries reproduce the scheduled arrival times exactly, so a
// one-chip cluster is bit-identical to a plain single-machine run. A
// round-robin scheduler advances every chip in fixed lookahead epochs —
// chips are independent between barriers (the balancer is open-loop), so
// epochs may execute on any number of workers without changing a single
// observable bit.
package cluster

import (
	"fmt"
	"math"

	"shangrila/internal/cg"
	"shangrila/internal/ir"
	"shangrila/internal/ixp"
	"shangrila/internal/metrics"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
	"shangrila/internal/rts"
	"shangrila/internal/workload"
)

// DrainPlan takes one chip out of the ECMP set mid-run: the balancer
// stops routing arrivals due at or after AtCycle to Chip, and the
// scheduler drains the chip's fabric port at the next epoch barrier.
// AtCycle is absolute on the cluster timeline (warm-up included).
type DrainPlan struct {
	Chip    int   `json:"chip"`
	AtCycle int64 `json:"at_cycle"`
}

// Config assembles a cluster run. Image/Prog/Trace/Controls come from
// one compile — every chip loads the same application (a line card runs
// one forwarding program replicated per NPU) on the calibrated IXP2400
// model (ixp.DefaultConfig) with MEsPerChip packet-processing MEs.
type Config struct {
	Image    *cg.Image
	Prog     *ir.Program
	Trace    []*packet.Packet
	Controls []profiler.Control

	Chips      int
	MEsPerChip int
	Workload   workload.Spec // the aggregate offered load, pre-sharding

	// FabricLatency defers each chip's first delivery by this many
	// cycles (the balancer + fabric traversal). Constant per-hop latency
	// cancels out of inter-arrival gaps, so an offset is its whole
	// observable effect; 0 keeps the one-chip case bit-identical to a
	// plain run. New rejects a negative value.
	FabricLatency int64

	// Epoch is the scheduler's lookahead window in cycles (0 selects the
	// default 10_000; New rejects a negative value): every chip advances
	// one epoch between barriers. Arrivals
	// are scheduled ahead by the open-loop balancer, never chip-to-chip,
	// so any epoch size is conservative; it only sets the granularity of
	// drain application and bucket boundaries.
	Epoch int64

	// Workers bounds how many chips advance concurrently within an
	// epoch (default 1; capped at the chip count). Results are
	// bit-identical at any value.
	Workers int

	Warmup  int64
	Measure int64
	Seed    uint64 // balancer flow-hash seed

	Drain *DrainPlan
}

const (
	defaultEpoch = 10_000
	// buckets is the measurement timeline resolution.
	buckets = 8
)

// Topology is the report-facing description of the cluster layout.
// Field order is fixed so encoding/json output is canonical.
// Worker count is deliberately absent: results are bit-identical at any
// worker count, and recording it would make otherwise-identical reports
// differ.
type Topology struct {
	Chips         int        `json:"chips"`
	FabricLatency int64      `json:"fabric_latency_cycles"`
	Epoch         int64      `json:"epoch_cycles"`
	Seed          uint64     `json:"seed"`
	Flows         int        `json:"flows"`
	ZipfS         float64    `json:"zipf_s"`
	OfferedGbps   float64    `json:"offered_gbps"`
	Drain         *DrainPlan `json:"drain,omitempty"`
}

// ChipResult is one NPU's measured window.
type ChipResult struct {
	Chip        int                       `json:"chip"`
	MEs         int                       `json:"mes"`
	Engine      string                    `json:"engine"`
	Shards      int                       `json:"shards,omitempty"`
	Drained     bool                      `json:"drained,omitempty"`
	GoodputGbps float64                   `json:"goodput_gbps"`
	TxPackets   uint64                    `json:"tx_packets"`
	RxPackets   uint64                    `json:"rx_packets"`
	RxDropped   uint64                    `json:"rx_dropped"`
	Routed      uint64                    `json:"routed_arrivals"`
	Latency     metrics.HistogramSnapshot `json:"latency_cycles"`
}

// Bucket is one slice of the measured timeline: per-chip goodput at
// bucket resolution is the redistribution evidence a drain scenario
// reports.
type Bucket struct {
	StartCycle  int64     `json:"start_cycle"`
	EndCycle    int64     `json:"end_cycle"`
	ChipGbps    []float64 `json:"chip_gbps"`
	ClusterGbps float64   `json:"cluster_gbps"`
}

// Result is one cluster run's measured window.
type Result struct {
	Topology      Topology                  `json:"topology"`
	AggregateGbps float64                   `json:"aggregate_gbps"`
	TxPackets     uint64                    `json:"tx_packets"`
	RxPackets     uint64                    `json:"rx_packets"`
	RxDropped     uint64                    `json:"rx_dropped"`
	Imbalance     float64                   `json:"imbalance"`
	Latency       metrics.HistogramSnapshot `json:"latency_cycles"`
	Chips         []ChipResult              `json:"per_chip"`
	Buckets       []Bucket                  `json:"buckets"`
}

// chip is one NPU plus its fabric attachment.
type chip struct {
	rt   *rts.Runtime
	port *ixp.FabricPort
	prev ixp.Stats // cumulative snapshot at the last bucket boundary
}

// Cluster is a constructed line card ready to run.
type Cluster struct {
	cfg      Config
	bal      *balancer
	chips    []*chip
	clockMHz float64
	now      int64 // shared cluster timeline (cycles)
	workers  int
	drained  bool // port drain applied
}

// New builds the cluster: the shared balancer, then per chip a fabric
// port and a runtime whose machine uses the port as its media.
func New(cfg Config) (*Cluster, error) {
	if cfg.Chips <= 0 {
		return nil, fmt.Errorf("cluster: need at least one chip")
	}
	if cfg.FabricLatency < 0 {
		return nil, fmt.Errorf("cluster: fabric latency %d cycles is negative", cfg.FabricLatency)
	}
	if cfg.Epoch < 0 {
		return nil, fmt.Errorf("cluster: epoch %d cycles is negative (0 selects the default %d)", cfg.Epoch, defaultEpoch)
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = defaultEpoch
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Workers > cfg.Chips {
		cfg.Workers = cfg.Chips
	}
	if d := cfg.Drain; d != nil && (d.Chip < 0 || d.Chip >= cfg.Chips) {
		return nil, fmt.Errorf("cluster: drain chip %d out of range (have %d chips)", d.Chip, cfg.Chips)
	}
	clock := ixp.DefaultConfig().ClockMHz

	wsp, err := cfg.Workload.Normalize()
	if err != nil {
		return nil, fmt.Errorf("cluster: workload: %w", err)
	}
	cfg.Workload = wsp

	bal, err := newBalancer(wsp, cfg.Seed, clock, cfg.Chips)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.Drain != nil {
		bal.scheduleDrain(cfg.Drain.Chip, cfg.Drain.AtCycle)
	}

	cl := &Cluster{cfg: cfg, bal: bal, clockMHz: clock, workers: cfg.Workers}
	for i := 0; i < cfg.Chips; i++ {
		port := ixp.NewFabricPort(&chipFeed{b: bal, chip: i}, nil, cfg.FabricLatency)
		rt, err := rts.New(cfg.Image, cfg.Prog, cfg.Trace, rts.Options{
			NumMEs: cfg.MEsPerChip, Media: port,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: chip %d: %w", i, err)
		}
		port.SetSink(rt)
		for _, c := range cfg.Controls {
			if err := rt.Control(c.Name, c.Args...); err != nil {
				return nil, fmt.Errorf("cluster: chip %d control %s: %w", i, c.Name, err)
			}
		}
		cl.chips = append(cl.chips, &chip{rt: rt, port: port})
	}
	return cl, nil
}

// advance runs every chip for the same cycle span, fanning chips across
// the worker pool and rejoining at the barrier. Chips only share the
// mutex-protected balancer (whose evolution is interleaving-invariant),
// so the worker count never changes results.
func (c *Cluster) advance(cycles int64) error {
	if c.workers <= 1 {
		for i, ch := range c.chips {
			if err := ch.rt.Run(cycles); err != nil {
				return fmt.Errorf("cluster: chip %d: %w", i, err)
			}
		}
		return nil
	}
	jobs := make(chan int)
	errs := make([]error, len(c.chips))
	done := make(chan struct{})
	for w := 0; w < c.workers; w++ {
		go func() {
			for i := range jobs {
				if err := c.chips[i].rt.Run(cycles); err != nil {
					errs[i] = fmt.Errorf("cluster: chip %d: %w", i, err)
				}
			}
			done <- struct{}{}
		}()
	}
	for i := range c.chips {
		jobs <- i
	}
	close(jobs)
	for w := 0; w < c.workers; w++ {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// step advances the cluster one epoch (clipped to remaining), applying a
// scheduled port drain at the barrier it first falls due.
func (c *Cluster) step(remaining int64) (int64, error) {
	span := c.cfg.Epoch
	if span > remaining {
		span = remaining
	}
	if err := c.advance(span); err != nil {
		return 0, err
	}
	c.now += span
	if d := c.cfg.Drain; d != nil && !c.drained && c.now >= d.AtCycle {
		c.chips[d.Chip].port.Drain()
		c.drained = true
	}
	return span, nil
}

// Warm runs the warm-up window and zeroes every chip's counters, the
// shared-latency baseline and the balancer's routed baseline.
func (c *Cluster) Warm() error {
	left := c.cfg.Warmup
	for left > 0 {
		n, err := c.step(left)
		if err != nil {
			return err
		}
		left -= n
	}
	for _, ch := range c.chips {
		ch.rt.M.ResetStats()
		ch.prev = ch.rt.M.Snapshot()
	}
	return nil
}

// Measure runs the measured window in epoch steps, cutting bucket
// boundaries at buckets even slices of the timeline, and assembles the
// result. Per-chip counters accumulate across the whole window (one
// reset at measure start); buckets are cumulative-snapshot diffs, so
// the final per-chip statistics and the merged latency distribution
// cover every measured cycle.
func (c *Cluster) Measure() (*Result, error) {
	routedBase := c.bal.Routed()
	measure := c.cfg.Measure
	nb := buckets
	start := c.now
	res := &Result{Topology: c.topology()}

	elapsed := int64(0)
	for b := 0; b < nb; b++ {
		target := measure * int64(b+1) / int64(nb)
		bStart := start + elapsed
		for elapsed < target {
			n, err := c.step(target - elapsed)
			if err != nil {
				return nil, err
			}
			elapsed += n
		}
		bk := Bucket{StartCycle: bStart, EndCycle: start + elapsed}
		for _, ch := range c.chips {
			snap := ch.rt.M.Snapshot()
			dBits := snap.TxBits - ch.prev.TxBits
			dCycles := snap.Cycles - ch.prev.Cycles
			bk.ChipGbps = append(bk.ChipGbps, c.gbps(dBits, dCycles))
			bk.ClusterGbps += c.gbps(dBits, dCycles)
			ch.prev = snap
		}
		res.Buckets = append(res.Buckets, bk)
	}

	merged := metrics.NewHistogram()
	var txAll []uint64
	routed := c.bal.Routed()
	for i, ch := range c.chips {
		snap := ch.rt.M.Snapshot()
		engName, engShards := ch.rt.M.EngineInfo()
		drained := c.cfg.Drain != nil && c.cfg.Drain.Chip == i
		cr := ChipResult{
			Chip:        i,
			MEs:         c.cfg.MEsPerChip,
			Engine:      engName,
			Shards:      engShards,
			Drained:     drained,
			GoodputGbps: snap.Gbps(c.clockMHz),
			TxPackets:   snap.TxPackets,
			RxPackets:   snap.RxPackets,
			RxDropped:   snap.RxDropped,
			Routed:      routed[i] - routedBase[i],
			Latency:     ch.rt.M.Observer().Latency(),
		}
		ch.rt.M.Observer().MergeLatencyInto(merged)
		res.Chips = append(res.Chips, cr)
		res.AggregateGbps += cr.GoodputGbps
		res.TxPackets += cr.TxPackets
		res.RxPackets += cr.RxPackets
		res.RxDropped += cr.RxDropped
		if !drained {
			txAll = append(txAll, cr.TxPackets)
		}
	}
	res.Latency = merged.Snapshot()
	res.Imbalance = imbalance(txAll)
	return res, nil
}

// Run is Warm followed by Measure.
func (c *Cluster) Run() (*Result, error) {
	if err := c.Warm(); err != nil {
		return nil, err
	}
	return c.Measure()
}

func (c *Cluster) topology() Topology {
	return Topology{
		Chips:         len(c.chips),
		FabricLatency: c.cfg.FabricLatency,
		Epoch:         c.cfg.Epoch,
		Seed:          c.cfg.Seed,
		Flows:         c.cfg.Workload.Flows,
		ZipfS:         c.cfg.Workload.ZipfS,
		OfferedGbps:   c.cfg.Workload.OfferedGbps,
		Drain:         c.cfg.Drain,
	}
}

func (c *Cluster) gbps(bits uint64, cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	seconds := float64(cycles) / (c.clockMHz * 1e6)
	return float64(bits) / 1e9 / seconds
}

// imbalance is max/mean of per-chip transmitted packets over the chips
// still in service (1.0 = perfectly balanced; NaN-free: 0 when no chip
// transmitted).
func imbalance(tx []uint64) float64 {
	if len(tx) == 0 {
		return 0
	}
	var sum, max uint64
	for _, v := range tx {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(tx))
	r := float64(max) / mean
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return 0
	}
	return r
}
