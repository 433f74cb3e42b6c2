package harness

import (
	"fmt"
	"math"
	"strings"

	"shangrila/internal/apps"
	"shangrila/internal/cluster"
	"shangrila/internal/workload"
)

// ClusterParams shapes one multi-NPU line-card run. The traffic fields
// describe the aggregate arrival stream the load balancer shards: offered
// load scales with the chip count (PerChipGbps × Chips) so every scaling
// point stresses each chip equally, the way line cards are provisioned.
type ClusterParams struct {
	Chips       int
	PerChipGbps float64 // offered load per chip (default 2.5)

	// Flow population and skew of the shared stream (defaults: one
	// million flows, Zipf s=1.1 — heavy-tailed, the regime where
	// flow-hash imbalance shows).
	Flows   int
	ZipfS   float64
	Arrival string // workload arrival process (default fixed)
	Sizes   string // workload size mix (default 64)

	FabricLatency int64 // first-delivery offset in cycles
	Epoch         int64 // scheduler lookahead (0 = cluster default)

	// DrainChip >= 0 schedules a mid-run ECMP drain of that chip at
	// DrainFrac of the measure window (default 0.5).
	DrainChip int
	DrainFrac float64
}

// withDefaults fills the zero values. DrainChip's zero value means chip
// 0, so "no drain" must be set explicitly (DrainChip: -1); NoDrain
// spares callers the magic number. A non-finite DrainFrac is an error: it
// would slip past the range check below and schedule the drain at a
// meaningless cycle.
func (p ClusterParams) withDefaults() (ClusterParams, error) {
	if math.IsNaN(p.DrainFrac) || math.IsInf(p.DrainFrac, 0) {
		return p, fmt.Errorf("cluster: DrainFrac %v is not a fraction", p.DrainFrac)
	}
	if p.Chips <= 0 {
		p.Chips = 1
	}
	if p.PerChipGbps <= 0 {
		p.PerChipGbps = 2.5
	}
	if p.Flows <= 0 {
		p.Flows = 1_000_000
	}
	if p.ZipfS == 0 {
		p.ZipfS = 1.1
	}
	if p.DrainFrac <= 0 || p.DrainFrac >= 1 {
		p.DrainFrac = 0.5
	}
	return p, nil
}

// NoDrain is the DrainChip value for runs without a drain scenario.
const NoDrain = -1

// ClusterResult is one cluster run with its app/compile identity — the
// report's cluster section entry.
type ClusterResult struct {
	App        string        `json:"app"`
	Level      string        `json:"level"`
	MEsPerChip int           `json:"mes_per_chip"`
	Seed       uint64        `json:"seed"`
	Workload   workload.Spec `json:"workload"`
	cluster.Result
}

// ClusterRun compiles (unless cfg.Compiled is set) and measures one
// multi-NPU cluster: p.Chips identical chips (cfg.NumMEs engines each)
// behind the flow-hash balancer, warmed and measured over cfg's cycle
// windows. cfg.Workers sets how many chips advance concurrently — results
// are bit-identical at any value, and a one-chip cluster with zero fabric
// latency is bit-identical to the plain single-machine path.
func ClusterRun(a *apps.App, p ClusterParams, cfg RunConfig) (*ClusterResult, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	res, err := cfg.image(a)
	if err != nil {
		return nil, err
	}
	trc, err := cfg.measurementTrace(a, res)
	if err != nil {
		return nil, err
	}

	wsp := workload.Spec{
		Seed:        cfg.Seed + 1, // traffic seed, distinct from the profile seed
		Arrival:     p.Arrival,
		Sizes:       p.Sizes,
		OfferedGbps: p.PerChipGbps * float64(p.Chips),
		Flows:       p.Flows,
		ZipfS:       p.ZipfS,
	}
	wsp, err = wsp.Normalize()
	if err != nil {
		return nil, err
	}

	var drain *cluster.DrainPlan
	if p.DrainChip >= 0 {
		drain = &cluster.DrainPlan{
			Chip:    p.DrainChip,
			AtCycle: cfg.Warmup + int64(p.DrainFrac*float64(cfg.Measure)),
		}
	}
	cl, err := cluster.New(cluster.Config{
		Image:         res.Image,
		Prog:          res.Prog,
		Trace:         trc,
		Controls:      a.Controls,
		Chips:         p.Chips,
		MEsPerChip:    cfg.NumMEs,
		Workload:      wsp,
		FabricLatency: p.FabricLatency,
		Epoch:         p.Epoch,
		Workers:       cfg.Workers,
		Warmup:        cfg.Warmup,
		Measure:       cfg.Measure,
		Seed:          cfg.Seed,
		Drain:         drain,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	r, err := cl.Run()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return &ClusterResult{
		App:        a.Name,
		Level:      res.Report.Level.String(),
		MEsPerChip: cfg.NumMEs,
		Seed:       cfg.Seed,
		Workload:   wsp,
		Result:     *r,
	}, nil
}

// ClusterScaling measures the goodput-scaling series — chip counts
// doubling from 1 up to p.Chips, each at PerChipGbps per chip — plus,
// when p.DrainChip is set and more than one chip is configured, one
// drain scenario at the full chip count. The app compiles once; every
// point reuses the image.
func ClusterScaling(a *apps.App, p ClusterParams, cfg RunConfig) ([]*ClusterResult, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.Compiled, err = cfg.image(a); err != nil {
		return nil, err
	}

	var counts []int
	for n := 1; n < p.Chips; n *= 2 {
		counts = append(counts, n)
	}
	counts = append(counts, p.Chips)

	var out []*ClusterResult
	for _, n := range counts {
		pn := p
		pn.Chips = n
		pn.DrainChip = NoDrain
		r, err := ClusterRun(a, pn, cfg)
		if err != nil {
			return nil, fmt.Errorf("cluster %d chips: %w", n, err)
		}
		out = append(out, r)
	}
	if p.DrainChip >= 0 && p.Chips > 1 {
		if p.DrainChip >= p.Chips {
			return nil, fmt.Errorf("cluster: drain chip %d out of range (have %d chips)", p.DrainChip, p.Chips)
		}
		r, err := ClusterRun(a, p, cfg)
		if err != nil {
			return nil, fmt.Errorf("cluster drain: %w", err)
		}
		out = append(out, r)
	}
	return out, nil
}

// FormatCluster renders cluster runs as the goodput-scaling table plus a
// per-chip breakdown for drain scenarios.
func FormatCluster(results []*ClusterResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-6s %6s | %9s %9s %6s | %8s %8s | %s\n",
		"App", "Config", "Chips", "Offered", "Goodput", "Imbal", "p50", "p99", "Scenario")
	for _, r := range results {
		scenario := "scaling"
		if r.Topology.Drain != nil {
			scenario = fmt.Sprintf("drain chip %d @%d", r.Topology.Drain.Chip, r.Topology.Drain.AtCycle)
		}
		fmt.Fprintf(&b, "%-10s %-6s %6d | %8.2fG %8.2fG %6.3f | %8d %8d | %s\n",
			r.App, r.Level, r.Topology.Chips,
			r.Topology.OfferedGbps, r.AggregateGbps, r.Imbalance,
			r.Latency.P50, r.Latency.P99, scenario)
		if r.Topology.Drain != nil {
			for _, c := range r.Chips {
				mark := ""
				if c.Drained {
					mark = "  (drained)"
				}
				fmt.Fprintf(&b, "    chip %d: %6.2f Gbps, %8d tx, %8d routed, p99 %d%s\n",
					c.Chip, c.GoodputGbps, c.TxPackets, c.Routed, c.Latency.P99, mark)
			}
		}
	}
	return b.String()
}
