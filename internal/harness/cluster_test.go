package harness

import (
	"bytes"
	"math"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/workload"
)

// clusterTestCfg keeps cluster measurement runs of the compiled image
// res short.
func clusterTestCfg(res *driver.Result) RunConfig {
	cfg := DefaultRunConfig()
	cfg.NumMEs, cfg.Seed, cfg.TraceN = 2, 7, 128
	cfg.Warmup, cfg.Measure = 30_000, 160_000
	cfg.Compiled = res
	return cfg
}

// clusterTestParams is a small flow population so the Zipf sampler setup
// stays cheap in tests.
func clusterTestParams(chips int) ClusterParams {
	return ClusterParams{
		Chips:       chips,
		PerChipGbps: 2.5,
		Flows:       2048,
		ZipfS:       1.1,
		DrainChip:   NoDrain,
	}
}

// TestClusterSingleChipMatchesRun: a one-chip cluster with zero fabric
// latency is bit-identical to the plain single-machine workload path —
// same packet counts, same drop counts, same latency distribution. This
// pins the whole balancer/fabric-port delivery chain to the calibrated
// single-machine semantics.
func TestClusterSingleChipMatchesRun(t *testing.T) {
	a := apps.L3Switch()
	res, err := Compile(a, driver.LevelSWC, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := clusterTestCfg(res)

	cr, err := ClusterRun(a, clusterTestParams(1), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The exact spec ClusterRun derives: traffic seed = seed+1, offered
	// load = PerChipGbps × 1 chip.
	sp := workload.Spec{Seed: 8, OfferedGbps: 2.5, Flows: 2048, ZipfS: 1.1}
	cfg.Workload = &sp
	r, err := cfg.Run(a)
	if err != nil {
		t.Fatal(err)
	}

	if len(cr.Chips) != 1 {
		t.Fatalf("got %d chip results, want 1", len(cr.Chips))
	}
	c := cr.Chips[0]
	if c.TxPackets != r.TxPackets || c.RxPackets != r.RxPackets || c.RxDropped != r.RxDropped {
		t.Errorf("counters diverge from plain run: cluster tx/rx/drop %d/%d/%d, run %d/%d/%d",
			c.TxPackets, c.RxPackets, c.RxDropped, r.TxPackets, r.RxPackets, r.RxDropped)
	}
	if r.Latency == nil {
		t.Fatal("plain run has no latency histogram")
	}
	if c.Latency != *r.Latency {
		t.Errorf("latency distribution diverges:\ncluster %+v\nrun     %+v", c.Latency, *r.Latency)
	}
	if cr.Latency != *r.Latency {
		t.Errorf("merged cluster latency != single chip's: %+v vs %+v", cr.Latency, *r.Latency)
	}
	if c.TxPackets == 0 {
		t.Error("no packets forwarded; the pin is vacuous")
	}
}

// TestClusterDeterminism: the full scaling series (including the drain
// scenario) produces a byte-identical canonical report at any worker
// count, and the drain scenario shows the redistribution it exists to
// measure. Run with -race this also proves the epoch barriers are sound.
func TestClusterDeterminism(t *testing.T) {
	a := apps.L3Switch()
	res, err := Compile(a, driver.LevelSWC, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := clusterTestParams(4)
	p.DrainChip = 3

	series := func(workers int) ([]*ClusterResult, []byte) {
		cfg := clusterTestCfg(res)
		cfg.Workers = workers
		rs, err := ClusterScaling(a, p, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		rep := &BenchReport{Schema: ReportSchema, Cluster: rs}
		b, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatalf("workers=%d: canonical: %v", workers, err)
		}
		return rs, b
	}
	rs1, b1 := series(1)
	_, b4 := series(4)
	if !bytes.Equal(b1, b4) {
		t.Error("cluster report differs between -workers 1 and -workers 4")
	}

	// Series shape: doubling chip counts up to 4, then the drain run.
	wantChips := []int{1, 2, 4, 4}
	if len(rs1) != len(wantChips) {
		t.Fatalf("got %d series points, want %d", len(rs1), len(wantChips))
	}
	for i, want := range wantChips {
		if rs1[i].Topology.Chips != want {
			t.Errorf("point %d has %d chips, want %d", i, rs1[i].Topology.Chips, want)
		}
	}
	if rs1[2].Topology.Drain != nil {
		t.Error("scaling point unexpectedly carries a drain plan")
	}

	// Goodput scales with chips: 4 chips clearly above 2× one chip.
	if agg1, agg4 := rs1[0].AggregateGbps, rs1[2].AggregateGbps; agg4 < 2*agg1 {
		t.Errorf("goodput not scaling: 1 chip %.2f Gbps, 4 chips %.2f Gbps", agg1, agg4)
	}

	// Drain scenario: the drained chip loses its arrival share and its
	// goodput collapses after the drain point.
	drain := rs1[3]
	if drain.Topology.Drain == nil || drain.Topology.Drain.Chip != 3 {
		t.Fatalf("last point is not the drain scenario: %+v", drain.Topology.Drain)
	}
	d := drain.Topology.Drain.Chip
	if !drain.Chips[d].Drained {
		t.Errorf("chip %d not marked drained", d)
	}
	for i, c := range drain.Chips {
		if i != d && c.Routed <= drain.Chips[d].Routed {
			t.Errorf("chip %d routed %d arrivals, not above drained chip's %d",
				i, c.Routed, drain.Chips[d].Routed)
		}
	}
	nb := len(drain.Buckets)
	if nb == 0 {
		t.Fatal("drain run has no timeline buckets")
	}
	first, last := drain.Buckets[0].ChipGbps[d], drain.Buckets[nb-1].ChipGbps[d]
	if last >= first {
		t.Errorf("drained chip goodput did not fall: first bucket %.3f, last %.3f", first, last)
	}
	for i, bk := range drain.Buckets {
		if bk.ClusterGbps <= 0 {
			t.Errorf("bucket %d: cluster goodput %.3f, want > 0 (forwarding must survive the drain)",
				i, bk.ClusterGbps)
		}
	}
}

// TestClusterRejectsNonFiniteDrainFrac: NaN passes withDefaults' range
// test (every comparison with it is false) and would schedule the drain at
// a garbage cycle, so a non-finite DrainFrac is an error before anything
// compiles.
func TestClusterRejectsNonFiniteDrainFrac(t *testing.T) {
	a := apps.L3Switch()
	for _, frac := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := clusterTestParams(2)
		p.DrainChip, p.DrainFrac = 1, frac
		if _, err := ClusterRun(a, p, DefaultRunConfig()); err == nil {
			t.Errorf("ClusterRun with DrainFrac %v succeeded", frac)
		}
		if _, err := ClusterScaling(a, p, DefaultRunConfig()); err == nil {
			t.Errorf("ClusterScaling with DrainFrac %v succeeded", frac)
		}
	}
}
