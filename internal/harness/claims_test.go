package harness_test

import (
	"testing"

	"shangrila/internal/aggregate"
	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
)

// TestPaperClaimsAggregation checks §6.2's structural claims: fully
// optimized applications map their entire critical packet pipeline onto a
// single ME replicated across all six, with control-path PPFs on the
// XScale.
func TestPaperClaimsAggregation(t *testing.T) {
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			res, err := harness.Compile(a, driver.LevelSWC, 7)
			if err != nil {
				t.Fatal(err)
			}
			plan := res.Report.Plan
			me := plan.MEAggregates()
			if len(me) != 1 {
				t.Errorf("ME aggregates = %d, want 1 (paper: one ME, replicated):\n%s",
					len(me), plan)
			}
			if plan.Replicas != 6 {
				t.Errorf("replicas = %d, want 6", plan.Replicas)
			}
			for _, c := range res.Image.MECode {
				if len(c.Program.Code) > 4096 {
					t.Errorf("aggregate %v exceeds the code store: %d", c.Agg.PPFs, len(c.Program.Code))
				}
			}
		})
	}
	// L3-Switch specifically offloads ARP handling.
	res, err := harness.Compile(apps.L3Switch(), driver.LevelSWC, 7)
	if err != nil {
		t.Fatal(err)
	}
	arp := res.Report.Plan.Of["l3switch.arp_handler"]
	if arp == nil || arp.Target != aggregate.TargetXScale {
		t.Errorf("arp_handler should run on the XScale")
	}
}

// TestPaperClaimsMonotoneRates checks the Figures 13-15 ordering at the
// full ME count: each cumulative optimization level forwards at least as
// fast as the previous one (small tolerance for simulation noise), and
// the fully optimized build beats BASE by a large factor.
func TestPaperClaimsMonotoneRates(t *testing.T) {
	cfg := quickCfg()
	cfg.NumMEs = 6
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			var prev float64
			var base, swc float64
			for _, lvl := range driver.Levels() {
				c := cfg
				c.Level = lvl
				r, err := c.Run(a)
				if err != nil {
					t.Fatal(err)
				}
				if r.Gbps < prev*0.93 {
					t.Errorf("%v (%.2f) regressed vs previous level (%.2f)", lvl, r.Gbps, prev)
				}
				if r.Gbps > prev {
					prev = r.Gbps
				}
				if lvl == driver.LevelBase {
					base = r.Gbps
				}
				if lvl == driver.LevelSWC {
					swc = r.Gbps
				}
			}
			if swc < base*1.8 {
				t.Errorf("full optimization only %.2fx over BASE (%.2f -> %.2f), want >= 1.8x",
					swc/base, base, swc)
			}
		})
	}
}

// TestPaperClaimsStallAttribution asserts §6.2's causal story directly
// from the stall breakdown instead of inferring it from rates: the
// load–latency knee is memory-controller queueing. Sweeping L3-Switch
// past saturation, the queueing share of thread-blocked time must
// dominate and grow monotonically across the knee — and the breakdown
// must name the right controller: unoptimized code queues on DRAM (the
// paper's bandwidth-saturation flattening), while at O3 packet-access
// combining has moved the traffic off DRAM, so the residual queueing
// sits on the scratch/SRAM side and the DRAM share collapses. Every
// report on the way is checked for exact conservation.
func TestPaperClaimsStallAttribution(t *testing.T) {
	loads := []float64{0.5, 1, 1.5, 2, 3}
	sweep := func(lvl driver.Level) []harness.LoadPoint {
		cfg := harness.DefaultRunConfig()
		cfg.Warmup, cfg.Measure = 60_000, 300_000
		cfg.TraceN, cfg.Stalls = 128, true
		curves, err := harness.LoadLatency(
			[]*apps.App{apps.L3Switch()},
			[]driver.Level{lvl}, loads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pts := curves[0].Points
		for _, p := range pts {
			if p.Stalls == nil {
				t.Fatalf("%v point %.2fG has no stall breakdown", lvl, p.OfferedGbps)
			}
			// Conservation: every ME row accounts for the exact window.
			for _, me := range p.Stalls.MEs {
				if me.Total() != p.Stalls.Cycles {
					t.Fatalf("%v at %.2fG: ME%d categories sum to %d cycles of %d",
						lvl, p.OfferedGbps, me.ME, me.Total(), p.Stalls.Cycles)
				}
			}
		}
		return pts
	}
	queueShares := func(pts []harness.LoadPoint, cat string) []float64 {
		var out []float64
		for _, p := range pts {
			tot := p.Stalls.ThreadTotals()
			out = append(out, tot.StallShare(cat))
		}
		return out
	}

	base := sweep(driver.LevelBase)
	o3 := sweep(driver.Level(3)) // O3 = +PAC

	for _, c := range []struct {
		name string
		pts  []harness.LoadPoint
		cat  string
	}{
		{"BASE dram", base, "mem_queue.dram"},
		{"O3 total", o3, "mem_queue"},
	} {
		shares := queueShares(c.pts, c.cat)
		// Monotone growth across the knee (2% tolerance for noise in the
		// saturated tail).
		for i := 1; i < len(shares); i++ {
			if shares[i] < 0.98*shares[i-1] {
				t.Errorf("%s queueing share fell %.4f -> %.4f between %.2fG and %.2fG",
					c.name, shares[i-1], shares[i],
					c.pts[i-1].OfferedGbps, c.pts[i].OfferedGbps)
			}
		}
		// Past the knee (losses underway) queueing dominates every other
		// blocked-time category of the thread rows.
		for i, p := range c.pts {
			if p.DropRate < 0.05 {
				continue
			}
			tot := p.Stalls.ThreadTotals()
			q := shares[i]
			if q < 0.5 {
				t.Errorf("%s at %.2fG: queueing share %.3f does not dominate", c.name, p.OfferedGbps, q)
			}
			for _, other := range []string{"compute", "ring", "mem_latency", "idle"} {
				if s := tot.StallShare(other); s >= q {
					t.Errorf("%s at %.2fG: %s share %.3f >= queueing %.3f",
						c.name, p.OfferedGbps, other, s, q)
				}
			}
		}
		if last := c.pts[len(c.pts)-1]; last.DropRate < 0.05 {
			t.Errorf("%s never crossed the knee (drop %.3f at %.2fG)",
				c.name, last.DropRate, last.OfferedGbps)
		}
	}

	// The optimization story: O3's packet-access combining removes the DRAM
	// traffic, so past the knee its DRAM queueing share is a small fraction
	// of BASE's — the breakdown shows *why* optimized code scales further.
	baseDram := queueShares(base, "mem_queue.dram")
	o3Dram := queueShares(o3, "mem_queue.dram")
	last := len(loads) - 1
	if o3Dram[last] > 0.2*baseDram[last] {
		t.Errorf("O3 DRAM queueing share %.4f not clearly below BASE %.4f — PAC should have moved the bottleneck off DRAM",
			o3Dram[last], baseDram[last])
	}
}

// TestPaperClaimsSaturation checks the flattening signature: unoptimized
// builds stop scaling at fewer MEs than optimized ones, because their
// higher per-packet access counts saturate the memory controllers first.
func TestPaperClaimsSaturation(t *testing.T) {
	a := apps.L3Switch()
	cfg := quickCfg()
	rates := func(lvl driver.Level) []float64 {
		res, err := harness.Compile(a, lvl, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for n := 1; n <= 6; n++ {
			c := cfg
			c.NumMEs, c.Compiled = n, res
			r, err := c.Run(a)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r.Gbps)
		}
		return out
	}
	base := rates(driver.LevelBase)
	swc := rates(driver.LevelSWC)
	// BASE gains little beyond 3 MEs (saturated); SWC keeps a higher
	// ceiling.
	if base[5] > base[2]*1.15 {
		t.Errorf("BASE still scaling past 3 MEs: %v", base)
	}
	if swc[5] < base[5]*1.8 {
		t.Errorf("optimized ceiling %.2f not clearly above BASE ceiling %.2f", swc[5], base[5])
	}
	// Both scale from 1 to 2 MEs (below saturation).
	if base[1] < base[0]*1.5 || swc[1] < swc[0]*1.2 {
		t.Errorf("missing low-ME scaling: base %v swc %v", base[:2], swc[:2])
	}
}
