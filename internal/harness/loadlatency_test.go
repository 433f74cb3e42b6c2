package harness

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/workload"
)

var kneeLoads = []float64{0.25, 0.5, 1, 1.5, 2, 2.5, 3}

func kneeCfg(workers int) RunConfig {
	cfg := DefaultRunConfig()
	cfg.Warmup, cfg.Measure = 60_000, 300_000
	cfg.TraceN, cfg.Workers = 128, workers
	return cfg
}

// TestLoadLatencyKnee is the acceptance shape for the paper's Figure 9
// discussion: sweeping offered load for L3-Switch at O3 (+PAC), goodput
// must track offered load, then saturate, with the p99 latency tail
// turning up and Rx losses beginning at the knee.
func TestLoadLatencyKnee(t *testing.T) {
	curves, err := LoadLatency(
		[]*apps.App{apps.L3Switch()},
		[]driver.Level{driver.Level(3)}, // O3 = +PAC
		kneeLoads, kneeCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 1 || len(curves[0].Points) != len(kneeLoads) {
		t.Fatalf("got %d curves", len(curves))
	}
	pts := curves[0].Points

	// Below the knee the machine keeps up: goodput matches offered load
	// and nothing is dropped.
	for _, p := range pts[:2] {
		if p.GoodputGbps < 0.95*p.OfferedGbps {
			t.Errorf("underloaded point %.2fG lost throughput: goodput %.3fG",
				p.OfferedGbps, p.GoodputGbps)
		}
		if p.DropRate > 0.001 {
			t.Errorf("underloaded point %.2fG dropped %.2f%%",
				p.OfferedGbps, 100*p.DropRate)
		}
	}
	// The offered-load accounting reflects the configured rate (the
	// fractional-cycle Rx pacing keeps the bias under 0.5%).
	if p := pts[2]; p.OfferedGbps < 1*0.995 || p.OfferedGbps > 1*1.005 {
		t.Errorf("measured offered load %.4fG, want 1G +/- 0.5%%", p.OfferedGbps)
	}
	// Goodput is monotone non-decreasing (within noise) and saturates:
	// the top of the curve is flat while offered load keeps growing.
	for i := 1; i < len(pts); i++ {
		if pts[i].GoodputGbps < 0.97*pts[i-1].GoodputGbps {
			t.Errorf("goodput fell between %.2fG and %.2fG: %.3f -> %.3f",
				pts[i-1].OfferedGbps, pts[i].OfferedGbps,
				pts[i-1].GoodputGbps, pts[i].GoodputGbps)
		}
	}
	last := pts[len(pts)-1]
	if last.GoodputGbps > 0.8*last.OfferedGbps {
		t.Errorf("no saturation: goodput %.3fG at offered %.2fG",
			last.GoodputGbps, last.OfferedGbps)
	}
	if sat, top := pts[len(pts)-2].GoodputGbps, last.GoodputGbps; top > 1.05*sat || top < 0.95*sat {
		t.Errorf("saturated goodput not flat: %.3fG then %.3fG", sat, top)
	}
	// The latency tail turns up at the knee and losses begin.
	if last.Latency.P99 < 2*pts[0].Latency.P99 {
		t.Errorf("p99 did not grow past the knee: %d -> %d cycles",
			pts[0].Latency.P99, last.Latency.P99)
	}
	if last.RxDropped == 0 || last.DropRate <= 0 {
		t.Error("overload shed no packets at the Rx ring")
	}
	if last.Latency.Count == 0 || last.Latency.P50 > last.Latency.P99 ||
		last.Latency.P99 > last.Latency.Max {
		t.Errorf("malformed latency summary %+v", last.Latency)
	}

	out := FormatLoadLatency(curves)
	if !strings.Contains(out, "l3switch") || !strings.Contains(out, "p99(cyc)") {
		t.Errorf("FormatLoadLatency missing headers:\n%s", out)
	}
}

// TestLoadLatencyDeterminism: the load-latency section of the canonical
// report is byte-identical between a serial and a fully parallel sweep.
// Run with -cpu 1,4 to vary scheduler width.
func TestLoadLatencyDeterminism(t *testing.T) {
	appsList := []*apps.App{apps.L3Switch()}
	levels := []driver.Level{driver.LevelPAC}
	loads := []float64{0.5, 1.5, 3}
	shape := &workload.Spec{Arrival: workload.ArrivalPoisson, Sizes: workload.SizesIMIX, ZipfS: 1.1}

	report := func(workers int) []byte {
		cfg := kneeCfg(workers)
		cfg.Workload = shape
		curves, err := LoadLatency(appsList, levels, loads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep := &BenchReport{Schema: ReportSchema, LoadLatency: curves}
		b, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := report(1)
	parallel := report(runtime.GOMAXPROCS(0))
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("load-latency reports differ between 1 worker and GOMAXPROCS:\n%s\n--- vs ---\n%s",
			serial, parallel)
	}
}

// TestRunWithWorkload: single-point Run carries the workload accounting
// through to the Result and the report point.
func TestRunWithWorkload(t *testing.T) {
	sp := &workload.Spec{OfferedGbps: 3, Sizes: workload.SizesIMIX}
	cfg := DefaultRunConfig()
	cfg.Level, cfg.TraceN = driver.LevelSWC, 64
	cfg.Warmup, cfg.Measure = 40_000, 150_000
	legacyCfg := cfg
	cfg.Workload = sp
	r, err := cfg.Run(apps.MPLS())
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload == nil || r.Workload.Seed == 0 {
		t.Fatalf("workload spec not attached or seed not inherited: %+v", r.Workload)
	}
	if r.RxPackets == 0 || r.OfferedGbps <= 0 {
		t.Errorf("no offered-load accounting: %+v", r)
	}
	if r.Latency == nil || r.Latency.Count == 0 {
		t.Error("no latency samples recorded")
	}
	if r.Latency != nil && r.Latency.Count != r.TxPackets {
		t.Errorf("latency samples %d != transmitted packets %d",
			r.Latency.Count, r.TxPackets)
	}
	rep := BuildReport([]*Result{r})
	p := rep.Points[0]
	if p.Workload == nil || p.Latency == nil || p.RxPackets != r.RxPackets {
		t.Errorf("report point lost workload fields: %+v", p)
	}
	// Legacy mode leaves the workload fields zero.
	legacy, err := legacyCfg.Run(apps.MPLS())
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Workload != nil || legacy.Latency != nil || legacy.OfferedGbps != 0 {
		t.Errorf("legacy run grew workload accounting: %+v", legacy)
	}
}
