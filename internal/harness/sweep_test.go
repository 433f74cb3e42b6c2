package harness

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
)

// sweepTestPoints is a small app × level × ME grid exercising the
// compile cache (several points share a compilation) and mixed seeds.
func sweepTestPoints() []Point {
	var points []Point
	for _, a := range []*apps.App{apps.L3Switch(), apps.MPLS()} {
		for _, lvl := range []driver.Level{driver.LevelBase, driver.LevelSWC} {
			for _, n := range []int{2, 4} {
				points = append(points, Point{App: a, Level: lvl, NumMEs: n, Seed: 7})
			}
		}
	}
	return points
}

func sweepCfg(workers int) RunConfig {
	cfg := DefaultRunConfig()
	cfg.Warmup, cfg.Measure = 60_000, 200_000
	cfg.TraceN, cfg.Telemetry, cfg.Workers = 128, true, workers
	return cfg
}

// TestSweepDeterminism requires byte-identical canonical reports from a
// serial and a fully parallel sweep over the same points. Run it at
// several scheduler widths with `go test -run TestSweep -cpu 1,4`.
func TestSweepDeterminism(t *testing.T) {
	points := sweepTestPoints()
	serial, err := Sweep(points, sweepCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Sweep(points, sweepCfg(runtime.GOMAXPROCS(0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(points) || len(parallel) != len(points) {
		t.Fatalf("result counts %d/%d, want %d", len(serial), len(parallel), len(points))
	}
	for i, r := range serial {
		if r.App != points[i].App.Name || r.Level != points[i].Level ||
			r.NumMEs != points[i].NumMEs || r.Seed != points[i].Seed {
			t.Fatalf("result %d out of order: %s %v %dME seed %d", i,
				r.App, r.Level, r.NumMEs, r.Seed)
		}
	}
	a, err := BuildReport(serial).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildReport(parallel).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		for i := range serial {
			if serial[i].Gbps != parallel[i].Gbps || serial[i].TxPackets != parallel[i].TxPackets {
				t.Errorf("point %d diverged: %.4f/%d vs %.4f/%d",
					i, serial[i].Gbps, serial[i].TxPackets,
					parallel[i].Gbps, parallel[i].TxPackets)
			}
		}
		t.Fatal("canonical reports differ between 1 worker and GOMAXPROCS workers")
	}
}

// TestSweepTelemetryPopulated checks every sweep point carries the
// telemetry the bench report promises.
func TestSweepTelemetry(t *testing.T) {
	points := sweepTestPoints()[:2]
	results, err := Sweep(points, sweepCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		tel := r.Telemetry
		if tel == nil {
			t.Fatalf("point %d: no telemetry", i)
		}
		if len(tel.MEUtilization) == 0 || len(tel.RingMaxOcc) == 0 {
			t.Errorf("point %d: empty telemetry summary %+v", i, tel)
		}
		busy := 0.0
		for _, u := range tel.MEUtilization {
			busy += u
		}
		if busy <= 0 {
			t.Errorf("point %d: all MEs idle", i)
		}
		if len(tel.Series) == 0 {
			t.Errorf("point %d: no sampled series", i)
		}
		if len(r.CompilePasses) == 0 {
			t.Errorf("point %d: no compile pass timings", i)
		}
	}
}

// TestSweepRejectsRunOnlyFields: a Chrome-trace writer is one document for
// one run, and a compiled image is one level at one seed, so a sweep given
// either is an error before anything compiles, never an input dropped in
// silence, and so is every runner that sweeps.
func TestSweepRejectsRunOnlyFields(t *testing.T) {
	var buf bytes.Buffer
	traced := sweepCfg(1)
	traced.ChromeTrace = &buf
	compiled := sweepCfg(1)
	compiled.Compiled = &driver.Result{}
	for _, tc := range []struct {
		cfg  RunConfig
		want string
	}{{traced, "Chrome trace"}, {compiled, "Compiled image"}} {
		if _, err := Sweep(sweepTestPoints(), tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Sweep: err = %v, want an error naming the %s", err, tc.want)
		}
		_, err := LoadLatency([]*apps.App{apps.L3Switch()}, []driver.Level{driver.LevelSWC}, []float64{1}, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("LoadLatency: err = %v, want an error naming the %s", err, tc.want)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("a refused sweep wrote %d trace bytes", buf.Len())
	}
}
