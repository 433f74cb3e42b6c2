package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/ixp"
	"shangrila/internal/rts"
)

// The execution-engine differential suite: golden snapshots of
// Machine.Snapshot() and the stall breakdown, captured from the
// pre-predecode per-instruction interpreter, locked byte-identical against
// the current engine. Any change to instruction semantics, cycle
// accounting, event ordering, or stall attribution shows up as a golden
// mismatch. Regenerate with:
//
//	go test ./internal/harness -run TestEngineDifferential -update-golden
var updateGolden = flag.Bool("update-golden", false,
	"rewrite the execution-engine golden snapshots from the current engine")

// engineSnapshot is the canonical observable state of one measured run.
// Everything in it must be bit-identical across engine rewrites.
type engineSnapshot struct {
	Cycles        int64            `json:"cycles"`
	RxPackets     uint64           `json:"rx_packets"`
	RxBits        uint64           `json:"rx_bits"`
	TxPackets     uint64           `json:"tx_packets"`
	TxBits        uint64           `json:"tx_bits"`
	FreedPackets  uint64           `json:"freed_packets"`
	RxDropped     uint64           `json:"rx_dropped"`
	RxDroppedBits uint64           `json:"rx_dropped_bits"`
	RingOverflow  []uint64         `json:"ring_overflow"`
	MEAccesses    []string         `json:"me_accesses"`
	MEInstrs      []uint64         `json:"me_instrs"`
	MEBusy        []int64          `json:"me_busy"`
	CtrlBusy      [4]int64         `json:"ctrl_busy"`
	InFlight      int              `json:"in_flight"`
	RingMaxOcc    []int            `json:"ring_max_occ"`
	Stalls        *ixp.StallReport `json:"stalls"`
	LatencyCount  uint64           `json:"latency_count"`
	LatencyMax    int64            `json:"latency_max"`
	Percentiles   map[string]int64 `json:"latency_percentiles"`
}

// canonSnapshot flattens a Stats snapshot into deterministic form: the
// MEAccesses map becomes a sorted "level/class=count" list so the JSON is
// byte-stable.
func canonSnapshot(m *ixp.Machine) *engineSnapshot {
	st := m.Snapshot()
	var acc []string
	for k, v := range st.MEAccesses {
		acc = append(acc, fmt.Sprintf("%v/%v=%d", k.Level, k.Class, v))
	}
	sort.Strings(acc)
	lat := m.Observer().Latency()
	snap := &engineSnapshot{
		Cycles:        st.Cycles,
		RxPackets:     st.RxPackets,
		RxBits:        st.RxBits,
		TxPackets:     st.TxPackets,
		TxBits:        st.TxBits,
		FreedPackets:  st.FreedPackets,
		RxDropped:     st.RxDropped,
		RxDroppedBits: st.RxDroppedBits,
		RingOverflow:  st.RingOverflow,
		MEAccesses:    acc,
		MEInstrs:      st.MEInstrs,
		MEBusy:        st.MEBusy,
		CtrlBusy:      st.Busy,
		InFlight:      m.Observer().InFlight(),
		RingMaxOcc:    m.Observer().RingMaxOcc(),
		Stalls:        m.Observer().StallReport(),
		LatencyCount:  lat.Count,
		LatencyMax:    lat.Max,
		Percentiles: map[string]int64{
			"p50": lat.P50,
			"p90": lat.P90,
			"p99": lat.P99,
		},
	}
	return snap
}

// runDifferentialPoint measures one app × level × ME-count point exactly
// the way measure() does — warm-up, stats reset, measured window, stall
// tracer attached — but keeps the machine so the full snapshot can be
// captured. A non-zero window drives each phase as a series of Run calls
// of at most that many cycles instead of one.
func runDifferentialPoint(t *testing.T, a *apps.App, res *driver.Result, numMEs int, window int64) *engineSnapshot {
	t.Helper()
	trc := a.Trace(res.Prog.Types, 1235, 128)
	rt, err := rts.New(res.Image, res.Prog, trc, rts.Options{NumMEs: numMEs})
	if err != nil {
		t.Fatalf("%s %dME: %v", a.Name, numMEs, err)
	}
	for _, c := range a.Controls {
		if err := rt.Control(c.Name, c.Args...); err != nil {
			t.Fatalf("%s control %s: %v", a.Name, c.Name, err)
		}
	}
	st := ixp.NewStallTracer(rt.M.Cfg.NumMEs, rt.M.Cfg.ThreadsPerME)
	rt.M.Observer().SetTracer(st)
	run := func(cycles int64) error {
		for window > 0 && cycles > window {
			if err := rt.Run(window); err != nil {
				return err
			}
			cycles -= window
		}
		return rt.Run(cycles)
	}
	if err := run(25_000); err != nil {
		t.Fatalf("%s warmup: %v", a.Name, err)
	}
	rt.M.ResetStats()
	if err := run(120_000); err != nil {
		t.Fatalf("%s measure: %v", a.Name, err)
	}
	return canonSnapshot(rt.M)
}

// differentialPoint is one app × level × ME-count golden and the level's
// image, compiled once and shared by every replay of the point.
type differentialPoint struct {
	name string
	app  *apps.App
	res  *driver.Result
	mes  int
}

// The compiled points, built by the first replay to run and shared by the
// rest of the test binary.
var differential struct {
	once   sync.Once
	points []differentialPoint
	err    error
}

// differentialPoints compiles every example application at every
// optimization level once per test binary and returns one point per ME
// placement (the combined single-engine program and a replicated
// pipeline), named after the point's golden.
func differentialPoints(t *testing.T) []differentialPoint {
	t.Helper()
	differential.once.Do(func() {
		for _, a := range apps.All() {
			for _, lvl := range driver.Levels() {
				res, err := Compile(a, lvl, 1234)
				if err != nil {
					differential.err = fmt.Errorf("%s at %v: %v", a.Name, lvl, err)
					return
				}
				for _, mes := range []int{1, 5} {
					name := fmt.Sprintf("%s-%s-%dme", a.Name, lvl, mes)
					differential.points = append(differential.points,
						differentialPoint{name: name, app: a, res: res, mes: mes})
				}
			}
		}
	})
	if differential.err != nil {
		t.Fatal(differential.err)
	}
	return differential.points
}

// checkGolden asserts a snapshot's canonical JSON is byte-identical to the
// named golden, or rewrites the golden when update is set.
func checkGolden(t *testing.T, name string, snap *engineSnapshot, update bool) {
	t.Helper()
	got, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "engine", name+".json")
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run TestEngineDifferential with -update-golden): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("engine output diverged from reference-interpreter golden %s\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// TestEngineDifferential runs every example application at every
// optimization level (and two ME placements) and asserts the canonical
// JSON of the run's observable state — stats, access accounting, stall
// attribution, latency distribution — is byte-identical to the golden
// captured from the reference per-instruction interpreter, with one Run
// call per phase. It is the only replay that rewrites goldens under
// -update-golden; the two below replay the same compiled images.
func TestEngineDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite is slow; run without -short")
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Join("testdata", "engine"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range differentialPoints(t) {
		t.Run(p.name, func(t *testing.T) {
			checkGolden(t, p.name, runDifferentialPoint(t, p.app, p.res, p.mes, 0), *updateGolden)
		})
	}
}

// TestEngineDifferentialParallel replays the goldens with every point's
// machine running concurrently with the others, as Sweep, RunFuzz workers
// and cluster chips run machines on a multi-core host: machines must share
// no mutable state, so each still matches its golden byte for byte (and
// `make race` checks the sharing directly). The name is kept from the
// deleted sharded engine's replay of the same goldens.
func TestEngineDifferentialParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite is slow; run without -short")
	}
	for _, p := range differentialPoints(t) {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, p.name, runDifferentialPoint(t, p.app, p.res, p.mes, 0), false)
		})
	}
}

// TestEngineDifferentialCompiled replays the goldens with every phase
// driven in Run windows of an odd, prime cycle count, so the deadline
// lands mid-activation and between events thousands of times: Machine.Run
// leaves the next event queued at each deadline, and where a run is cut
// must never change simulated state. The deleted staged-compilation engine
// pinned the same budget-edge contract for its batched cycle accounting;
// the name and its shards=0 leg are kept from that replay.
func TestEngineDifferentialCompiled(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite is slow; run without -short")
	}
	t.Run("shards=0", func(t *testing.T) {
		for _, p := range differentialPoints(t) {
			t.Run(p.name, func(t *testing.T) {
				checkGolden(t, p.name, runDifferentialPoint(t, p.app, p.res, p.mes, 997), false)
			})
		}
	})
}

// TestAppsPacketDifferential is the packet-level leg of the differential
// suite, consuming the public oracle: every example application's
// transmitted frames at every optimization level must match the host
// reference interpreter exactly (the same contract the compiler fuzzer
// enforces on generated programs).
func TestAppsPacketDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite is slow; run without -short")
	}
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			rep := Differential(a)
			if !rep.OK() {
				t.Errorf("%s", rep)
			}
			if rep.Injected == 0 || rep.RefFrames == 0 {
				t.Fatalf("vacuous differential: injected=%d ref=%d", rep.Injected, rep.RefFrames)
			}
		})
	}
}
