package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"shangrila/internal/apps"
	"shangrila/internal/cg"
	"shangrila/internal/driver"
	"shangrila/internal/ixp"
)

// state is one set-up instance of a workload: inputs built, images
// compiled, pre-checks passed, caches warm. A workload's work is a fixed
// number of operations (one operation = one timed slice), so simulated
// results and exact counts repeat bit-for-bit for a fixed seed and
// budget.
type state interface {
	// op runs operation i and returns the work it did in the workload's
	// unit. A nil tracer takes the composite path (the call a user
	// makes); a non-nil tracer takes the public decomposition of the same
	// call, recording a span around each layer. Both paths must leave the
	// same simulated results behind.
	op(i int, tr *tracer) (work float64, err error)
	// check validates operation i's outputs. It is not timed.
	check(i int) error
	// finish runs the whole-run checks and returns a digest of every
	// simulated or compiled result the run produced.
	finish() (digest uint64, err error)
	// report adds the workload's exact counts, simulated-side numbers
	// and whatever it derives from its own spans to the per-layer
	// metrics of a traced run.
	report(v *layerView)
}

// layerView is what a traced run hands a state's report: the metrics to
// fill, the per-span table, and the operations' calibrated milliseconds.
type layerView struct {
	out     map[string]float64
	rows    map[string]layerRow
	opCms   []float64
	opRawMs []float64
}

// workload is one named input set.
type workload struct {
	name string
	why  string
	// unit is what work_per_cs counts on this workload.
	unit string
	// alias is the ISSUE's per-workload name for work_per_cs, reported as
	// a per-layer metric together with its raw.* twin ("" for none).
	alias, rawAlias string
	// period is the operations in one repetition of the workload's grid
	// (one slice per application, one pass over the compile jobs, ...):
	// rep_p50_cms is the median over whole repetitions, so operations of
	// unlike cost inside one never decide where the median falls.
	period int
	// opsPerSecond sizes the run: operations per second of --seconds
	// budget on the reference host.
	opsPerSecond float64
	setup        func(seed uint64, ops int) (state, error)
	// probes runs the layer micro-measurements that no operation spans
	// (traced run only); nil when the workload has none.
	probes func(st state, seed uint64, m *meter, tr *tracer, out map[string]float64) error
}

func (w *workload) opsFor(seconds int) int {
	n := int(math.Round(w.opsPerSecond * float64(seconds)))
	if n < 1 {
		n = 1
	}
	return n
}

var workloads = []*workload{
	steadyWorkload("steady_opt"),
	steadyWorkload("steady_base"),
	sweepWorkload(),
	compileColdWorkload(),
	compileIncrWorkload(),
	fuzzWorkload(),
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// benchApps returns fresh instances of the three applications in the
// fixed order every workload uses (it matches steadyApps).
func benchApps() []*apps.App {
	return []*apps.App{apps.L3Switch(), apps.Firewall(), apps.MPLS()}
}

// digest accumulates an FNV-64a hash over numbers in a fixed order.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}
func (d *digest) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}
func (d *digest) str(s string) { d.h.Write([]byte(s)); d.u64(uint64(len(s))) }
func (d *digest) sum() uint64  { return d.h.Sum64() }

// stats folds every counter of a machine snapshot into the digest: Tx
// packets and bits, per-level access counts, executed instructions, CAM
// and controller occupancy.
func (d *digest) stats(st *ixp.Stats) {
	d.u64(uint64(st.Cycles), st.RxPackets, st.RxBits, st.TxPackets, st.TxBits,
		st.FreedPackets, st.RxDropped, st.RxDroppedBits)
	d.u64(st.RingOverflow...)
	keys := make([]ixp.AccessKey, 0, len(st.MEAccesses))
	for k := range st.MEAccesses {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Level != keys[j].Level {
			return keys[i].Level < keys[j].Level
		}
		return keys[i].Class < keys[j].Class
	})
	for _, k := range keys {
		d.u64(uint64(k.Level), uint64(k.Class), st.MEAccesses[k])
	}
	d.u64(st.MEInstrs...)
	for _, v := range st.MEBusy {
		d.u64(uint64(v))
	}
	d.u64(st.CAMLookups...)
	d.u64(st.CAMHits...)
	d.u64(st.CAMClears...)
	for _, v := range st.Busy {
		d.u64(uint64(v))
	}
}

// simTotals are the sums the modelled-component metrics derive from.
type simTotals struct {
	cycles, busy        int64
	meCycles            int64 // cycles x MEs that executed anything
	txPkts, freed       uint64
	instrs, memrefs     uint64
	camLookups, camHits uint64
	ringOverflows       uint64
	ctrlBusy            [4]int64
	gbpsSum             float64
	machines            int
}

func (t *simTotals) add(st *ixp.Stats, clockMHz float64) {
	t.cycles += st.Cycles
	t.machines++
	t.gbpsSum += st.Gbps(clockMHz)
	t.txPkts += st.TxPackets
	t.freed += st.FreedPackets
	for _, v := range st.MEInstrs {
		t.instrs += v
	}
	for _, v := range st.MEBusy {
		if v > 0 {
			t.meCycles += st.Cycles
		}
		t.busy += v
	}
	for _, v := range st.MEAccesses {
		t.memrefs += v
	}
	for i := range st.CAMLookups {
		t.camLookups += st.CAMLookups[i]
		t.camHits += st.CAMHits[i]
	}
	t.ringOverflows += st.ChanOverflows()
	for i, v := range st.Busy {
		t.ctrlBusy[i] += v
	}
}

// imageSizes adds the code sizes and stage counts of compiled images.
func imageSizes(out map[string]float64, images ...*driver.Result) {
	for _, res := range images {
		if res == nil {
			continue
		}
		out["cg.stages"] += float64(len(res.Image.MECode))
		for _, n := range res.Report.CodeSizes {
			out["cg.code_instrs"] += float64(n)
		}
	}
}

// report writes the modelled-component metrics. They are all functions
// of simulated counters, so a host-speed-only change leaves them
// identical.
func (t *simTotals) report(out map[string]float64) {
	if t.cycles == 0 {
		return
	}
	cyc := float64(t.cycles)
	out["sim.fwd_gbps"] = t.gbpsSum / float64(t.machines)
	if t.meCycles > 0 {
		// Busy fraction of the MEs that executed anything.
		out["ixp.me_util"] = float64(t.busy) / float64(t.meCycles)
	}
	out["ixp.ctrl.scratch.sat"] = float64(t.ctrlBusy[cg.MemScratch]) / cyc
	out["ixp.ctrl.sram.sat"] = float64(t.ctrlBusy[cg.MemSRAM]) / cyc
	out["ixp.ctrl.dram.sat"] = float64(t.ctrlBusy[cg.MemDRAM]) / cyc
	if t.camLookups > 0 {
		out["ixp.cam.hit_ratio"] = float64(t.camHits) / float64(t.camLookups)
	}
	if done := t.txPkts + t.freed; done > 0 {
		out["ixp.accesses_per_pkt"] = float64(t.memrefs) / float64(done)
		out["ixp.instrs_per_pkt"] = float64(t.instrs) / float64(done)
	}
	out["ixp.ring_overflows"] = float64(t.ringOverflows)
	out["ixp.run.instrs_per_simcycle"] = float64(t.instrs) / cyc
	out["ixp.run.memrefs_per_kcycle"] = float64(t.memrefs) / cyc * 1e3
}
