package main

import "strings"

// metricDef names one reported number. Bound is the share of the
// parent's median by which an end-to-end metric may get worse before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// exact marks counts that repeat bit-for-bit for a fixed seed and
	// budget: -repeat and -compare hold them to equality, not to a bound.
	exact bool
}

// endToEnd is what a user of the compiler and simulator waits for. The
// benchmark contract wants every one of them from every workload, never
// zero, so they are phrased per unit of the workload's own work (see
// workUnit) and the ISSUE's per-workload names (simcycles_per_cs, ...)
// are repeated as per-layer aliases.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "work_per_cs", Unit: "1/cs", Better: "higher", Bound: 0.15},
	{Name: "rep_p50_cms", Unit: "cms", Better: "lower", Bound: 0.15},
}

// passNames are the registered compiler passes as Report.Passes prints
// them; metric names replace '+' and '-' with '_'.
var passNames = []string{"profile", "inline+scalar", "soar", "pac", "aggregate",
	"agg-opt", "phr", "swc", "final-opt", "codegen"}

func passMetric(pass, suffix string) string {
	return "driver.pass." + strings.NewReplacer("+", "_", "-", "_").Replace(pass) + "." + suffix
}

// engineNames are the engine variants the traced steady runs compare. A
// name ixp.ParseEngine no longer accepts reports 0, so deleting an
// engine needs no benchmark edit.
var engineNames = []string{"serial", "parallel", "compiled"}

var steadyApps = []string{"l3switch", "firewall", "mpls"}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, exact bool, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better, exact: exact})
		}
	}
	// The ISSUE's per-workload end-to-end names, each non-zero only on
	// the workloads it is defined for.
	add("1/cs", "higher", false, "simcycles_per_cs", "points_per_cs", "compiles_per_cs", "programs_per_cs")
	add("cms", "lower", false, "recompile_p50_cms")
	add("Gbps", "higher", true, "sim.fwd_gbps")
	add("ratio", "lower", true, "bench.failed_share")

	// Frontend.
	add("cms", "lower", false, "baker.lexer.scan_cms", "baker.parser.parse_cms",
		"baker.types.check_cms", "lower.lower_cms", "driver.lower_source_cms")
	add("count", "lower", true, "baker.lexer.tokens", "lower.ir_instrs")
	// Traces and the reference interpreter.
	add("cms", "lower", false, "apps.profile_trace_cms", "apps.trace_cms")
	add("1/cs", "higher", false, "profiler.interp_pkts_per_cs")
	// Pass pipeline and code generation.
	add("cms", "lower", false, "driver.compile_ir_cms")
	for _, p := range passNames {
		add("cms", "lower", false, passMetric(p, "ms"))
	}
	for _, p := range passNames {
		add("count", "lower", true, passMetric(p, "instrs_after"))
	}
	add("count", "lower", true, "cg.code_instrs", "cg.stages")
	add("cms", "lower", false, "ir.verify_cms", "ir.fprint_cms", "ir.clone_cms")
	// Incremental session.
	add("cms", "lower", false, "driver.session.new_cms", "driver.session.cold_cms",
		"driver.session.recompile_tail_cms")
	add("count", "lower", true, "driver.session.passes_executed")
	add("count", "higher", true, "driver.session.passes_skipped")
	add("ratio", "higher", true, "driver.session.skip_ratio")
	add("ratio", "lower", false, "driver.session.incr_over_cold")
	// Machine lifecycle.
	add("cms", "lower", false, "ixp.new_cms", "ixp.load_program_cms", "rts.new_cms",
		"rts.control_cms", "ixp.snapshot_cms", "ixp.run_cms", "harness.run_kernel_cms",
		"harness.run_point_cms", "harness.report_cms")
	add("MB", "lower", false, "ixp.new_alloc_mb")
	// Steady-state engine.
	for _, a := range steadyApps {
		add("1/cs", "higher", false, "ixp.run."+a+".simcycles_per_cs")
	}
	add("ns", "lower", false, "ixp.run.ns_per_instr", "ixp.run.ns_per_memref")
	add("ratio", "higher", true, "ixp.run.instrs_per_simcycle", "ixp.run.memrefs_per_kcycle")
	// Modelled components.
	add("ratio", "higher", true, "ixp.me_util", "ixp.ctrl.scratch.sat", "ixp.ctrl.sram.sat",
		"ixp.ctrl.dram.sat", "ixp.cam.hit_ratio", "ixp.stall.compute", "ixp.stall.mem_latency",
		"ixp.stall.mem_queue", "ixp.stall.ring", "ixp.stall.idle")
	add("count", "lower", true, "ixp.accesses_per_pkt", "ixp.instrs_per_pkt", "ixp.ring_overflows")
	// Engine variants and tracer cost.
	for _, e := range engineNames {
		add("1/cs", "higher", false, "ixp.engine."+e+".simcycles_per_cs")
	}
	add("ratio", "lower", false, "ixp.tracer.stall_overhead")
	// Program generator and fuzz oracle.
	add("cms", "lower", false, "bakergen.newspec_cms", "bakergen.source_cms",
		"harness.differential_cms", "harness.check_invalid_cms")
	add("count", "lower", true, "bakergen.source_bytes")
	// Host and instrument.
	add("MB", "lower", false, "host.alloc_mb_per_op", "host.peak_rss_mb")
	add("count", "lower", false, "host.allocs_per_op", "host.gc_cycles")
	add("Mops/s", "higher", false, "bench.calib_mops_p50", "bench.calib_mops_min")
	add("ratio", "lower", false, "bench.calib_share", "bench.trace_overhead")
	add("ratio", "higher", false, "bench.trace_coverage")
	add("cms", "lower", false, "bench.slice_cms")
	add("1/s", "higher", false, "raw.simcycles_per_s", "raw.points_per_s",
		"raw.compiles_per_s", "raw.programs_per_s")
	add("ms", "lower", false, "raw.recompile_p50_ms")
	return out
}

// spanMetric maps a span name to the per-layer metric holding its
// inclusive calibrated milliseconds; spans without one only appear in
// the trace file.
func spanMetric(name string) string {
	if strings.HasPrefix(name, "ixp.run.") {
		return "ixp.run_cms"
	}
	return name + "_cms"
}

func defsByName(defs []metricDef) map[string]metricDef {
	m := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		m[d.Name] = d
	}
	return m
}
