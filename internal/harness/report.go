package harness

import (
	"encoding/json"
	"io"

	"shangrila/internal/driver"
	"shangrila/internal/ixp"
	"shangrila/internal/metrics"
	"shangrila/internal/workload"
)

// ReportPoint is one sweep point in the machine-readable bench report.
type ReportPoint struct {
	App    string `json:"app"`
	Level  string `json:"level"`
	NumMEs int    `json:"num_mes"`
	Seed   uint64 `json:"seed"`
	// Engine and Shards record ixp.Machine.EngineInfo: always "serial"
	// and 0 (omitted) since one engine remains; the schema keeps them.
	Engine string `json:"engine"`
	Shards int    `json:"shards,omitempty"`

	Gbps      float64 `json:"gbps"`
	TxPackets uint64  `json:"tx_packets"`
	// PerPacket holds the Table 1 columns keyed by
	// {pkt_scratch, pkt_sram, pkt_dram, app_scratch, app_sram}.
	PerPacket map[string]float64 `json:"per_packet"`

	CodeSizes     []int               `json:"code_sizes,omitempty"`
	Stages        int                 `json:"stages,omitempty"`
	CompilePasses []driver.PassTiming `json:"compile_passes,omitempty"`
	Telemetry     *Telemetry          `json:"telemetry,omitempty"`
	// Stalls is the conservative per-ME stall breakdown (RunConfig.Stalls).
	Stalls *ixp.StallReport `json:"stall_breakdown,omitempty"`

	// Workload-mode fields (set when the point ran with RunConfig.Workload).
	Workload      *workload.Spec             `json:"workload,omitempty"`
	OfferedGbps   float64                    `json:"offered_gbps,omitempty"`
	RxPackets     uint64                     `json:"rx_packets,omitempty"`
	RxDropped     uint64                     `json:"rx_dropped,omitempty"`
	ChanOverflows uint64                     `json:"chan_overflows,omitempty"`
	AppDrops      uint64                     `json:"app_drops,omitempty"`
	Latency       *metrics.HistogramSnapshot `json:"latency_cycles,omitempty"`
}

// BenchReport is the top-level bench_report.json document.
type BenchReport struct {
	Schema string `json:"schema"`
	// Experiments names the experiments that contributed to this report,
	// in execution order, as the CLIs record each one they run.
	Experiments []string      `json:"experiments,omitempty"`
	Points      []ReportPoint `json:"points"`
	// LoadLatency holds load–latency curves when the loadlatency
	// experiment ran.
	LoadLatency []*LoadCurve `json:"load_latency,omitempty"`
	// Churn holds the control-plane churn timelines when the churn
	// experiment ran.
	Churn []*ChurnResult `json:"churn,omitempty"`
	// Cluster holds multi-NPU line-card runs: topology, per-chip
	// goodput/imbalance, bucketed timelines and merged tail latency.
	Cluster []*ClusterResult `json:"cluster,omitempty"`
	// Fuzz holds compiler-fuzzing campaign results: programs run,
	// feature-coverage histogram, and any (minimized) divergent
	// reproducers.
	Fuzz []*FuzzResult `json:"fuzz,omitempty"`
}

// ReportSchema versions the bench report layout. v2 added the
// workload-mode point fields and the load_latency section; v3 records
// the simulation engine (and shard count) per point; v4 adds the churn
// section (goodput/latency timelines under control-plane update storms
// plus full-vs-incremental compile latency); v5 adds the experiments
// list and the cluster section (multi-NPU topology and per-chip
// points), with every experiment feeding one report builder; v6 adds
// the fuzz section (compiler-fuzzing campaign statistics and minimized
// divergence reproducers).
const ReportSchema = "shangrila-bench/v6"

// ReportBuilder accumulates every experiment's machine-readable output
// into one schema-v6 document — the single report-assembly path all
// experiments share.
type ReportBuilder struct {
	rep     BenchReport
	expSeen map[string]bool
}

// NewReportBuilder returns an empty builder at the current schema.
func NewReportBuilder() *ReportBuilder {
	return &ReportBuilder{
		rep:     BenchReport{Schema: ReportSchema},
		expSeen: map[string]bool{},
	}
}

// RecordExperiment notes that the named experiment contributed
// (idempotent; order of first contribution is kept).
func (b *ReportBuilder) RecordExperiment(name string) {
	if name == "" || b.expSeen[name] {
		return
	}
	b.expSeen[name] = true
	b.rep.Experiments = append(b.rep.Experiments, name)
}

// AddResults appends sweep results as report points, in result order.
func (b *ReportBuilder) AddResults(results []*Result) {
	for _, r := range results {
		b.rep.Points = append(b.rep.Points, ReportPoint{
			App:    r.App,
			Level:  r.Level.String(),
			NumMEs: r.NumMEs,
			Seed:   r.Seed,
			Engine: r.Engine,
			Shards: r.Shards,
			Gbps:   r.Gbps,
			PerPacket: map[string]float64{
				"pkt_scratch": r.PktScratch,
				"pkt_sram":    r.PktSRAM,
				"pkt_dram":    r.PktDRAM,
				"app_scratch": r.AppScratch,
				"app_sram":    r.AppSRAM,
			},
			TxPackets:     r.TxPackets,
			CodeSizes:     r.CodeSizes,
			Stages:        r.Stages,
			CompilePasses: r.CompilePasses,
			Telemetry:     r.Telemetry,
			Stalls:        r.Stalls,
			Workload:      r.Workload,
			OfferedGbps:   r.OfferedGbps,
			RxPackets:     r.RxPackets,
			RxDropped:     r.RxDropped,
			ChanOverflows: r.ChanOverflows,
			AppDrops:      r.AppDrops,
			Latency:       r.Latency,
		})
	}
}

// AddLoadCurves appends load–latency curves.
func (b *ReportBuilder) AddLoadCurves(curves []*LoadCurve) {
	b.rep.LoadLatency = append(b.rep.LoadLatency, curves...)
}

// AddChurn appends control-plane churn timelines.
func (b *ReportBuilder) AddChurn(results []*ChurnResult) {
	b.rep.Churn = append(b.rep.Churn, results...)
}

// AddCluster appends multi-NPU cluster runs.
func (b *ReportBuilder) AddCluster(results []*ClusterResult) {
	b.rep.Cluster = append(b.rep.Cluster, results...)
}

// AddFuzz appends a compiler-fuzzing campaign result.
func (b *ReportBuilder) AddFuzz(r *FuzzResult) {
	b.rep.Fuzz = append(b.rep.Fuzz, r)
}

// Empty reports whether nothing measurable was added (experiment names
// alone don't make a report worth writing).
func (b *ReportBuilder) Empty() bool {
	r := &b.rep
	return len(r.Points) == 0 && len(r.LoadLatency) == 0 &&
		len(r.Churn) == 0 && len(r.Cluster) == 0 && len(r.Fuzz) == 0
}

// Report returns the assembled document.
func (b *ReportBuilder) Report() *BenchReport { return &b.rep }

// BuildReport converts sweep results into the export document, in result
// order (a convenience wrapper over the builder).
func BuildReport(results []*Result) *BenchReport {
	b := NewReportBuilder()
	b.AddResults(results)
	return b.Report()
}

// WriteJSON writes the report as indented JSON (map keys marshal sorted,
// so identical reports produce identical bytes).
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// CanonicalJSON returns the report's deterministic byte form: wall-clock
// pass timings are zeroed (they vary run to run) while every simulated
// quantity — rates, access counts, telemetry, IR sizes — is kept. Two
// sweeps over the same points with the same seeds must produce identical
// canonical bytes at any worker count.
func (r *BenchReport) CanonicalJSON() ([]byte, error) {
	cp := BenchReport{
		Schema:      r.Schema,
		Experiments: r.Experiments,
		Points:      make([]ReportPoint, len(r.Points)),
		LoadLatency: r.LoadLatency,
		Churn:       make([]*ChurnResult, len(r.Churn)),
		// Cluster runs are fully simulated — no wall-clock fields —
		// so they pass through unchanged.
		Cluster: r.Cluster,
		Fuzz:    make([]*FuzzResult, len(r.Fuzz)),
	}
	copy(cp.Points, r.Points)
	for i := range cp.Points {
		if n := len(cp.Points[i].CompilePasses); n > 0 {
			passes := make([]driver.PassTiming, n)
			copy(passes, cp.Points[i].CompilePasses)
			for j := range passes {
				passes[j].Nanos = 0
				passes[j].VerifyNanos = 0
			}
			cp.Points[i].CompilePasses = passes
		}
	}
	// Churn timelines are fully simulated (byte-stable); only the
	// wall-clock compile-latency percentiles vary, so they are zeroed
	// while the deterministic pass counts stay.
	for i, cr := range r.Churn {
		c := *cr
		if c.Compile != nil {
			cl := *c.Compile
			cl.ColdP50Nanos, cl.ColdP99Nanos = 0, 0
			cl.IncP50Nanos, cl.IncP99Nanos = 0, 0
			c.Compile = &cl
		}
		cp.Churn[i] = &c
	}
	if len(cp.Churn) == 0 {
		cp.Churn = nil
	}
	// Fuzz campaigns are deterministic except for throughput timing.
	for i, fr := range r.Fuzz {
		f := *fr
		f.ElapsedNanos, f.ProgramsPerSec = 0, 0
		cp.Fuzz[i] = &f
	}
	if len(cp.Fuzz) == 0 {
		cp.Fuzz = nil
	}
	return json.MarshalIndent(&cp, "", "  ")
}
