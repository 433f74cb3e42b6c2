package harness

import (
	"fmt"
	"strings"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/ixp"
	"shangrila/internal/metrics"
	"shangrila/internal/workload"
)

// LoadPoint is one offered-load step of a load–latency curve.
type LoadPoint struct {
	OfferedGbps float64 `json:"offered_gbps"`
	// GoodputGbps is the transmitted (not offered) rate over the window.
	GoodputGbps float64 `json:"goodput_gbps"`
	// DropRate is the fraction of offered packets lost at the Rx ring.
	DropRate float64 `json:"drop_rate"`
	// RxDropped counts Rx-ring saturation losses; ChanOverflows counts
	// ME channel-ring put rejections (backpressure, not loss); AppDrops
	// counts packets the application itself freed.
	RxDropped     uint64 `json:"rx_dropped"`
	ChanOverflows uint64 `json:"chan_overflows"`
	AppDrops      uint64 `json:"app_drops"`
	// Latency summarizes Rx→Tx cycles of transmitted packets.
	Latency metrics.HistogramSnapshot `json:"latency_cycles"`
	// Stalls is the per-ME stall breakdown at this offered load, non-nil
	// when the sweep ran with RunConfig.Stalls. Reading it across the
	// curve shows what the latency knee is made of (§6.2: DRAM queueing).
	Stalls *ixp.StallReport `json:"stall_breakdown,omitempty"`
}

// LoadCurve is one app × level load sweep: goodput, drop rate and latency
// quantiles against offered load (the paper's Figure 9 shape: goodput
// tracks offered load until the service rate saturates, where the latency
// tail turns up and losses begin).
type LoadCurve struct {
	App      string        `json:"app"`
	Level    string        `json:"level"`
	NumMEs   int           `json:"num_mes"`
	Seed     uint64        `json:"seed"`
	Workload workload.Spec `json:"workload"`
	Points   []LoadPoint   `json:"points"`
}

// LoadLatency sweeps offered load for every app × level combination,
// producing one curve per combination. Each combination compiles once;
// all load points fan out across the sweep workers. The workload shape
// (arrival process, size mix, flow locality) comes from cfg.Workload; a
// nil spec uses fixed arrivals of 64B frames. The spec's own OfferedGbps
// is ignored — `loads` drives it.
func LoadLatency(appList []*apps.App, levels []driver.Level, loads []float64, cfg RunConfig) ([]*LoadCurve, error) {
	if len(loads) == 0 {
		// Well under to well past the model's per-port service capacity.
		loads = []float64{0.25, 0.5, 1, 1.5, 2, 2.5, 3}
	}
	var points []Point
	for _, a := range appList {
		for _, lvl := range levels {
			for _, g := range loads {
				points = append(points, Point{
					App: a, Level: lvl, NumMEs: cfg.NumMEs,
					Seed: cfg.Seed, OfferedGbps: g,
				})
			}
		}
	}
	results, err := Sweep(points, cfg)
	if err != nil {
		return nil, err
	}
	var curves []*LoadCurve
	i := 0
	for _, a := range appList {
		for _, lvl := range levels {
			c := &LoadCurve{
				App: a.Name, Level: lvl.String(),
				NumMEs: cfg.NumMEs, Seed: cfg.Seed,
			}
			for range loads {
				r := results[i]
				i++
				if r.Workload != nil {
					c.Workload = *r.Workload
					c.Workload.OfferedGbps = 0 // per-point, not per-curve
				}
				lp := LoadPoint{
					OfferedGbps:   r.OfferedGbps,
					GoodputGbps:   r.Gbps,
					DropRate:      r.DropRate(),
					RxDropped:     r.RxDropped,
					ChanOverflows: r.ChanOverflows,
					AppDrops:      r.AppDrops,
					Stalls:        r.Stalls,
				}
				if r.Latency != nil {
					lp.Latency = *r.Latency
				}
				c.Points = append(c.Points, lp)
			}
			curves = append(curves, c)
		}
	}
	return curves, nil
}

// FormatLoadLatency renders the curves as aligned text tables.
func FormatLoadLatency(curves []*LoadCurve) string {
	var b strings.Builder
	for _, c := range curves {
		fmt.Fprintf(&b, "%s %s (%d MEs, seed %d, %s/%s arrivals)\n",
			c.App, c.Level, c.NumMEs, c.Seed,
			orDefault(c.Workload.Arrival, workload.ArrivalFixed),
			orDefault(c.Workload.Sizes, workload.SizesMin))
		fmt.Fprintf(&b, "  %9s %9s %8s %10s %10s %10s\n",
			"offered", "goodput", "drop", "p50(cyc)", "p99(cyc)", "max(cyc)")
		for _, p := range c.Points {
			fmt.Fprintf(&b, "  %8.2fG %8.2fG %7.2f%% %10d %10d %10d\n",
				p.OfferedGbps, p.GoodputGbps, 100*p.DropRate,
				p.Latency.P50, p.Latency.P99, p.Latency.Max)
		}
	}
	return b.String()
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
