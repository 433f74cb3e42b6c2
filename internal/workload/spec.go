package workload

import (
	"fmt"
	"math"
)

// Arrival processes.
const (
	ArrivalFixed   = "fixed"   // constant inter-arrival gap at the offered rate
	ArrivalPoisson = "poisson" // exponential gaps with the same mean
	ArrivalOnOff   = "onoff"   // bursts at PeakGbps separated by idle periods
)

// Packet-size mixes. Nominal sizes larger than MaxFrame are clamped to
// the buffer limit (the model's 256B buffers with 64B headroom hold 192B
// frames), preserving the mix's small/large shape.
const (
	SizesMin      = "64"       // minimum-size 64B frames (the paper's worst case)
	SizesIMIX     = "imix"     // classic 7:4:1 IMIX (64/594/1518 nominal)
	SizesTrimodal = "trimodal" // 50/40/10% at 64/512/1500 nominal
)

// DefaultMaxFrame is the largest wire frame the model's packet buffers
// hold: 256B buffers minus 64B headroom.
const DefaultMaxFrame = 192

// Spec describes a deterministic traffic stream: one seed, an arrival
// process, a size mix and a Zipf flow population. The zero values of the
// optional fields pick documented defaults (see Normalize).
type Spec struct {
	Seed        uint64  `json:"seed"`
	Arrival     string  `json:"arrival"`
	Sizes       string  `json:"sizes"`
	OfferedGbps float64 `json:"offered_gbps"`
	// Flows is the flow population size; ZipfS is the skew exponent of
	// the flow popularity distribution (0 = uniform).
	Flows int     `json:"flows,omitempty"`
	ZipfS float64 `json:"zipf_s,omitempty"`
	// BurstMean is the mean packets per ON burst and PeakGbps the rate
	// inside a burst (ArrivalOnOff only).
	BurstMean float64 `json:"burst_mean,omitempty"`
	PeakGbps  float64 `json:"peak_gbps,omitempty"`
	// MaxFrame clamps nominal frame sizes (0 = DefaultMaxFrame).
	MaxFrame int `json:"max_frame,omitempty"`
}

// Normalize fills defaults and validates, returning the effective spec.
func (sp Spec) Normalize() (Spec, error) {
	if err := finite(field{"OfferedGbps", sp.OfferedGbps}, field{"PeakGbps", sp.PeakGbps},
		field{"ZipfS", sp.ZipfS}, field{"BurstMean", sp.BurstMean}); err != nil {
		return sp, err
	}
	if sp.Arrival == "" {
		sp.Arrival = ArrivalFixed
	}
	if sp.Sizes == "" {
		sp.Sizes = SizesMin
	}
	if sp.Flows == 0 {
		sp.Flows = 256
	}
	if sp.MaxFrame == 0 {
		sp.MaxFrame = DefaultMaxFrame
	}
	if sp.BurstMean == 0 {
		sp.BurstMean = 16
	}
	if sp.Arrival == ArrivalOnOff && sp.PeakGbps == 0 {
		sp.PeakGbps = 2 * sp.OfferedGbps
	}
	switch sp.Arrival {
	case ArrivalFixed, ArrivalPoisson, ArrivalOnOff:
	default:
		return sp, fmt.Errorf("workload: unknown arrival process %q", sp.Arrival)
	}
	switch sp.Sizes {
	case SizesMin, SizesIMIX, SizesTrimodal:
	default:
		return sp, fmt.Errorf("workload: unknown size mix %q", sp.Sizes)
	}
	switch {
	case sp.OfferedGbps <= 0:
		return sp, fmt.Errorf("workload: offered load must be positive (got %v Gbps)", sp.OfferedGbps)
	case sp.Flows < 1:
		return sp, fmt.Errorf("workload: flow population must be >= 1 (got %d)", sp.Flows)
	case sp.ZipfS < 0:
		return sp, fmt.Errorf("workload: Zipf exponent must be >= 0 (got %v)", sp.ZipfS)
	case sp.MaxFrame < 64:
		return sp, fmt.Errorf("workload: max frame must be >= 64 bytes (got %d)", sp.MaxFrame)
	case sp.BurstMean < 1:
		return sp, fmt.Errorf("workload: burst mean must be >= 1 packet (got %v)", sp.BurstMean)
	case sp.Arrival == ArrivalOnOff && sp.PeakGbps <= sp.OfferedGbps:
		return sp, fmt.Errorf("workload: ON/OFF peak rate %v Gbps must exceed offered %v",
			sp.PeakGbps, sp.OfferedGbps)
	}
	return sp, nil
}

// field is one float-valued spec field, named for error messages.
type field struct {
	name string
	v    float64
}

// finite rejects NaN and ±Inf: every range check in this package is a
// comparison, and NaN fails all of them, so without this a NaN rate or
// exponent would pass validation.
func finite(fs ...field) error {
	for _, f := range fs {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload: %s must be a finite number (got %v)", f.name, f.v)
		}
	}
	return nil
}

// sizeClass is one point of a size mix.
type sizeClass struct {
	bytes  int
	weight float64
}

// sizeMix returns the (clamped) classes of the spec's mix.
func (sp Spec) sizeMix() []sizeClass {
	clamp := func(b int) int {
		if b > sp.MaxFrame {
			return sp.MaxFrame
		}
		return b
	}
	switch sp.Sizes {
	case SizesIMIX:
		return []sizeClass{
			{clamp(64), 7.0 / 12},
			{clamp(594), 4.0 / 12},
			{clamp(1518), 1.0 / 12},
		}
	case SizesTrimodal:
		return []sizeClass{
			{clamp(64), 0.5},
			{clamp(512), 0.4},
			{clamp(1500), 0.1},
		}
	default:
		return []sizeClass{{64, 1}}
	}
}
