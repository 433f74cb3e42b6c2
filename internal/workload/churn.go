package workload

import (
	"fmt"
	"math"
)

// Control-plane churn arrival processes. Churn reuses the data-plane
// arrival names where they make sense; ON/OFF burstiness is expressed
// through Burst instead (updates arrive in back-to-back groups).
const (
	ChurnArrivalFixed   = ArrivalFixed
	ChurnArrivalPoisson = ArrivalPoisson
)

// ChurnSpec describes a deterministic control-plane update stream: route
// add/withdraw or rule-update events against a fixed population of
// policy items, at a configurable rate with optional bursts. The zero
// values of the optional fields pick documented defaults (Normalize).
type ChurnSpec struct {
	Seed          uint64  `json:"seed"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
	// Arrival is the inter-burst arrival process (fixed or poisson).
	Arrival string `json:"arrival,omitempty"`
	// Burst is the number of back-to-back updates per arrival (>= 1);
	// updates inside a burst are separated by zero gap, modelling a BGP
	// batch or a policy push touching several rules at once.
	Burst int `json:"burst,omitempty"`
	// Items is the population of churned policy items (routes, firewall
	// rules, label entries); each update picks one uniformly.
	Items int `json:"items,omitempty"`
	// WithdrawFraction is the probability an update withdraws its item
	// instead of (re-)announcing it with new state.
	WithdrawFraction float64 `json:"withdraw_fraction,omitempty"`
}

// Normalize fills defaults and validates, returning the effective spec.
func (sp ChurnSpec) Normalize() (ChurnSpec, error) {
	if err := finite(field{"UpdatesPerSec", sp.UpdatesPerSec}, field{"WithdrawFraction", sp.WithdrawFraction}); err != nil {
		return sp, err
	}
	if sp.Arrival == "" {
		sp.Arrival = ChurnArrivalFixed
	}
	if sp.Burst == 0 {
		sp.Burst = 1
	}
	if sp.Items == 0 {
		sp.Items = 1
	}
	switch sp.Arrival {
	case ChurnArrivalFixed, ChurnArrivalPoisson:
	default:
		return sp, fmt.Errorf("workload: unknown churn arrival process %q", sp.Arrival)
	}
	switch {
	case sp.UpdatesPerSec <= 0:
		return sp, fmt.Errorf("workload: churn rate must be positive (got %v updates/s)", sp.UpdatesPerSec)
	case sp.Burst < 1:
		return sp, fmt.Errorf("workload: churn burst must be >= 1 update (got %d)", sp.Burst)
	case sp.Items < 1:
		return sp, fmt.Errorf("workload: churn item population must be >= 1 (got %d)", sp.Items)
	case sp.WithdrawFraction < 0 || sp.WithdrawFraction >= 1:
		return sp, fmt.Errorf("workload: withdraw fraction must be in [0,1) (got %v)", sp.WithdrawFraction)
	}
	return sp, nil
}

// ChurnEvent is one control-plane update: the time since the previous
// event, the policy item it touches, that item's per-item update count
// (1-based — the consumer maps it to concrete policy state), and whether
// the item is withdrawn rather than re-announced.
type ChurnEvent struct {
	GapSeconds float64
	Item       int
	Version    uint64
	Withdraw   bool
}

// ChurnStream generates a deterministic update sequence from a
// ChurnSpec. Like Stream it is not goroutine-safe.
type ChurnStream struct {
	spec     ChurnSpec
	src      *Source
	versions []uint64 // per-item update counts
	inBurst  int      // updates remaining in the current burst
}

// NewChurnStream validates the spec (filling defaults) and builds a
// stream.
func NewChurnStream(sp ChurnSpec) (*ChurnStream, error) {
	sp, err := sp.Normalize()
	if err != nil {
		return nil, err
	}
	return &ChurnStream{
		spec:     sp,
		src:      NewSource(sp.Seed),
		versions: make([]uint64, sp.Items),
	}, nil
}

// Spec returns the stream's effective (normalized) spec.
func (cs *ChurnStream) Spec() ChurnSpec { return cs.spec }

// Next generates one update. The long-run event rate converges to the
// spec's UpdatesPerSec for both arrival processes: bursts of size B
// arrive every B/rate seconds (fixed exactly, Poisson in expectation)
// with zero gap inside a burst.
func (cs *ChurnStream) Next() ChurnEvent {
	var gap float64
	if cs.inBurst > 0 {
		cs.inBurst--
	} else {
		mean := float64(cs.spec.Burst) / cs.spec.UpdatesPerSec
		switch cs.spec.Arrival {
		case ChurnArrivalPoisson:
			gap = mean * -math.Log(1-cs.src.Float64())
		default: // fixed
			gap = mean
		}
		cs.inBurst = cs.spec.Burst - 1
	}
	item := cs.src.Intn(cs.spec.Items)
	withdraw := cs.spec.WithdrawFraction > 0 && cs.src.Float64() < cs.spec.WithdrawFraction
	cs.versions[item]++
	return ChurnEvent{
		GapSeconds: gap,
		Item:       item,
		Version:    cs.versions[item],
		Withdraw:   withdraw,
	}
}
