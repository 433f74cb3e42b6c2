package workload

import (
	"math"
	"strings"
	"testing"
)

// TestChurnStreamDeterminism pins seeded reproducibility: two streams
// built from the same spec emit identical event sequences.
func TestChurnStreamDeterminism(t *testing.T) {
	sp := ChurnSpec{Seed: 42, UpdatesPerSec: 1000, Arrival: ChurnArrivalPoisson,
		Burst: 4, Items: 8, WithdrawFraction: 0.25}
	a, err := NewChurnStream(sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewChurnStream(sp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		ea, eb := a.Next(), b.Next()
		if ea != eb {
			t.Fatalf("event %d diverged: %+v vs %+v", i, ea, eb)
		}
	}
}

// TestChurnStreamRateAndBurst checks the long-run event rate converges
// to UpdatesPerSec and that bursts are back-to-back (zero gap inside).
func TestChurnStreamRateAndBurst(t *testing.T) {
	for _, arrival := range []string{ChurnArrivalFixed, ChurnArrivalPoisson} {
		cs, err := NewChurnStream(ChurnSpec{Seed: 7, UpdatesPerSec: 500,
			Arrival: arrival, Burst: 3, Items: 4})
		if err != nil {
			t.Fatal(err)
		}
		const n = 6000
		var elapsed float64
		zeroGaps := 0
		for i := 0; i < n; i++ {
			ev := cs.Next()
			elapsed += ev.GapSeconds
			if ev.GapSeconds == 0 {
				zeroGaps++
			}
			if ev.Item < 0 || ev.Item >= 4 {
				t.Fatalf("%s: item %d out of range", arrival, ev.Item)
			}
		}
		rate := float64(n) / elapsed
		if math.Abs(rate-500)/500 > 0.1 {
			t.Errorf("%s: long-run rate %.1f updates/s, want ~500", arrival, rate)
		}
		// Two of every three updates ride inside a burst.
		if want := n * 2 / 3; zeroGaps != want {
			t.Errorf("%s: %d zero-gap events, want %d", arrival, zeroGaps, want)
		}
	}
}

// TestChurnStreamVersions checks per-item versions count each item's
// updates monotonically from 1.
func TestChurnStreamVersions(t *testing.T) {
	cs, err := NewChurnStream(ChurnSpec{Seed: 3, UpdatesPerSec: 100, Items: 5})
	if err != nil {
		t.Fatal(err)
	}
	last := make(map[int]uint64)
	for i := 0; i < 200; i++ {
		ev := cs.Next()
		if ev.Version != last[ev.Item]+1 {
			t.Fatalf("item %d jumped from version %d to %d", ev.Item, last[ev.Item], ev.Version)
		}
		last[ev.Item] = ev.Version
	}
}

// TestChurnSpecValidation covers the rejection paths of Normalize.
func TestChurnSpecValidation(t *testing.T) {
	bad := []ChurnSpec{
		{UpdatesPerSec: 0},
		{UpdatesPerSec: 100, Arrival: "onoff"},
		{UpdatesPerSec: 100, Burst: -1},
		{UpdatesPerSec: 100, Items: -2},
		{UpdatesPerSec: 100, WithdrawFraction: 1},
	}
	for _, sp := range bad {
		if _, err := NewChurnStream(sp); err == nil {
			t.Errorf("spec %+v accepted, want error", sp)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		field string
		sp    ChurnSpec
	}{
		{"UpdatesPerSec", ChurnSpec{UpdatesPerSec: nan}},
		{"UpdatesPerSec", ChurnSpec{UpdatesPerSec: inf}},
		{"WithdrawFraction", ChurnSpec{UpdatesPerSec: 100, WithdrawFraction: nan}},
		{"WithdrawFraction", ChurnSpec{UpdatesPerSec: 100, WithdrawFraction: -inf}},
	} {
		_, err := NewChurnStream(c.sp)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: error %v, want one naming %s", c.sp, err, c.field)
		}
	}
	if _, err := NewChurnStream(ChurnSpec{UpdatesPerSec: 100}); err != nil {
		t.Errorf("minimal spec rejected: %v", err)
	}
}
