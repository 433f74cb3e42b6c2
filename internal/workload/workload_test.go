package workload

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSourceDeterministic(t *testing.T) {
	a, b := NewSource(42), NewSource(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewSource(43)
	same := true
	a = NewSource(42)
	for i := 0; i < 10; i++ {
		if a.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestSourceSequencePinned pins the SplitMix64 output so application
// traces (and with them the claims-test throughput ratios) cannot drift
// when the randomness surface is refactored.
func TestSourceSequencePinned(t *testing.T) {
	s := NewSource(1234)
	want := []uint64{
		0xbb0cf61b2f181cdb, 0x97c7a1364df06524, 0x33befae49bc025da,
	}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("Next()[%d] = %#x, want %#x (SplitMix64 sequence changed)", i, got, w)
		}
	}
}

func TestPrefixMatchProperty(t *testing.T) {
	r := NewSource(7)
	f := func(seed uint64) bool {
		pfs := NewSource(seed).GenPrefixes(8)
		for _, pf := range pfs {
			if !pf.Match(r.AddrInPrefix(pf)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGenPrefixesDistinctNextHops(t *testing.T) {
	pfs := NewSource(1).GenPrefixes(32)
	seen := map[uint32]bool{}
	for _, pf := range pfs {
		if seen[pf.NextHop] {
			t.Fatalf("duplicate next hop %d", pf.NextHop)
		}
		seen[pf.NextHop] = true
		if pf.Len < 8 || pf.Len > 24 {
			t.Fatalf("prefix length %d out of range", pf.Len)
		}
		mask := ^uint32(0) << uint(32-pf.Len)
		if pf.Addr&^mask != 0 {
			t.Fatalf("prefix %08x has host bits set", pf.Addr)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{OfferedGbps: 0},
		{OfferedGbps: -1},
		{OfferedGbps: 1, Arrival: "burst"},
		{OfferedGbps: 1, Sizes: "jumbo"},
		{OfferedGbps: 1, Flows: -3},
		{OfferedGbps: 1, ZipfS: -0.5},
		{OfferedGbps: 1, MaxFrame: 32},
		{OfferedGbps: 1, Arrival: ArrivalOnOff, PeakGbps: 0.5},
	}
	for i, sp := range bad {
		if _, err := sp.Normalize(); err == nil {
			t.Errorf("case %d: %+v normalized without error", i, sp)
		}
	}
	// NaN fails every comparison, so each float field needs its own
	// finiteness check; the error names the field.
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		field string
		sp    Spec
	}{
		{"OfferedGbps", Spec{OfferedGbps: nan}},
		{"OfferedGbps", Spec{OfferedGbps: inf}},
		{"OfferedGbps", Spec{OfferedGbps: -inf}},
		{"PeakGbps", Spec{OfferedGbps: 1, Arrival: ArrivalOnOff, PeakGbps: nan}},
		{"PeakGbps", Spec{OfferedGbps: 1, Arrival: ArrivalOnOff, PeakGbps: inf}},
		{"ZipfS", Spec{OfferedGbps: 1, ZipfS: nan}},
		{"ZipfS", Spec{OfferedGbps: 1, ZipfS: inf}},
		{"BurstMean", Spec{OfferedGbps: 1, Arrival: ArrivalOnOff, BurstMean: nan}},
		{"BurstMean", Spec{OfferedGbps: 1, BurstMean: inf}},
	} {
		_, err := c.sp.Normalize()
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: error %v, want one naming %s", c.sp, err, c.field)
		}
	}
	sp, err := Spec{Seed: 9, OfferedGbps: 2}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Arrival != ArrivalFixed || sp.Sizes != SizesMin ||
		sp.Flows != 256 || sp.MaxFrame != DefaultMaxFrame {
		t.Errorf("defaults not applied: %+v", sp)
	}
}

// TestStreamDeterminism: every arrival process replays the identical
// packet sequence for the same seed.
func TestStreamDeterminism(t *testing.T) {
	for _, arrival := range []string{ArrivalFixed, ArrivalPoisson, ArrivalOnOff} {
		spec := Spec{Seed: 77, Arrival: arrival, Sizes: SizesIMIX,
			OfferedGbps: 2, ZipfS: 1.1}
		a, err := NewStream(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewStream(spec)
		for i := 0; i < 10_000; i++ {
			pa, pb := a.Next(), b.Next()
			if pa != pb {
				t.Fatalf("%s: packet %d diverged: %+v vs %+v", arrival, i, pa, pb)
			}
		}
	}
}

// TestStreamMeanRate: the long-run bit rate of each arrival process
// converges to the offered load.
func TestStreamMeanRate(t *testing.T) {
	for _, arrival := range []string{ArrivalFixed, ArrivalPoisson, ArrivalOnOff} {
		for _, sizes := range []string{SizesMin, SizesIMIX, SizesTrimodal} {
			st, err := NewStream(Spec{Seed: 5, Arrival: arrival, Sizes: sizes,
				OfferedGbps: 2.5})
			if err != nil {
				t.Fatal(err)
			}
			var bits, secs float64
			for i := 0; i < 200_000; i++ {
				p := st.Next()
				bits += float64(p.FrameBytes * 8)
				secs += p.GapSeconds
			}
			rate := bits / secs / 1e9
			if rate < 2.5*0.98 || rate > 2.5*1.02 {
				t.Errorf("%s/%s: long-run rate %.3f Gbps, want 2.5 +/- 2%%",
					arrival, sizes, rate)
			}
		}
	}
}

// TestZipfSkew: with s > 0 the most popular flow dominates its uniform
// share; with s = 0 the distribution is near-uniform.
func TestZipfSkew(t *testing.T) {
	count := func(s float64) []int {
		st, err := NewStream(Spec{Seed: 3, OfferedGbps: 1, Flows: 64, ZipfS: s})
		if err != nil {
			t.Fatal(err)
		}
		n := make([]int, 64)
		for i := 0; i < 50_000; i++ {
			n[st.Next().Flow]++
		}
		return n
	}
	skewed := count(1.2)
	if skewed[0] < 5*50_000/64 {
		t.Errorf("Zipf s=1.2: top flow got %d of 50000, want heavy skew", skewed[0])
	}
	for f := 1; f < 64; f++ {
		if skewed[f] > skewed[0] {
			t.Errorf("flow %d more popular than rank 1 under Zipf", f)
		}
	}
	uniform := count(0)
	share := 50_000 / 64
	if uniform[0] > 2*share || uniform[63] < share/2 {
		t.Errorf("s=0 not near-uniform: first %d last %d (share %d)",
			uniform[0], uniform[63], share)
	}
}

// TestSizeMixFrequencies: observed class frequencies match the mix
// weights and every frame respects the buffer clamp.
func TestSizeMixFrequencies(t *testing.T) {
	st, err := NewStream(Spec{Seed: 11, OfferedGbps: 1, Sizes: SizesTrimodal})
	if err != nil {
		t.Fatal(err)
	}
	freq := map[int]int{}
	const n = 100_000
	for i := 0; i < n; i++ {
		p := st.Next()
		if p.FrameBytes < 64 || p.FrameBytes > DefaultMaxFrame {
			t.Fatalf("frame %dB outside [64,%d]", p.FrameBytes, DefaultMaxFrame)
		}
		freq[p.FrameBytes]++
	}
	// Trimodal clamps 512 and 1500 to 192: 50% at 64B, 50% at 192B.
	if f := float64(freq[64]) / n; f < 0.48 || f > 0.52 {
		t.Errorf("64B frequency %.3f, want ~0.50", f)
	}
	if f := float64(freq[192]) / n; f < 0.48 || f > 0.52 {
		t.Errorf("192B frequency %.3f, want ~0.50", f)
	}
}
