package metrics

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

// TestHistogramExactSmallSamples pins the quantile rule on small exact
// inputs: every value below 2*histSubCount sits in a unit bucket, so the
// quantile is the exact order statistic at rank ceil(q*n).
func TestHistogramExactSmallSamples(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{1, 2, 3, 4} {
		h.Record(v)
	}
	cases := []struct {
		q    float64
		want int64
	}{
		{0.0, 1},  // rank clamps to 1
		{0.25, 1}, // ceil(0.25*4) = 1
		{0.5, 2},  // ceil(0.5*4) = 2
		{0.51, 3}, // ceil(2.04) = 3
		{0.75, 3},
		{0.99, 4},
		{1.0, 4},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if h.Count() != 4 || h.Max() != 4 {
		t.Errorf("count=%d max=%d, want 4/4", h.Count(), h.Max())
	}
	if m := h.Mean(); m != 2.5 {
		t.Errorf("mean = %v, want 2.5", m)
	}
}

// TestHistogramBucketBoundaries verifies the log-bucket mapping at octave
// boundaries: 63 is still exact, 64 and 65 share the first 2-wide bucket,
// and both bounds round-trip through bucketIndex/bucketBounds.
func TestHistogramBucketBoundaries(t *testing.T) {
	if bucketIndex(63) == bucketIndex(64) {
		t.Error("63 and 64 share a bucket; 63 must stay exact")
	}
	if bucketIndex(64) != bucketIndex(65) {
		t.Error("64 and 65 should share the first 2-wide bucket")
	}
	if bucketIndex(65) == bucketIndex(66) {
		t.Error("65 and 66 must not share a bucket")
	}
	for _, v := range []int64{0, 1, 31, 32, 63, 64, 127, 128, 1 << 20, 1<<20 + 3} {
		idx := bucketIndex(v)
		lo, hi := bucketBounds(idx)
		if v < lo || v > hi {
			t.Errorf("value %d maps to bucket %d = [%d,%d], out of range", v, idx, lo, hi)
		}
	}
	// A single sample of 64 reports the bucket's upper bound clamped to
	// the observed max.
	h := NewHistogram()
	h.Record(64)
	if got := h.Quantile(0.5); got != 64 {
		t.Errorf("Quantile(0.5) of {64} = %d, want 64 (clamped to max)", got)
	}
	// 65 and 64 share a bucket: p50 of {64, 65} reports the bucket upper
	// bound 65.
	h.Record(65)
	if got := h.Quantile(0.5); got != 65 {
		t.Errorf("Quantile(0.5) of {64,65} = %d, want bucket upper bound 65", got)
	}
}

// TestHistogramQuantileErrorBound checks the relative error bound over a
// wide range: an estimate never errs below the true value and never more
// than one sub-bucket width above.
func TestHistogramQuantileErrorBound(t *testing.T) {
	for _, v := range []int64{100, 1000, 12345, 1 << 18, 987654321} {
		h := NewHistogram()
		h.Record(v)
		got := h.Quantile(0.99)
		if got < v {
			t.Errorf("Quantile underestimates: %d < %d", got, v)
		}
		if float64(got) > float64(v)*(1+2.0/histSubCount) {
			t.Errorf("Quantile %d exceeds error bound for %d", got, v)
		}
	}
}

func TestHistogramResetAndEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("empty histogram must report zeros")
	}
	h.Record(100)
	h.Record(-5) // clamps to 0
	if h.Count() != 2 {
		t.Errorf("count = %d, want 2", h.Count())
	}
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Quantile(1) != 0 {
		t.Error("reset histogram must be empty")
	}
}

// TestHistogramSnapshotCanonicalJSON: identical sample sets produce
// byte-identical snapshot JSON (struct fields marshal in declaration
// order).
func TestHistogramSnapshotCanonicalJSON(t *testing.T) {
	build := func() []byte {
		h := NewHistogram()
		for i := int64(0); i < 1000; i++ {
			h.Record(i * 37 % 4096)
		}
		b, err := json.Marshal(h.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := build(), build()
	if string(a) != string(b) {
		t.Errorf("snapshot JSON differs:\n%s\n%s", a, b)
	}
	var s HistogramSnapshot
	if err := json.Unmarshal(a, &s); err != nil {
		t.Fatal(err)
	}
	if s.Count != 1000 || s.P50 == 0 || s.P99 < s.P50 || s.Max < s.P99 {
		t.Errorf("snapshot not self-consistent: %+v", s)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat").Record(10)
	r.Histogram("lat").Record(20)
	snap := r.Snapshot()
	hs, ok := snap.Histograms["lat"]
	if !ok || hs.Count != 2 || hs.Max != 20 {
		t.Errorf("registry histogram snapshot = %+v", hs)
	}
}

// TestHistogramMerge: merging two histograms is exactly equivalent to
// recording both sample sets into one — bucket counts, count, sum, max
// and therefore every quantile. The cluster harness relies on this to
// merge per-chip latency distributions without approximation.
func TestHistogramMerge(t *testing.T) {
	a, b, ref := NewHistogram(), NewHistogram(), NewHistogram()
	for i := int64(0); i < 500; i++ {
		v := (i * 2654435761) % 100_000 // deterministic spread across octaves
		a.Record(v)
		ref.Record(v)
	}
	for i := int64(0); i < 300; i++ {
		v := (i*40503 + 17) % 1000
		b.Record(v)
		ref.Record(v)
	}
	a.Merge(b)
	if got, want := a.Snapshot(), ref.Snapshot(); got != want {
		t.Errorf("merged snapshot %+v != recorded-together %+v", got, want)
	}
	// Merging into an empty histogram copies; self-merge and nil-merge
	// are no-ops.
	empty := NewHistogram()
	empty.Merge(b)
	if got, want := empty.Snapshot(), b.Snapshot(); got != want {
		t.Errorf("merge into empty %+v != source %+v", got, want)
	}
	before := b.Snapshot()
	b.Merge(b)
	b.Merge(nil)
	if got := b.Snapshot(); got != before {
		t.Errorf("self/nil merge changed the histogram: %+v -> %+v", before, got)
	}
}

// latencyRamp is a rising latency series in which most samples open a new
// top bucket: 751 samples from 1 to 2^22 cycles, 575 new top buckets.
func latencyRamp() []int64 {
	var ramp []int64
	for v := int64(1); v < 1<<22; v += v/64 + 1 {
		ramp = append(ramp, v)
	}
	return ramp
}

// TestHistogramRecordGrowsGeometrically: a fresh histogram recording a
// rising ramp reallocates its buckets a logarithmic number of times (it
// was once per new top bucket, 575 times here), one refilled after Reset
// not at all, and both report the quantiles of a histogram sized once to
// the top bucket.
func TestHistogramRecordGrowsGeometrically(t *testing.T) {
	ramp := latencyRamp()
	fresh := testing.AllocsPerRun(5, func() {
		h := NewHistogram()
		for _, v := range ramp {
			h.Record(v)
		}
	})
	if fresh > 12 {
		t.Errorf("recording a %d-sample ramp allocates %v times, want at most 12", len(ramp), fresh)
	}
	h, sized := NewHistogram(), &Histogram{counts: make([]uint64, 0, bucketIndex(math.MaxInt64)+1)}
	for _, v := range ramp {
		h.Record(v)
		sized.Record(v)
	}
	if refill := testing.AllocsPerRun(5, func() {
		h.Reset()
		for _, v := range ramp {
			h.Record(v)
		}
	}); refill != 0 {
		t.Errorf("refilling after Reset allocates %v times", refill)
	}
	if got, want := h.Snapshot(), sized.Snapshot(); got != want {
		t.Errorf("grown histogram %+v, sized once %+v", got, want)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		if got, want := h.Quantile(q), sized.Quantile(q); got != want {
			t.Errorf("q%v: grown %d, sized once %d", q, got, want)
		}
	}
}

// BenchmarkHistogramRecord is one run's latency histogram filled from
// empty: a fresh histogram records the rising 751-sample ramp (576
// allocations and 1.4 MB before the buckets grew geometrically, 11 and
// 16 KB after).
func BenchmarkHistogramRecord(b *testing.B) {
	ramp := latencyRamp()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := NewHistogram()
		for _, v := range ramp {
			h.Record(v)
		}
	}
}
