package metrics

import (
	"math/bits"
	"sync"
)

// Histogram is a log-bucketed value histogram for latency samples: values
// below histSubCount land in exact unit buckets, and every power-of-two
// octave above is split into histSubCount linear sub-buckets, bounding the
// relative quantile error at 1/histSubCount (~3%). Recording is O(1) and
// lock-cheap; the simulator records one sample per forwarded packet.
type Histogram struct {
	mu     sync.Mutex
	counts []uint64
	count  uint64
	sum    uint64
	max    int64
}

// histSubCount is the linear sub-bucket count per octave (a power of two).
const (
	histSubCount = 32
	histSubBits  = 5 // log2(histSubCount)
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // position of the most significant bit
	// Values in [2^exp, 2^(exp+1)) map to sub-buckets of width
	// 2^(exp-histSubBits); the block below histSubCount is the exact range.
	return (exp-histSubBits)*histSubCount + int(v>>(uint(exp)-histSubBits))
}

// bucketBounds returns the inclusive [lo, hi] value range of bucket idx.
func bucketBounds(idx int) (lo, hi int64) {
	if idx < 2*histSubCount {
		return int64(idx), int64(idx)
	}
	block := idx/histSubCount - 1 // 1-based octave above the exact range
	pos := idx % histSubCount
	width := int64(1) << uint(block)
	lo = (histSubCount + int64(pos)) << uint(block)
	return lo, lo + width - 1
}

// Record adds one sample. Negative values clamp to zero (latency samples
// are cycle differences and cannot be negative in a monotonic simulation).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	h.mu.Lock()
	if idx >= len(h.counts) {
		h.counts = growCounts(h.counts, idx+1)
	}
	h.counts[idx]++
	h.count++
	h.sum += uint64(v)
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// growCounts extends counts to n buckets, zeroing the new ones. Its
// capacity at least doubles when it has to grow, so a rising latency ramp
// reallocates a logarithmic number of times, not once per new top bucket,
// and a histogram refilled after Reset reuses its storage.
func growCounts(counts []uint64, n int) []uint64 {
	if n > cap(counts) {
		grown := make([]uint64, len(counts), max(n, 2*cap(counts)))
		copy(grown, counts)
		counts = grown
	}
	old := len(counts)
	counts = counts[:n]
	clear(counts[old:])
	return counts
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Mean returns the arithmetic mean of the samples (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the value at quantile q in [0, 1]: the upper bound of
// the first bucket whose cumulative count reaches ceil(q*count). Values
// below 2*histSubCount are exact; above, the estimate errs high by at most
// one sub-bucket width. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for idx, c := range h.counts {
		cum += c
		if cum >= rank {
			_, hi := bucketBounds(idx)
			if hi > h.max {
				hi = h.max // the top bucket cannot exceed the observed max
			}
			return hi
		}
	}
	return h.max
}

// Merge folds src's samples into h (bucket counts, count, sum and max).
// Quantiles of the merged histogram are exactly those of recording both
// sample sets into one histogram — the cluster harness merges per-chip
// latency distributions this way. Merging a histogram into itself is a
// no-op.
func (h *Histogram) Merge(src *Histogram) {
	if src == nil || src == h {
		return
	}
	src.mu.Lock()
	counts := append([]uint64(nil), src.counts...)
	count, sum, max := src.count, src.sum, src.max
	src.mu.Unlock()
	h.mu.Lock()
	if len(counts) > len(h.counts) {
		h.counts = growCounts(h.counts, len(counts))
	}
	for i, c := range counts {
		h.counts[i] += c
	}
	h.count += count
	h.sum += sum
	if max > h.max {
		h.max = max
	}
	h.mu.Unlock()
}

// Reset discards every sample (the simulator resets after warm-up).
func (h *Histogram) Reset() {
	h.mu.Lock()
	h.counts = h.counts[:0]
	h.count = 0
	h.sum = 0
	h.max = 0
	h.mu.Unlock()
}

// HistogramSnapshot is the immutable, export-ready summary of a histogram.
// Field order is fixed, so encoding/json output is canonical.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	Mean  float64 `json:"mean"`
}

// Snapshot summarizes the histogram. The result is detached from the
// histogram's later updates.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum, Max: h.max}
	if h.count > 0 {
		s.P50 = h.quantileLocked(0.50)
		s.P90 = h.quantileLocked(0.90)
		s.P99 = h.quantileLocked(0.99)
		s.Mean = float64(h.sum) / float64(h.count)
	}
	return s
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name Key) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[string(name)]
	if !ok {
		h = NewHistogram()
		r.histograms[string(name)] = h
	}
	return h
}
