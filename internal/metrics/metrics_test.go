package metrics

import (
	"sync"
	"testing"
)

func TestCounterGaugeSeries(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tx")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("tx") != c {
		t.Error("Counter not get-or-create")
	}
	g := r.Gauge("occ")
	g.Set(3.5)
	g.Set(7.25)
	if got := g.Value(); got != 7.25 {
		t.Errorf("gauge = %v, want 7.25", got)
	}
	s := r.Series("util")
	for i := int64(0); i < 4; i++ {
		s.Append(i*100, float64(i))
	}
	smp := s.Samples()
	if len(smp) != 4 || smp[3] != (Sample{T: 300, V: 3}) {
		t.Errorf("samples = %v", smp)
	}
}

func TestSnapshotDetached(t *testing.T) {
	r := NewRegistry()
	r.Counter("n").Inc()
	r.Series("s").Append(1, 1)
	snap := r.Snapshot()
	r.Counter("n").Add(100)
	r.Series("s").Append(2, 2)
	if snap.Counters["n"] != 1 {
		t.Errorf("snapshot counter mutated: %d", snap.Counters["n"])
	}
	if len(snap.Series["s"]) != 1 {
		t.Errorf("snapshot series mutated: %v", snap.Series["s"])
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(i))
				r.Series("s").Append(int64(i), float64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if n := len(r.Series("s").Samples()); n != 8000 {
		t.Errorf("series kept %d samples, want 8000", n)
	}
}
