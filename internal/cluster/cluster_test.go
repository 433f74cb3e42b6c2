package cluster

import (
	"strings"
	"testing"
)

// TestNewRejectsNegativeTiming: a negative fabric latency or epoch is an
// error naming the value, before anything is built. (Epoch 0 still
// selects the default.)
func TestNewRejectsNegativeTiming(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"fabric latency", Config{FabricLatency: -1000}, "fabric latency -1000"},
		{"epoch", Config{Epoch: -5}, "epoch -5"},
	} {
		c.cfg.Chips, c.cfg.MEsPerChip = 1, 1
		_, err := New(c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: New = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
