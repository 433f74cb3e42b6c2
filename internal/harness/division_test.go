package harness

import (
	"strings"
	"testing"

	"shangrila/internal/bakergen"
	"shangrila/internal/driver"
)

// TestZeroDivisorAgrees: a zero divisor gives 0 on the host, as the ME's
// ALU gives it, so a program whose every packet through s0 divides by zero
// compiles (its profile divides too) and the differential at BASE and
// +SWC finds no divergence, for / and % alike.
func TestZeroDivisorAgrees(t *testing.T) {
	for name, op := range map[string]string{"divide": "/", "remainder": "%"} {
		t.Run(name, func(t *testing.T) {
			a := bakergen.NewSpec(1).Build()
			const stage = "ppf s0(pi ph) {"
			if !strings.Contains(a.Source, stage) {
				t.Fatalf("bakergen seed 1 no longer declares %q", stage)
			}
			a.Source = strings.Replace(a.Source, stage, stage+" ph->f3 = 7 "+op+" (ph->f4 - ph->f4);", 1)
			rep := DifferentialWith(DiffConfig{}, a, driver.LevelBase, driver.LevelSWC)
			if !rep.OK() {
				t.Fatal(rep)
			}
			if rep.RefFrames == 0 {
				t.Fatal("the reference transmitted nothing to compare")
			}
		})
	}
}
