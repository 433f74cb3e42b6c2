package harness

import (
	"regexp"
	"strings"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/bakergen"
	"shangrila/internal/driver"
)

// withDemux is bakergen seed 1, whose middle protocol declares the IPv4
// idiom demux { hl << 2 }, with that demux replaced by expr.
func withDemux(t *testing.T, expr string) *apps.App {
	t.Helper()
	a := bakergen.NewSpec(1).Build()
	const idiom = "demux { hl << 2 }"
	if !strings.Contains(a.Source, idiom) {
		t.Fatalf("bakergen seed 1 no longer declares %q", idiom)
	}
	a.Source = strings.Replace(a.Source, idiom, "demux { "+expr+" }", 1)
	return a
}

// TestDemuxOperatorsAgree holds the host model and the compiled code to one
// reading of every operator a demux may use: each expression below sizes
// the header as hl << 2 does, through a different operator, and the
// differential at BASE and +SWC must find no divergence.
func TestDemuxOperatorsAgree(t *testing.T) {
	for _, expr := range []string{
		"hl * 4",
		"(hl & 255) << 2",
		"(hl << 3) >> 1",
		"(hl << 2) ^ 0",
		"(hl << 2) | 0",
		"(hl << 2) - (~0 + 1)",
		"-(0 - (hl << 2))",
		"~(~(hl << 2))",
		"(hl << 2) + (hl & 0)",
	} {
		t.Run(expr, func(t *testing.T) {
			rep := DifferentialWith(DiffConfig{}, withDemux(t, expr), driver.LevelBase, driver.LevelSWC)
			if !rep.OK() {
				t.Fatal(rep)
			}
			if rep.RefFrames == 0 {
				t.Fatal("the reference transmitted nothing to compare")
			}
		})
	}
}

// TestDemuxRefusedOperators: an operator outside the closed set — division
// and remainder (codegen's demux operator table computes neither),
// comparisons and the logical operators — fails the frontend with an error
// positioned in the source that names the operator.
func TestDemuxRefusedOperators(t *testing.T) {
	pos := regexp.MustCompile(`\.baker:\d+:\d+`)
	for _, tc := range []struct{ expr, op string }{
		{"(hl << 2) % 64", "%"},
		{"(hl << 2) + (hl / 0)", "/"},
		{"(hl << 2) + (hl == 99)", "=="},
		{"(hl << 2) + (hl != 99)", "!="},
		{"(hl << 2) + (hl < 1)", "<"},
		{"(hl << 2) + (hl <= 1)", "<="},
		{"(hl << 2) + (hl > 99)", ">"},
		{"(hl << 2) + (hl >= 99)", ">="},
		{"(!hl) + (hl << 2)", "!"},
		{"(hl << 2) + (hl && 0)", "&&"},
		{"(hl << 2) + (hl || 0)", "||"},
		{"64 / 4", "/"},
	} {
		t.Run(tc.expr, func(t *testing.T) {
			a := withDemux(t, tc.expr)
			_, err := driver.LowerSource(a.Name+".baker", a.Source)
			if err == nil {
				t.Fatal("the frontend accepted the demux")
			}
			if msg := err.Error(); !pos.MatchString(msg) || !strings.Contains(msg, "operator "+tc.op+" ") {
				t.Fatalf("error %q does not give a position and name operator %s", msg, tc.op)
			}
		})
	}
}
