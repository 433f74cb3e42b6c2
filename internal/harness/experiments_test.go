package harness

import (
	"slices"
	"strings"
	"testing"
)

func experimentNames(es []Experiment) []string {
	var out []string
	for _, e := range es {
		out = append(out, e.Name)
	}
	return out
}

// TestExperimentList: the suite is the full evaluation in its run order;
// every name is unique and selectable (non-empty, not the "all" keyword,
// no comma) and every entry runs; exactly churn, cluster and fuzz also
// run against one app, the ones the single-app CLI offers.
func TestExperimentList(t *testing.T) {
	want := []string{"fig6", "table1", "fig13", "fig14", "fig15", "loadlatency", "churn", "cluster", "fuzz"}
	list := Experiments()
	if got := experimentNames(list); !slices.Equal(got, want) {
		t.Fatalf("Experiments() = %v, want %v", got, want)
	}
	seen := map[string]bool{}
	var perApp []string
	for _, e := range list {
		if e.Name == "" || e.Name == "all" || strings.Contains(e.Name, ",") {
			t.Errorf("experiment name %q collides with the selection syntax", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		if e.Run == nil {
			t.Errorf("experiment %q has no Run", e.Name)
		}
		if e.RunApp != nil {
			perApp = append(perApp, e.Name)
		}
		if got, err := SelectExperiments(e.Name); err != nil || len(got) != 1 || got[0].Name != e.Name {
			t.Errorf("SelectExperiments(%q) = %v, %v", e.Name, experimentNames(got), err)
		}
	}
	if want := []string{"churn", "cluster", "fuzz"}; !slices.Equal(perApp, want) {
		t.Errorf("experiments with RunApp = %v, want %v", perApp, want)
	}
}

// TestSelectExperiments: "all"/empty select everything, comma lists
// resolve in suite order regardless of spelling, and unknown names error
// with the valid set (the CLIs turn that into exit 2).
func TestSelectExperiments(t *testing.T) {
	all := experimentNames(Experiments())
	for _, spec := range []string{"", "all", "churn,all"} {
		got, err := SelectExperiments(spec)
		if err != nil {
			t.Fatalf("SelectExperiments(%q): %v", spec, err)
		}
		if g := experimentNames(got); !slices.Equal(g, all) {
			t.Errorf("SelectExperiments(%q) = %v, want all in order", spec, g)
		}
	}
	// Spelled out of order, with whitespace: still suite order.
	got, err := SelectExperiments(" fuzz , table1 ")
	if err != nil {
		t.Fatal(err)
	}
	if g := experimentNames(got); !slices.Equal(g, []string{"table1", "fuzz"}) {
		t.Errorf("SelectExperiments out of order = %v, want [table1 fuzz]", g)
	}
	// Unknown names error and the message carries the valid set.
	valid := "all|" + strings.Join(all, "|")
	if _, err := SelectExperiments("table1,nope"); err == nil {
		t.Error("SelectExperiments with an unknown name succeeded, want error")
	} else if !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), valid) {
		t.Errorf("unknown-name error %q does not list the valid set %s", err, valid)
	}
	if _, err := SelectExperiments(" , "); err == nil {
		t.Error("empty selection succeeded, want error")
	} else if !strings.Contains(err.Error(), valid) {
		t.Errorf("empty-selection error %q does not list the valid set %s", err, valid)
	}
}
