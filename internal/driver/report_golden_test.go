package driver_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/report.golden from the current compiler")

// TestReportUnchanged pins what a cold compile reports for the three
// applications at the seven levels: the aggregation plan, the SOAR, PAC
// and PHR statistics, the SWC candidates by name, the code sizes and the
// pass rows with their names and sizes. The session and ladder
// differentials compare their reports with a cold compile's, so a change to
// how every path assembles a report passes them; it fails here. A
// deliberate change to what the compiler reports regenerates the file with
// -update-golden.
func TestReportUnchanged(t *testing.T) {
	var got bytes.Buffer
	for _, a := range apps.All() {
		for _, lvl := range driver.Levels() {
			writeReport(&got, a.Name, compileApp(t, a, lvl, driver.Config{}).Report)
		}
	}
	path := filepath.Join("testdata", "report.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden): %v", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d report lines, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("report changed at line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// writeReport renders the fields of one report the golden pins, each line
// prefixed with the application and the level.
func writeReport(w *bytes.Buffer, app string, rep *driver.Report) {
	pre := fmt.Sprintf("%s %v", app, rep.Level)
	for _, line := range strings.Split(strings.TrimSuffix(rep.Plan.String(), "\n"), "\n") {
		fmt.Fprintf(w, "%s %s\n", pre, line)
	}
	if s := rep.SOAR; s != nil {
		fmt.Fprintf(w, "%s soar: accesses=%d offset=%d align=%d encaps=%d/%d\n", pre,
			s.Accesses, s.ResolvedOffset, s.ResolvedAlign, s.EncapsResolved, s.EncapsTotal)
	}
	if s := rep.PAC; s != nil {
		fmt.Fprintf(w, "%s pac: %+v\n", pre, *s)
	}
	if s := rep.PHR; s != nil {
		fmt.Fprintf(w, "%s phr: %+v\n", pre, *s)
	}
	for _, c := range rep.SWCCands {
		fmt.Fprintf(w, "%s swc: %s limit=%d hit=%.4f\n", pre, c.Global.Name, c.CheckLimit, c.HitRate)
	}
	fmt.Fprintf(w, "%s code: %v\n", pre, rep.CodeSizes)
	for _, row := range rep.Passes {
		fmt.Fprintf(w, "%s pass %s: %d -> %d\n", pre, row.Pass, row.InstrsBefore, row.InstrsAfter)
	}
}
