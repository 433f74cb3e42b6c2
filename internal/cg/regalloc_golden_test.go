package cg_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/regalloc.golden from the current code generator")

// TestRegallocLivenessUnchanged pins the allocated code — one digest per
// ME program of the three applications at the seven levels, the images the
// engine goldens run — so a change to the allocator's liveness or interval
// construction fails here, beside the allocator, and not only as a timing
// shift in internal/harness/testdata/engine. The file was generated with
// the map-based liveness this package used before it shared
// analysis.SolveBackward; a deliberate code-generation change regenerates
// it with -update-golden.
func TestRegallocLivenessUnchanged(t *testing.T) {
	var got bytes.Buffer
	for _, a := range apps.All() {
		for _, lvl := range driver.Levels() {
			res, err := harness.Compile(a, lvl, 7)
			if err != nil {
				t.Fatalf("%s at %v: %v", a.Name, lvl, err)
			}
			for i, c := range res.Image.MECode {
				h := fnv.New64a()
				for _, in := range c.Program.Code {
					fmt.Fprintln(h, in)
				}
				fmt.Fprintf(&got, "%s %v me%d instrs=%d stack=%d sramspill=%d code=%016x\n", a.Name, lvl, i,
					len(c.Program.Code), c.Program.StackBytes, c.Program.SRAMSpillWords, h.Sum64())
			}
		}
	}
	path := filepath.Join("testdata", "regalloc.golden")
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
		t.Fatalf("%d allocated programs, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("allocation changed:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
