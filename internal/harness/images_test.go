package harness

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/bakergen"
	"shangrila/internal/driver"
)

// TestImageDigests pins what the compiler emits: one SHA-256 per
// (program, level) over the final IR (Result.DumpIR) and every ME image's
// CGIR, as text and field by field, for the three applications and
// bakergen seeds 0–149 at all seven levels through the differential's
// level ladder. A refactor of the frontend, the passes or codegen that
// claims to change no output must pass it without regenerating
// testdata/images.golden; rewrite it only with -update-golden, for a
// deliberate change of compiled output.
func TestImageDigests(t *testing.T) {
	progs := apps.All()
	for seed := uint64(0); seed < 150; seed++ {
		progs = append(progs, bakergen.NewSpec(seed).Build())
	}
	var got bytes.Buffer
	for i, a := range progs {
		prog, err := driver.LowerSource(a.Name+".baker", a.Source)
		if err != nil {
			t.Fatalf("program %d (%s): %v", i, a.Name, err)
		}
		ld, err := newLadder(a, prog, 1235, driver.Levels())
		if err != nil {
			t.Fatalf("program %d (%s): %v", i, a.Name, err)
		}
		for _, lvl := range driver.Levels() {
			res, err := ld.Compile(lvl)
			if err != nil {
				t.Fatalf("program %d (%s) at %v: %v", i, a.Name, lvl, err)
			}
			dump, err := res.DumpIR()
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			h.Write(dump)
			for _, c := range res.Image.MECode {
				fmt.Fprintf(h, "\n=== %v ===\n", c.Agg.PPFs)
				for pc, in := range c.Program.Code {
					fmt.Fprintf(h, "%4d: %v ; %s\n%+v\n", pc, in, in.Comment, *in)
				}
			}
			fmt.Fprintf(&got, "%s %s %x\n", a.Name, lvl, h.Sum(nil))
		}
	}
	path := filepath.Join("testdata", "images.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run TestImageDigests with -update-golden): %v", err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d digests, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	bad := 0
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			if bad++; bad <= 10 {
				t.Errorf("digest differs:\n got %s\nwant %s", gotLines[i], wantLines[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("%d digests differ in all", bad)
	}
}
