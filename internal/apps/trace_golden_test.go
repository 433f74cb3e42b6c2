package apps_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/baker/parser"
	"shangrila/internal/baker/types"
	"shangrila/internal/bakergen"
	"shangrila/internal/packet"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/traces.golden from the current trace generators")

// checkTypes parses and type-checks an application's source: the types
// are all a trace generator reads.
func checkTypes(tb testing.TB, a *apps.App) *types.Program {
	tb.Helper()
	astProg, err := parser.Parse(a.Name+".baker", a.Source)
	if err != nil {
		tb.Fatalf("parse %s: %v", a.Name, err)
	}
	tp, err := types.Check(astProg)
	if err != nil {
		tb.Fatalf("check %s: %v", a.Name, err)
	}
	return tp
}

// traceDigest is one FNV-64a over every packet's bytes, metadata record and
// receive port, in trace order.
func traceDigest(tr []*packet.Packet) (sum uint64, bytesTotal int) {
	h := fnv.New64a()
	var word [4]byte
	for _, p := range tr {
		binary.LittleEndian.PutUint32(word[:], uint32(p.Len()))
		h.Write(word[:])
		h.Write(p.Bytes())
		h.Write(p.Meta)
		binary.LittleEndian.PutUint32(word[:], p.Port)
		h.Write(word[:])
		bytesTotal += p.Len()
	}
	return h.Sum64(), bytesTotal
}

// goldenTraceSpecs are the bakergen programs the golden pins: the first
// twenty of the fuzz gate's campaign (make fuzz-ci starts at seed 4242),
// each traced with its own seed as the campaign does.
const goldenSpecSeed, goldenSpecs = 4242, 20

// TestTraceBytesUnchanged pins the generated traffic itself — the three
// applications at seeds 1, 7 and 1235, 512 packets each, and twenty
// generated programs — so a change to the trace builders fails here, at the
// bytes, and not only through the simulation goldens downstream. The file
// is rewritten only with -update-golden.
func TestTraceBytesUnchanged(t *testing.T) {
	var got bytes.Buffer
	line := func(name string, seed uint64, tr []*packet.Packet) {
		sum, n := traceDigest(tr)
		fmt.Fprintf(&got, "%s seed=%d packets=%d bytes=%d digest=%016x\n", name, seed, len(tr), n, sum)
	}
	for _, a := range apps.All() {
		tp := checkTypes(t, a)
		for _, seed := range []uint64{1, 7, 1235} {
			line(a.Name, seed, a.Trace(tp, seed, 512))
		}
	}
	for seed := uint64(goldenSpecSeed); seed < goldenSpecSeed+goldenSpecs; seed++ {
		a := bakergen.NewSpec(seed).Build()
		line(a.Name, seed, a.Trace(checkTypes(t, a), seed, 512))
	}
	path := filepath.Join("testdata", "traces.golden")
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
		t.Fatalf("%d traces, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("trace changed:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}

// BenchmarkTraceGenerate is the trace layer's own benchmark: one 512-packet
// profile trace per application, as every compile of the level grid asks
// for one.
func BenchmarkTraceGenerate(b *testing.B) {
	all := apps.All()
	tps := make([]*types.Program, len(all))
	for i, a := range all {
		tps[i] = checkTypes(b, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, a := range all {
			a.Trace(tps[j], 7, 512)
		}
	}
}
