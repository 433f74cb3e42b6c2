package lexer_test

import (
	"fmt"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/baker/lexer"
	"shangrila/internal/bakergen"
)

// TestScanMatchesReference: over real program text — the three apps and
// 250 generated programs — ScanAll equals the reference scan kept in
// reference_test.go (DiffScan: token for token, error for error).
func TestScanMatchesReference(t *testing.T) {
	srcs := map[string]string{}
	for _, a := range apps.All() {
		srcs[a.Name] = a.Source
	}
	for seed := uint64(0); seed < 250; seed++ {
		srcs[fmt.Sprintf("gen%d", seed)] = bakergen.NewSpec(seed).Source()
	}
	tokens := 0
	for name, src := range srcs {
		diff, n := lexer.DiffScan(name, src)
		if diff != "" {
			t.Fatalf("%s: %s", name, diff)
		}
		tokens += n
	}
	if len(srcs) < 203 || tokens < 50_000 {
		t.Fatalf("only %d sources, %d tokens compared", len(srcs), tokens)
	}
}
