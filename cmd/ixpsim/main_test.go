package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadInput: every flag value, experiment name or combination
// the command cannot honour exits 2 at once with an error naming what was
// wrong, and measures nothing.
func TestRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-O", "7", "l3switch"}, "-O 7"},
		{[]string{"-arrival", "bogus", "l3switch"}, `arrival process "bogus"`},
		{[]string{"-experiment", "fuzz", "-trace", "out.json", "mpls"}, "-trace out.json: only a plain measurement writes a trace, not -experiment fuzz"},
		{[]string{"-experiment", "churn", "-stalls", "firewall"}, "-stalls: only a plain measurement prints a stall breakdown, not -experiment churn"},
		{[]string{"-experiment", "cluster", "-stalls", "l3switch"}, "-stalls: only a plain measurement prints a stall breakdown, not -experiment cluster"},
		{[]string{"-experiment", "fuzz", "-stalls", "mpls"}, "-stalls: only a plain measurement prints a stall breakdown, not -experiment fuzz"},
		{[]string{"-experiment", "cluster", "-gbps", "0.5", "l3switch"}, "-gbps 0.5: -experiment cluster does not run the workload engine"},
		{[]string{"-experiment", "fuzz", "-gbps", "2", "mpls"}, "-gbps 2: -experiment fuzz does not run the workload engine"},
		{[]string{"-experiment", "fuzz", "-O", "0", "l3switch"}, "-O: -experiment fuzz reads only -seed, -fuzz-seed and -fuzz-trace"},
		{[]string{"-experiment", "fuzz", "-mes", "2", "l3switch"}, "-mes: -experiment fuzz reads only"},
		{[]string{"-experiment", "fuzz", "-cycles", "5000", "mpls"}, "-cycles: -experiment fuzz reads only"},
		{[]string{"-experiment", "fuzz", "-warmup", "0", "mpls"}, "-warmup: -experiment fuzz reads only"},
		{[]string{"-experiment", "fuzz", "-dump-ir", "all", "firewall"}, "-dump-ir: -experiment fuzz reads only"},
		{[]string{"-experiment", "fuzz", "-dump-ir-dir", "ir", "firewall"}, "-dump-ir-dir: -experiment fuzz reads only"},
		{[]string{"-experiment", "fuzz", "-swc-check-limit", "3", "l3switch"}, "-swc-check-limit: -experiment fuzz reads only"},
		{[]string{"-gbps", "NaN", "l3switch"}, "OfferedGbps must be a finite number (got NaN)"},
		{[]string{"-dump-ir", "bogus", "l3switch"}, `unknown dump pass "bogus"`},
		{[]string{"-churn-rate", "NaN", "l3switch"}, "UpdatesPerSec must be a finite number (got NaN)"},
		{[]string{"-cluster-drain-frac", "2", "l3switch"}, "-cluster-drain-frac 2"},
		{[]string{"-chips", "0", "l3switch"}, "-chips 0"},
		{[]string{"-fuzz-n", "-2", "l3switch"}, "-fuzz-n -2"},
		{[]string{"-mes", "0", "l3switch"}, "-mes 0"},
		{[]string{"-mes", "9", "l3switch"}, "-mes 9"},
		{[]string{"-cycles", "-5", "l3switch"}, "-cycles -5"},
		{[]string{"-warmup", "-1", "l3switch"}, "-warmup -1"},
		{[]string{"-experiment", "nope", "l3switch"}, `unknown experiment "nope" (valid: churn|cluster|fuzz)`},
		{[]string{"nosuch"}, `unknown app "nosuch" (valid: [l3switch mpls firewall])`},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("ixpsim %v: exit %d, stderr %q; want exit 2 naming %q",
				tc.args, code, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("ixpsim %v printed %q", tc.args, stdout.String())
		}
	}
}

// TestProfilesWrittenOnError: a run that fails after profiling started
// still finishes the CPU profile and writes the heap profile, so both
// files load in `go tool pprof`.
func TestProfilesWrittenOnError(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pb"), filepath.Join(dir, "mem.pb")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-cpuprofile", cpu, "-memprofile", mem,
		"-trace", filepath.Join(dir, "missing", "trace.json"), "l3switch"}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "trace.json") {
		t.Fatalf("exit %d, stderr %q; want exit 1 naming the trace file", code, stderr.String())
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %d bytes, not a gzip-compressed profile", path, len(b))
		}
	}
}
