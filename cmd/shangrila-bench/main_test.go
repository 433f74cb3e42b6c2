package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shangrila/internal/harness"
)

// TestRejectsBadInput: every flag value or experiment name the command
// cannot honour exits 2 at once with an error naming what was wrong —
// whether or not a selected experiment reads the flag — and runs nothing.
func TestRejectsBadInput(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-O", "7", "-experiment", "fig6"}, "-O 7"},
		{[]string{"-O", "7", "-experiment", "table1"}, "-O 7"},
		{[]string{"-O", "7", "-experiment", "fig13,fig14,fig15"}, "-O 7"},
		{[]string{"-arrival", "bogus", "-experiment", "table1"}, `arrival process "bogus"`},
		{[]string{"-gbps", "NaN"}, "OfferedGbps must be a finite number (got NaN)"},
		{[]string{"-dump-ir", "bogus"}, `unknown dump pass "bogus"`},
		{[]string{"-churn-rate", "NaN"}, "UpdatesPerSec must be a finite number (got NaN)"},
		{[]string{"-cluster-drain-frac", "2"}, "-cluster-drain-frac 2"},
		{[]string{"-chips", "0"}, "-chips 0"},
		{[]string{"-experiment", "fuzz", "-fuzz-n", "-2"}, "-fuzz-n -2"},
		{[]string{"-cluster-app", "nosuch"}, `-cluster-app nosuch: unknown app "nosuch"`},
		{[]string{"-experiment", "nope"}, `unknown experiment "nope" (valid: all|fig6|`},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append(tc.args, "-quick", "-report", report), &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("shangrila-bench %v: exit %d, stderr %q; want exit 2 naming %q",
				tc.args, code, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("shangrila-bench %v printed %q", tc.args, stdout.String())
		}
	}
	if _, err := os.Stat(report); !os.IsNotExist(err) {
		t.Errorf("a rejected run wrote %s (stat: %v)", report, err)
	}
}

// TestUsageListsExperiments: -h prints the -experiment value set and one
// synopsis line per experiment, generated from harness.Experiments, so
// the help cannot drift from what the command accepts.
func TestUsageListsExperiments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
	usage := stderr.String()
	var names []string
	for _, e := range harness.Experiments() {
		names = append(names, e.Name)
		if !strings.Contains(usage, "  "+e.Name) || !strings.Contains(usage, e.Synopsis+"\n") {
			t.Errorf("usage has no line for %s (%q):\n%s", e.Name, e.Synopsis, usage)
		}
	}
	if spec := "[-experiment all|" + strings.Join(names, "|") + "]"; !strings.Contains(usage, spec) {
		t.Errorf("usage does not offer %s:\n%s", spec, usage)
	}
}

// TestProfilesWrittenOnError: a run that fails after profiling started
// (here the trace file cannot be created) still finishes the CPU profile
// and writes the heap profile, so both files load in `go tool pprof`.
func TestProfilesWrittenOnError(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pb"), filepath.Join(dir, "mem.pb")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-cpuprofile", cpu, "-memprofile", mem, "-quick", "-experiment", "fig6",
		"-trace", filepath.Join(dir, "missing", "trace.json"), "-report", ""}, &stdout, &stderr)
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
