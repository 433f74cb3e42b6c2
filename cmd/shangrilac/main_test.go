package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// noPPF type-checks: a program without PPFs needs no rx wiring, so the
// checker leaves the entry PPF unset.
const noPPF = `
protocol ether { dst_hi:16; dst_lo:32; src_hi:16; src_lo:32; type:16; demux { 14 }; }
module m {
    uint t[4];
    control func set(uint i, uint v) { t[i] = v; }
}
`

// TestRejectsBadInput: a program with nothing to compile and a planner
// with no microengine are errors that name what was wrong, not a panic or
// a silent default.
func TestRejectsBadInput(t *testing.T) {
	file := filepath.Join(t.TempDir(), "noppf.baker")
	if err := os.WriteFile(file, []byte(noPPF), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{file}, 1, file + ": no PPF"},
		{[]string{"-mes", "0", "l3switch"}, 2, "-mes 0"},
		{[]string{"-mes", "-2", "l3switch"}, 2, "-mes -2"},
		{[]string{"-O", "7", "l3switch"}, 2, "-O must be 0..6"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("shangrilac %v: exit %d, stderr %q; want exit %d naming %q",
				tc.args, code, stderr.String(), tc.code, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("shangrilac %v printed a report: %q", tc.args, stdout.String())
		}
	}
}
