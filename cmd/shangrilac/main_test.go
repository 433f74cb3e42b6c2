package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shangrila/internal/apps"
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

// lexErr lexes with errors: the stray '@'s are illegal characters.
const lexErr = `module m { uint t[4]; @@@ }`

func writeFile(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRejectsBadInput: a program with nothing to compile, a planner with
// no microengine, an unknown stage and a compile flag given to a frontend
// stage are errors that name what was wrong, not a panic or a silent
// default; a stage that finds errors exits 1 after printing what it got.
func TestRejectsBadInput(t *testing.T) {
	file := writeFile(t, "noppf.baker", noPPF)
	lexFile := writeFile(t, "lexerr.baker", lexErr)
	for _, tc := range []struct {
		args   []string
		code   int
		want   string
		output bool // the stage prints what it got before failing
	}{
		{[]string{file}, 1, file + ": no PPF", false},
		{[]string{"-mes", "0", "l3switch"}, 2, "-mes 0", false},
		{[]string{"-mes", "-2", "l3switch"}, 2, "-mes -2", false},
		{[]string{"-O", "7", "l3switch"}, 2, "-O must be 0..6", false},
		{[]string{"-stage", "bogus", "l3switch"}, 2, `unknown -stage "bogus" (want tokens|ast|types|ir|report|cgir)`, false},
		{[]string{"-O", "3", "-stage", "ast", "l3switch"}, 2, "-O steers the compile, which -stage ast does not run", false},
		{[]string{"-mes", "4", "-stage", "tokens", "l3switch"}, 2, "-mes steers the compile, which -stage tokens does not run", false},
		{[]string{"-stage", "tokens", lexFile}, 1, "illegal character", true},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("shangrilac %v: exit %d, stderr %q; want exit %d naming %q",
				tc.args, code, stderr.String(), tc.code, tc.want)
		}
		if printed := stdout.Len() != 0; printed != tc.output {
			t.Errorf("shangrilac %v printed %q; want output %v", tc.args, stdout.String(), tc.output)
		}
	}
}

// TestStages: every stage gets a built-in app and a source file through,
// and cgir is the report followed by the ME code.
func TestStages(t *testing.T) {
	file := writeFile(t, "mpls.baker", apps.MPLS().Source)
	for _, target := range []string{"l3switch", file} {
		out := map[string]string{}
		for _, stage := range strings.Split(stages, "|") {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-stage", stage, target}, &stdout, &stderr); code != 0 || stdout.Len() == 0 {
				t.Errorf("shangrilac -stage %s %s: exit %d, %d bytes of output, stderr %q",
					stage, target, code, stdout.Len(), stderr.String())
			}
			out[stage] = stdout.String()
		}
		if !strings.HasPrefix(out["cgir"], out["report"]) || len(out["cgir"]) == len(out["report"]) {
			t.Errorf("%s: -stage cgir does not extend -stage report with the ME code", target)
		}
	}
}
