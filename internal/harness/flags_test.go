package harness

import (
	"flag"
	"io"
	"testing"
)

// parseCommon parses args through RegisterCommonFlags on a fresh FlagSet,
// the way both CLIs read their shared flags.
func parseCommon(t *testing.T, args ...string) *CommonFlags {
	t.Helper()
	fs := flag.NewFlagSet("common", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterCommonFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return f
}

// TestCommonFlagsRejectInvalid: every shared flag value the commands
// cannot honour is an error before anything runs, never a silent
// fallback, and the defaults select legacy trace playback with the churn
// experiment's default storm.
func TestCommonFlagsRejectInvalid(t *testing.T) {
	options := func(f *CommonFlags) error { _, err := f.Options(); return err }
	level := func(f *CommonFlags) error { _, err := f.DriverLevel(); return err }
	for _, c := range []struct {
		args  []string
		check func(*CommonFlags) error
	}{
		{[]string{"-O", "7"}, level},
		{[]string{"-gbps", "-1"}, options},
		{[]string{"-gbps", "1", "-arrival", "bogus"}, options},
		{[]string{"-churn-arrival", "bogus"}, options},
		{[]string{"-swc-check-limit", "4294967296"}, options},
		{[]string{"-gbps", "NaN"}, options},
		{[]string{"-gbps", "+Inf"}, options},
		{[]string{"-gbps", "1", "-zipf", "NaN"}, options},
		{[]string{"-churn-rate", "NaN"}, options},
		{[]string{"-churn-rate", "Inf"}, options},
		{[]string{"-dump-ir", "bogus"}, options},
	} {
		if err := c.check(parseCommon(t, c.args...)); err == nil {
			t.Errorf("%q accepted, want an error", c.args)
		}
	}

	f := parseCommon(t)
	if _, err := f.DriverLevel(); err != nil {
		t.Errorf("default -O: %v", err)
	}
	if sp, err := f.WorkloadSpec(); sp != nil || err != nil {
		t.Errorf("default workload = %+v, %v; want nil, nil", sp, err)
	}
	if sp, err := f.ChurnSpec(); sp != nil || err != nil {
		t.Errorf("default churn spec = %+v, %v; want nil, nil", sp, err)
	}
	if _, err := f.Options(); err != nil {
		t.Errorf("default options: %v", err)
	}
}
