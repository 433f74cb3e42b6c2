package harness

import (
	"flag"
	"io"
	"strings"
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

// TestExperimentFlagsRejectInvalid parses real argument lists through the
// registry's BindFlags, as both CLIs do: an experiment flag value the
// experiment cannot honour is an error naming the flag and the value
// (the CLIs exit 2 on it), never a silent substitution; the defaults pass.
func TestExperimentFlagsRejectInvalid(t *testing.T) {
	check := func(args ...string) error {
		t.Helper()
		fs := flag.NewFlagSet("exp", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		bound := Experiments().BindFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("parse %q: %v", args, err)
		}
		return Experiments().CheckFlags(bound)
	}
	for _, args := range [][]string{
		{"-chips", "0"},
		{"-chips", "-2"},
		{"-cluster-flows", "-1"},
		{"-cluster-drain-frac", "NaN"},
		{"-cluster-drain-frac", "+Inf"},
		{"-cluster-drain-frac", "2"},
		{"-cluster-drain-frac", "0"},
		{"-cluster-drain-frac", "1"},
		{"-cluster-load", "0"},
		{"-cluster-load", "-1"},
		{"-cluster-load", "NaN"},
		{"-cluster-load", "+Inf"},
		{"-cluster-zipf", "-2"},
		{"-cluster-zipf", "0"},
		{"-cluster-zipf", "NaN"},
		{"-cluster-epoch", "-1"},
		{"-cluster-fabric-latency", "-1"},
		{"-cluster-app", "nosuch"},
		{"-fuzz-n", "-2"},
		{"-fuzz-n", "0"},
		{"-fuzz-trace", "-4"},
		{"-fuzz-trace", "0"},
		{"-fuzz-budget", "-1s"},
	} {
		err := check(args...)
		if err == nil || !strings.Contains(err.Error(), args[0]+" "+args[1]) {
			t.Errorf("%q: %v, want an error naming the flag and the value", args, err)
		}
	}
	for _, args := range [][]string{
		nil,
		{"-chips", "1", "-cluster-flows", "0", "-cluster-drain-frac", "0.25"},
		{"-cluster-load", "0.5", "-cluster-zipf", "0.8", "-cluster-epoch", "0", "-cluster-fabric-latency", "0",
			"-cluster-app", "firewall"},
		{"-fuzz-n", "1", "-fuzz-trace", "1", "-fuzz-budget", "0s"},
	} {
		if err := check(args...); err != nil {
			t.Errorf("%q: %v", args, err)
		}
	}
}
