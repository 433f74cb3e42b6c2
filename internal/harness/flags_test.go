package harness

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"shangrila/internal/driver"
	"shangrila/internal/workload"
)

// parseFlags parses args through RegisterFlags on a fresh FlagSet, the
// way both CLIs read their shared flags.
func parseFlags(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("flags", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return f
}

// TestCommonFlagsRejectInvalid: every shared flag value the commands
// cannot honour is a Check error before anything runs, never a silent
// fallback — the level and the traffic shape included, whether or not
// -gbps or the experiment reading them is selected — and the defaults
// select legacy trace playback with the churn experiment's default storm.
func TestCommonFlagsRejectInvalid(t *testing.T) {
	for _, args := range [][]string{
		{"-O", "7"},
		{"-O", "-1"},
		{"-gbps", "-1"},
		{"-gbps", "1", "-arrival", "bogus"},
		{"-arrival", "bogus"},
		{"-churn-arrival", "bogus"},
		{"-swc-check-limit", "4294967296"},
		{"-gbps", "NaN"},
		{"-gbps", "+Inf"},
		{"-gbps", "1", "-zipf", "NaN"},
		{"-churn-rate", "NaN"},
		{"-churn-rate", "Inf"},
		{"-dump-ir", "bogus"},
	} {
		if err := parseFlags(t, args...).Check(); err == nil {
			t.Errorf("%q accepted, want an error", args)
		}
	}

	f := parseFlags(t)
	if err := f.Check(); err != nil {
		t.Errorf("default flags: %v", err)
	}
	if sp := f.WorkloadSpec(); sp != nil {
		t.Errorf("default workload = %+v, want nil", sp)
	}
	if sp := f.ChurnSpec(); sp != nil {
		t.Errorf("default churn spec = %+v, want nil", sp)
	}
}

// TestExperimentFlagsRejectInvalid parses real argument lists through
// RegisterFlags, as both CLIs do: an experiment flag value the experiment
// cannot honour is a Check error naming the flag and the value (the CLIs
// exit 2 on it), never a silent substitution; the defaults pass.
func TestExperimentFlagsRejectInvalid(t *testing.T) {
	check := func(args ...string) error {
		t.Helper()
		return parseFlags(t, args...).Check()
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

// TestFlagsRunConfig: the shared flags land in the fields of the one run
// configuration both CLIs start from, and the defaults are
// DefaultRunConfig at +SWC.
func TestFlagsRunConfig(t *testing.T) {
	def := DefaultRunConfig()
	def.Level = driver.LevelSWC
	with := func(set func(*RunConfig)) RunConfig {
		cfg := def
		set(&cfg)
		return cfg
	}
	for _, tc := range []struct {
		args []string
		want RunConfig
	}{
		{nil, def},
		{[]string{"-seed", "99"}, with(func(c *RunConfig) { c.Seed = 99 })},
		{[]string{"-O", "3"}, with(func(c *RunConfig) { c.Level = driver.LevelPAC })},
		{[]string{"-gbps", "2", "-arrival", "poisson", "-sizes", "imix", "-flows", "64", "-zipf", "1.1"},
			with(func(c *RunConfig) {
				c.Workload = &workload.Spec{Arrival: workload.ArrivalPoisson, Sizes: workload.SizesIMIX,
					OfferedGbps: 2, Flows: 64, ZipfS: 1.1}
			})},
		{[]string{"-churn-rate", "500", "-churn-burst", "3", "-churn-arrival", "poisson"},
			with(func(c *RunConfig) {
				c.Churn = &workload.ChurnSpec{UpdatesPerSec: 500, Burst: 3, Arrival: workload.ChurnArrivalPoisson}
			})},
		{[]string{"-swc-check-limit", "64"}, with(func(c *RunConfig) { c.SWCMaxCheck = 64 })},
		{[]string{"-dump-ir", "swc"}, with(func(c *RunConfig) { c.DumpPass = "swc" })},
		{[]string{"-dump-ir-dir", "out"}, with(func(c *RunConfig) { c.DumpPass, c.DumpDir = "all", "out" })},
		{[]string{"-verify-ir"}, with(func(c *RunConfig) { c.VerifyIR = driver.VerifyOn })},
	} {
		f := parseFlags(t, tc.args...)
		if err := f.Check(); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if got := f.RunConfig(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q: RunConfig() =\n%+v\nwant\n%+v", tc.args, got, tc.want)
		}
	}
}
