package harness

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"shangrila/internal/apps"
)

// ExpContext is the shared environment the CLI hands every experiment:
// where to print, the resolved common flags and harness options, the
// standard measurement windows (full or -quick), and the report builder
// every experiment's machine-readable output lands in.
type ExpContext struct {
	Out    io.Writer
	Quick  bool
	Common *CommonFlags
	// Opts are the resolved cross-experiment options (seed, workers,
	// telemetry, stall breakdowns...). Experiments append their
	// own and must not mutate the shared slice in place.
	Opts []Option
	// Cfg is the standard run configuration; FigWarm/FigMeas are the
	// shorter figure-sweep windows; Loads is the load–latency sweep.
	Cfg              RunConfig
	FigWarm, FigMeas int64
	Loads            []float64
	// Report collects every experiment's machine-readable results on
	// the single canonical path (schema v6).
	Report *ReportBuilder
}

// Options returns a copy of the shared option slice with extra appended,
// safe for per-experiment extension.
func (ctx *ExpContext) Options(extra ...Option) []Option {
	return append(append([]Option{}, ctx.Opts...), extra...)
}

// Experiment is one self-registered entry of the evaluation suite. The
// CLIs dispatch exclusively through the registry: an experiment's name,
// synopsis, private flags and runner live together here, so the usage
// text, the -experiment value set and the dispatch switch cannot drift
// apart.
type Experiment struct {
	Name     string
	Synopsis string // one-line description for generated usage text

	// Flags, when non-nil, registers the experiment's private flags on
	// fs and returns the value struct they land in; the same struct is
	// passed back to Run/RunApp. Each call must return fresh storage so
	// bindings on different FlagSets stay isolated.
	Flags func(fs *flag.FlagSet) any

	// Run executes the experiment across its own app selection.
	Run func(ctx *ExpContext, flags any) error

	// RunApp, when non-nil, runs the experiment against one explicit
	// app — the single-app CLI (ixpsim) dispatches through it.
	RunApp func(ctx *ExpContext, a *apps.App, flags any) error
}

// ExperimentRegistry is an ordered experiment collection. The zero value
// is not usable; construct with NewExperimentRegistry.
type ExperimentRegistry struct {
	order  []*Experiment
	byName map[string]*Experiment
}

// NewExperimentRegistry returns an empty registry.
func NewExperimentRegistry() *ExperimentRegistry {
	return &ExperimentRegistry{byName: map[string]*Experiment{}}
}

// Register adds an experiment. Empty names, nil runners and name
// collisions are errors — a collision means two experiments would race
// for one -experiment value.
func (r *ExperimentRegistry) Register(e *Experiment) error {
	switch {
	case e == nil || e.Name == "":
		return fmt.Errorf("experiment registry: empty name")
	case e.Run == nil:
		return fmt.Errorf("experiment registry: %s: nil Run", e.Name)
	case e.Name == "all" || strings.Contains(e.Name, ","):
		return fmt.Errorf("experiment registry: %s: name collides with selection syntax", e.Name)
	}
	if _, dup := r.byName[e.Name]; dup {
		return fmt.Errorf("experiment registry: duplicate experiment %q", e.Name)
	}
	r.byName[e.Name] = e
	r.order = append(r.order, e)
	return nil
}

// Names returns the experiment names in registration order.
func (r *ExperimentRegistry) Names() []string {
	out := make([]string, len(r.order))
	for i, e := range r.order {
		out[i] = e.Name
	}
	return out
}

// Lookup returns the named experiment.
func (r *ExperimentRegistry) Lookup(name string) (*Experiment, bool) {
	e, ok := r.byName[name]
	return e, ok
}

// Select resolves an -experiment value: "all" (or empty) selects every
// experiment; otherwise a comma-separated list of names. Unknown names
// are an error listing the valid set — the CLI turns that into a
// nonzero exit instead of silently running nothing. The selection runs
// in registration order regardless of how the list was spelled.
func (r *ExperimentRegistry) Select(spec string) ([]*Experiment, error) {
	if spec == "" || spec == "all" {
		return append([]*Experiment{}, r.order...), nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "all" {
			return append([]*Experiment{}, r.order...), nil
		}
		if _, ok := r.byName[name]; !ok {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, r.UsageSpec())
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("empty experiment selection (valid: %s)", r.UsageSpec())
	}
	var out []*Experiment
	for _, e := range r.order {
		if want[e.Name] {
			out = append(out, e)
		}
	}
	return out, nil
}

// BindFlags registers every experiment's private flags on fs and returns
// the per-experiment value structs, keyed by name — pass the matching
// entry back to Run/RunApp. Each call creates fresh storage, so several
// FlagSets can carry independent bindings.
func (r *ExperimentRegistry) BindFlags(fs *flag.FlagSet) map[string]any {
	out := map[string]any{}
	for _, e := range r.order {
		if e.Flags != nil {
			out[e.Name] = e.Flags(fs)
		}
	}
	return out
}

// UsageSpec returns the -experiment value syntax, generated from the
// registry so it cannot drift from what Select accepts.
func (r *ExperimentRegistry) UsageSpec() string {
	return "all|" + strings.Join(r.Names(), "|")
}

// Synopses renders one "name — synopsis" line per experiment for
// generated usage text.
func (r *ExperimentRegistry) Synopses() string {
	var b strings.Builder
	w := 0
	for _, e := range r.order {
		if len(e.Name) > w {
			w = len(e.Name)
		}
	}
	for _, e := range r.order {
		fmt.Fprintf(&b, "  %-*s  %s\n", w, e.Name, e.Synopsis)
	}
	return b.String()
}

// defaultRegistry is the process-wide registry the built-in experiments
// self-register into (experiments.go init).
var defaultRegistry = NewExperimentRegistry()

// RegisterExperiment adds an experiment to the default registry,
// panicking on collision (registration happens at init time; a
// collision is a programming error).
func RegisterExperiment(e *Experiment) {
	if err := defaultRegistry.Register(e); err != nil {
		panic(err)
	}
}

// Experiments returns the default registry.
func Experiments() *ExperimentRegistry { return defaultRegistry }
