package ixp

import "shangrila/internal/metrics"

// Option configures a Machine at construction. Options apply left to
// right before the configuration is validated, so construction is one
// call:
//
//	m, err := ixp.New(cfg,
//	    ixp.WithMedia(media),
//	    ixp.WithTracer(ixp.NewStallTracer(cfg.NumMEs, cfg.ThreadsPerME)))
type Option func(*Machine)

// WithMedia installs the machine's traffic interface: the implementation
// that supplies arriving packets (Inject) and consumes transmitted ones
// (Transmit). Machines without media only execute code — no Rx tick
// chain is scheduled.
func WithMedia(media Media) Option {
	return func(m *Machine) { m.media = media }
}

// WithTracer installs the event sink from construction on (nil keeps
// tracing off; compose several sinks with MultiTracer). Equivalent to
// Observer().SetTracer before the first Run, folded into the same
// construction call.
func WithTracer(t Tracer) Option {
	return func(m *Machine) { m.tracer = t }
}

// WithMetrics hands the machine the telemetry registry its instruments
// land in, overriding Config.Metrics. Nil keeps the config's registry
// (or a private one).
func WithMetrics(reg *metrics.Registry) Option {
	return func(m *Machine) {
		if reg != nil {
			m.Cfg.Metrics = reg
		}
	}
}
