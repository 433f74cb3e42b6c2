package ixp

// Option configures a Machine at construction. Options apply left to
// right before the configuration is validated, so construction is one
// call:
//
//	m, err := ixp.New(cfg, ixp.WithMedia(media))
type Option func(*Machine)

// WithMedia installs the machine's traffic interface: the implementation
// that supplies arriving packets (Inject) and consumes transmitted ones
// (Transmit). Machines without media only execute code — no Rx tick
// chain is scheduled.
func WithMedia(media Media) Option {
	return func(m *Machine) { m.media = media }
}
