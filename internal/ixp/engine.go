package ixp

import (
	"fmt"
	"strings"
)

// The machine has one simulation engine: the single-goroutine
// timing-wheel event loop of Machine.Run (eventq.go) over predecoded
// blocks (runME). What follows is the rest of the engine-selection
// surface, reduced to that one engine; each name stays only because the
// repository benchmark (bench/) compiles against it.

// EngineSpec names a simulation engine. It stays because bench/ passes
// ParseEngine's result to rts.Options.Engine.
type EngineSpec interface {
	// EngineName is the engine's stable identifier (one of EngineNames).
	EngineName() string
}

// EngineSerial is the one engine. It stays as EngineSpec's only
// implementation.
type EngineSerial struct{}

// EngineName implements EngineSpec.
func (EngineSerial) EngineName() string { return "serial" }

// EngineNames lists the valid engine names. It stays because ParseEngine
// errors with it.
func EngineNames() []string { return []string{"serial"} }

// ParseEngine resolves an engine name and shard count: "" or "serial"
// with 0 shards is the serial engine (nil spec); anything else errors
// with the valid set. It stays because bench/ probes the removed engines
// through it and records 0 for the names it rejects.
func ParseEngine(name string, shards int) (EngineSpec, error) {
	valid := strings.Join(EngineNames(), ", ")
	switch {
	case name != "" && name != "serial":
		return nil, fmt.Errorf("ixp: unknown engine %q (valid: %s)", name, valid)
	case shards != 0:
		return nil, fmt.Errorf("ixp: engine %q takes no shards, got %d (valid: %s with 0 shards)", name, shards, valid)
	}
	return nil, nil
}

// EngineInfo reports the engine name and shard count a run used: always
// ("serial", 0). It stays because the report schemas (bench/'s sweep
// included) record both.
func (m *Machine) EngineInfo() (name string, shards int) { return "serial", 0 }
