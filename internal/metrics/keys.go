package metrics

import "fmt"

// Key names an instrument. Registry lookups take a Key rather than a bare
// string so that ad-hoc fmt.Sprintf key construction fails to compile at
// the call site: well-known instruments get a typed constructor below, and
// one constructor per key family keeps the naming scheme in one place.
// Untyped string literals still convert implicitly, so fixed-name callers
// (`reg.Counter("tx")`) are unaffected.
type Key string

// String returns the key's wire name (the map key in Snapshot output).
func (k Key) String() string { return string(k) }

// MEUtil is microengine i's utilization time-series (busy fraction per
// sample interval).
func MEUtil(i int) Key { return Key(fmt.Sprintf("me%d.util", i)) }

// CtrlSat is a memory controller's saturation time-series (occupancy
// fraction per sample interval); level is the controller name
// (scratch/sram/dram).
func CtrlSat(level string) Key { return Key("ctrl." + level + ".sat") }

// CtrlQueue is a memory controller's queue-backlog time-series (cycles of
// already-committed service ahead of a new request).
func CtrlQueue(level string) Key { return Key("ctrl." + level + ".queue") }

// RingOcc is scratch ring i's occupancy time-series (entries at each
// sample instant).
func RingOcc(i int) Key { return Key(fmt.Sprintf("ring%d.occ", i)) }

// PassRuns counts executions of a named compiler pass.
func PassRuns(pass string) Key { return Key("compile.pass." + pass + ".runs") }

// PassNanos accumulates a named compiler pass's wall-clock nanoseconds.
func PassNanos(pass string) Key { return Key("compile.pass." + pass + ".nanos") }

// PassVerifyNanos accumulates the IR-verification nanoseconds charged to a
// named compiler pass.
func PassVerifyNanos(pass string) Key { return Key("compile.pass." + pass + ".verify_nanos") }

// PassSizeDelta gauges a named compiler pass's last instruction-count
// delta (after - before; negative means the pass shrank the program).
func PassSizeDelta(pass string) Key { return Key("compile.pass." + pass + ".size_delta") }

// PassOptRoundsMax gauges the most fixpoint rounds the scalar optimizer
// needed on any one function inside a named compiler pass.
func PassOptRoundsMax(pass string) Key { return Key("compile.pass." + pass + ".opt_rounds_max") }

// PassOptRounds counts the scalar optimizer's fixpoint rounds inside a
// named compiler pass, summed over the functions it optimized.
func PassOptRounds(pass string) Key { return Key("compile.pass." + pass + ".opt_rounds") }

// PassOptUnconverged counts the functions the scalar optimizer left still
// changing at its round cap inside a named compiler pass.
func PassOptUnconverged(pass string) Key { return Key("compile.pass." + pass + ".opt_unconverged") }

// PassSkips counts the times an incremental recompile reused a named
// pass's cached result instead of executing it.
func PassSkips(pass string) Key { return Key("compile.pass." + pass + ".skips") }

// PassRerun counts the times a driver.Session had to execute a named pass
// for one reason: "cold" (nothing cached), "ir" (the IR entering the pass
// changed), "fact_<fact>" (a fact the pass reads changed: "fact_soar",
// "fact_plan", "fact_profile", or one of the profile's views,
// "fact_weights" for aggregation and "fact_swc_selection" for SWC) or
// "controls" (a profile held from before the latest delta's controls).
func PassRerun(pass, reason string) Key { return Key("compile.pass." + pass + ".rerun." + reason) }

// Session-level incremental-compilation counters: total compiles executed
// by a driver.Session, how many of those reused at least one held pass
// result, how many re-executed passes reproduced a held output (IR and
// facts), so that their successors stayed reusable, and how many skips
// reused a held result other than the most recent one of its pass.
const (
	SessionCompiles    = Key("compile.session.compiles")
	SessionIncremental = Key("compile.session.incremental")
	SessionCutoffs     = Key("compile.session.cutoffs")
	SessionHistoryHits = Key("compile.session.history_hits")
)

// Incremental-profile decision records of a driver.Session: the trace
// packets its incremental profiles interpreted again because a delta
// reached them, and the ones they skipped, each packet once per profile;
// and the packets whose read logs they compared, the only ones a delta's
// writes could reach.
const (
	ProfilePacketsReinterpreted = Key("compile.profile.packets_reinterpreted")
	ProfilePacketsReused        = Key("compile.profile.packets_reused")
	ProfilePacketsChecked       = Key("compile.profile.packets_checked")
)

// ProfileFull counts the times a driver.Session profiled in full instead of
// incrementally, for one reason: "cold" (nothing kept yet), "error" (a
// profile failed) or "rollback" (a failed Recompile was undone).
func ProfileFull(reason string) Key { return Key("compile.profile.full." + reason) }

// StallShareKey is the per-category stall-share gauge family exported from
// a stall breakdown (category as in ixp.Stall.StallShare, e.g.
// "mem_queue.dram").
func StallShareKey(category string) Key { return Key("stall.share." + category) }
