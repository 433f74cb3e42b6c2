package profiler_test

import (
	"math/rand/v2"
	"regexp"
	"slices"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/bakergen"
	"shangrila/internal/driver"
	"shangrila/internal/profiler"
	"shangrila/internal/workload"
)

// sinkLookup is the table read of a generated program's sink PPF.
var sinkLookup = regexp.MustCompile(`ph->meta\.tx_port = tbl\[(.*)\] & 3;\n        channel_put\(out_cc, ph\);`)

// steered rewrites a generated program's sink so that its table steers the
// data path: each packet bumps the entry it reads and is dropped when the
// bumped entry has bit 1 set. A table write then changes which blocks later
// packets enter, directly and through the packets before them. (In the
// generated program itself a table value only reaches metadata, so no count
// of the profile depends on one.)
func steered(t *testing.T, src string) string {
	out := sinkLookup.ReplaceAllString(src, `ph->meta.tx_port = tbl[$1] & 3;
        tbl[$1] = tbl[$1] + 1;
        if ((tbl[$1] & 2) == 2) { drops += 1; packet_drop(ph); } else { channel_put(out_cc, ph); }`)
	if out == src {
		t.Fatal("the generated sink PPF no longer has the shape steered rewrites")
	}
	return out
}

// TestIncrementalMatchesFull is the property the incremental profile rests
// on, over 50 generated programs, each as generated and steered by its
// table: after each of 40 random table writes, an Incremental's profile
// equals a full ProfileWithControls count for count. The writes mix three
// kinds. A write of the value a slot already holds and a write to a slot no
// trace packet reads change no word any packet read, so they must
// re-interpret no packet at all; a write of a fresh value to a random slot
// may re-interpret any.
func TestIncrementalMatchesFull(t *testing.T) {
	again := 0
	for seed := uint64(5000); seed < 5050; seed++ {
		for _, steer := range []bool{false, true} {
			again += incrementalMatchesFull(t, seed, steer)
		}
	}
	if again == 0 {
		t.Error("no write re-interpreted a packet: nothing was checked but skipping")
	}
}

// incrementalMatchesFull runs one program's 40 writes and returns how many
// packets their profiles re-interpreted.
func incrementalMatchesFull(t *testing.T, seed uint64, steer bool) (again int) {
	a := bakergen.NewSpec(seed).Build()
	src := a.Source
	if steer {
		src = steered(t, src)
	}
	prog, err := driver.LowerSource(a.Name+".baker", src)
	if err != nil {
		t.Fatal(err)
	}
	tr := a.Trace(prog.Types, seed, 64)
	controls := slices.Clone(a.Controls)
	table := make([]uint32, len(controls)) // the generator sizes its table to its boot controls
	for _, c := range controls {
		table[c.Args[0]] = c.Args[1]
	}
	inc, got, err := profiler.NewIncremental(prog, tr, controls)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	for d := 0; ; d++ {
		want, err := profiler.ProfileWithControls(prog, tr, controls)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s (steered %v), delta %d: the incremental profile differs from a full one in %s", a.Name, steer, d, got.Diff(prog, want))
		}
		if d == 40 {
			break
		}
		var unread []uint32
		if gs := got.Globals[prog.Types.Globals["fz.tbl"].ID]; gs.LineReads != nil {
			for i := range table {
				if gs.LineReads[uint32(i)*4/profiler.CacheLineBytes] == 0 {
					unread = append(unread, uint32(i))
				}
			}
		}
		i, v := rng.Uint32N(uint32(len(table))), rng.Uint32()
		kind := rng.IntN(3)
		switch {
		case kind == 0:
			v = table[i]
		case kind == 1 && len(unread) > 0:
			i = unread[rng.IntN(len(unread))]
		default:
			kind = 2
		}
		table[i] = v
		controls = append(controls, profiler.Control{Name: "fz.set_tbl", Args: []uint32{i, v}})
		if got, err = inc.Profile(controls); err != nil {
			t.Fatal(err)
		}
		if kind < 2 && inc.Reinterpreted != 0 {
			t.Errorf("%s (steered %v), delta %d: a write no packet can see re-interpreted %d packets", a.Name, steer, d, inc.Reinterpreted)
		}
		again += inc.Reinterpreted
	}
	return again
}

// BenchmarkIncrementalProfile is the profile a Session recompile runs, for
// each application: one churn delta's controls, then the 512-packet trace,
// re-interpreting only the packets the delta reaches. The Firewall's read
// logs are about five times L3-Switch's, so its staleness checks cost most.
func BenchmarkIncrementalProfile(b *testing.B) {
	for _, a := range apps.All() {
		b.Run(a.Name, func(b *testing.B) {
			prog, err := driver.LowerSource(a.Name+".baker", a.Source)
			if err != nil {
				b.Fatal(err)
			}
			tr := a.Trace(prog.Types, 1, 512)
			stream, err := workload.NewChurnStream(workload.ChurnSpec{Seed: 1, UpdatesPerSec: 1000,
				Items: len(a.Churn.Targets), WithdrawFraction: 0.25})
			if err != nil {
				b.Fatal(err)
			}
			controls := slices.Clone(a.Controls)
			inc, _, err := profiler.NewIncremental(prog, tr, controls)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			again := 0
			for i := 0; i < b.N; i++ {
				ev := stream.Next()
				controls = append(controls, a.Churn.State(ev.Item, ev.Version, ev.Withdraw))
				if _, err := inc.Profile(controls); err != nil {
					b.Fatal(err)
				}
				again += inc.Reinterpreted
			}
			b.ReportMetric(float64(again)/float64(b.N), "reinterpreted/op")
		})
	}
}
