package profiler

import (
	"errors"
	"strings"
	"testing"

	"shangrila/internal/packet"
)

// xPackets returns one 8-byte packet per x, in order, for a program whose
// protocol starts with the 32-bit field x.
func xPackets(metaBytes int, xs ...byte) []*packet.Packet {
	var tr []*packet.Packet
	for _, x := range xs {
		p := packet.New(make([]byte, 8), metaBytes)
		p.Bytes()[3] = x
		tr = append(tr, p)
	}
	return tr
}

// TestIncrementalFollowsChangedWrites: when a packet interpreted again
// changes which words it writes, the packets after it that read a word it
// stopped writing, and those that read a word it started writing, are
// checked and interpreted again; a packet before it that reads either word
// is not looked at. The writer reads mode and writes flag[mode]; the
// readers drop their packet when their flag word is set.
func TestIncrementalFollowsChangedWrites(t *testing.T) {
	prog := lowerSrc(t, `
protocol p { x:32; y:32; demux { 8 }; }
module m {
	uint mode;
	uint flag[4];
	channel out : p;
	ppf f(p ph) {
		if (ph->x == 0) {
			flag[mode & 3] = 1;
			channel_put(out, ph);
		} else if (flag[ph->x & 3] == 1) {
			packet_drop(ph);
		} else {
			channel_put(out, ph);
		}
	}
	control func set_mode(uint v) { mode = v; }
	wiring { rx -> f; out -> tx; }
}`)
	// A reader of flag[0] before the writer, the writer, then readers of
	// flag[0] and flag[1] after it.
	tr := xPackets(prog.Types.Metadata.Bytes, 4, 0, 4, 1)
	var controls []Control
	in, _, err := NewIncremental(prog, tr, controls)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		mode           uint32
		again, checked int
	}{
		{1, 3, 3}, // the writer moves from flag[0] to flag[1]: both later readers change
		{1, 0, 0}, // mode written with the value it holds: nothing is looked at
		{0, 3, 3}, // and back
		{2, 2, 2}, // from flag[0] to flag[2], which nobody reads: the flag[1] reader is not looked at
	} {
		controls = append(controls, Control{Name: "m.set_mode", Args: []uint32{step.mode}})
		got, err := in.Profile(controls)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ProfileWithControls(prog, tr, controls)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("mode %d: the incremental profile differs from a full one in %s", step.mode, got.Diff(prog, want))
		}
		if in.Reinterpreted != step.again || in.Checked != step.checked {
			t.Errorf("mode %d: %d packets interpreted again and %d checked, want %d and %d",
				step.mode, in.Reinterpreted, in.Checked, step.again, step.checked)
		}
	}
}

// TestIncrementalRefusesAfterFailure: once a profile fails, the state it
// left is half-updated, so every later Profile fails too, naming the first
// failure, even with controls that would profile cleanly.
func TestIncrementalRefusesAfterFailure(t *testing.T) {
	prog := lowerSrc(t, `
protocol p { x:32; y:32; demux { 8 }; }
module m {
	uint at;
	uint tbl[4];
	channel out : p;
	ppf f(p ph) { tbl[at] = ph->x; channel_put(out, ph); }
	control func set_at(uint v) { at = v; }
	wiring { rx -> f; out -> tx; }
}`)
	tr := xPackets(prog.Types.Metadata.Bytes, 1, 2, 3)
	controls := []Control{{Name: "m.set_at", Args: []uint32{2}}}
	in, _, err := NewIncremental(prog, tr, controls)
	if err != nil {
		t.Fatal(err)
	}
	controls = append(controls, Control{Name: "m.set_at", Args: []uint32{9}}) // out of range
	_, first := in.Profile(controls)
	if first == nil {
		t.Fatal("a packet indexing past the table did not fail the profile")
	}
	controls = append(controls, Control{Name: "m.set_at", Args: []uint32{1}})
	for i := 0; i < 2; i++ {
		st, err := in.Profile(controls)
		if err == nil || st != nil {
			t.Fatalf("profile %d after a failure returned %v, %v; want an error", i, st, err)
		}
		if !errors.Is(err, first) || !strings.Contains(err.Error(), first.Error()) {
			t.Errorf("profile %d after a failure: %q does not name the failure %q", i, err, first)
		}
	}
}
