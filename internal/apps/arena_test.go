package apps_test

import (
	"bytes"
	"fmt"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/baker/types"
	"shangrila/internal/bakergen"
	"shangrila/internal/packet"
)

// tracedApp is one trace generator under test: an app and the types its
// traces are built against.
type tracedApp struct {
	app  *apps.App
	tp   *types.Program
	seed uint64
}

// arenaTraced is every trace the arena tests read: the three applications
// and bakergen seeds 0-19, each generated program traced with its own seed.
func arenaTraced(t *testing.T) []tracedApp {
	var out []tracedApp
	for _, a := range apps.All() {
		out = append(out, tracedApp{a, checkTypes(t, a), 1})
	}
	for seed := uint64(0); seed < 20; seed++ {
		a := bakergen.NewSpec(seed).Build()
		out = append(out, tracedApp{a, checkTypes(t, a), seed})
	}
	return out
}

// buffer is p's buffer from its first headroom byte to its last packet
// byte, aliased. A trace packet's head sits at packet.Headroom, so the raw
// read at -Headroom starts at the buffer's first byte.
func buffer(t *testing.T, p *packet.Packet) []byte {
	t.Helper()
	b, err := p.ReadRaw(0, -packet.Headroom, packet.Headroom+p.Len())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// whole is buffer extended to the end of its capacity.
func whole(t *testing.T, p *packet.Packet) []byte {
	t.Helper()
	b := buffer(t, p)
	return b[:cap(b)]
}

// packetState is a copy of everything a packet owns: its buffer with the
// headroom, its metadata record and its port.
func packetState(t *testing.T, p *packet.Packet) string {
	return fmt.Sprintf("%x|%x|%d", buffer(t, p), p.Meta, p.Port)
}

// fill overwrites b with a pattern of its own.
func fill(b []byte, v byte) {
	for i := range b {
		b[i] = v ^ byte(i)
	}
}

// sameExcept fails for every packet of tr other than tr[i] whose state
// differs from want; an empty want skips a packet already moved out of the
// arena.
func sameExcept(t *testing.T, name, what string, tr []*packet.Packet, want []string, i int) {
	t.Helper()
	for j, q := range tr {
		if j != i && want[j] != "" && packetState(t, q) != want[j] {
			t.Fatalf("%s: %s packet %d changed packet %d", name, what, i, j)
		}
	}
}

// TestTraceArenaIndependence: the packets of a trace are carved from one
// arena, yet each is its own. Overwriting the whole buffer capacity and
// metadata record of one leaves every other byte-identical; growing one past
// its headroom or its tail reallocates it instead of writing into its
// neighbour; and a Clone shares nothing with the arena.
func TestTraceArenaIndependence(t *testing.T) {
	const n = 64
	// Two 40-byte encapsulations at the head: the first fits the 64-byte
	// headroom, the second does not.
	outer := &types.Protocol{Name: "outer", FixedSize: 40}
	for _, ta := range arenaTraced(t) {
		name := ta.app.Name
		tr := ta.app.Trace(ta.tp, ta.seed, n)
		want := make([]string, n)
		for j, p := range tr {
			want[j] = packetState(t, p)
		}
		for i, p := range tr {
			fill(whole(t, p), 0x5a)
			fill(p.Meta[:cap(p.Meta)], 0xa5)
			sameExcept(t, name, "overwriting", tr, want, i)
			want[i] = packetState(t, p)
		}

		tr = ta.app.Trace(ta.tp, ta.seed, n)
		for j, p := range tr {
			want[j] = packetState(t, p)
		}
		for _, i := range []int{0, n / 2, n - 1} {
			p := tr[i]
			p.AddTail(8)
			b := p.Bytes()
			fill(b[:cap(b)], 0x3c)
			sameExcept(t, name, "growing the tail of", tr, want, i)
			for k := 0; k < 2; k++ {
				if _, err := p.Encap(0, outer); err != nil {
					t.Fatalf("%s: encap: %v", name, err)
				}
				b = p.Bytes()
				fill(b[:cap(b)], 0xc3)
				sameExcept(t, name, "growing the front of", tr, want, i)
			}
			want[i] = ""
		}

		tr = ta.app.Trace(ta.tp, ta.seed, n)
		for _, i := range []int{0, n - 1} {
			p := tr[i]
			before := packetState(t, p)
			c := p.Clone()
			if packetState(t, c) != before {
				t.Fatalf("%s: clone of packet %d differs from it", name, i)
			}
			fill(whole(t, p), 0x11)
			fill(p.Meta[:cap(p.Meta)], 0x22)
			if packetState(t, c) != before {
				t.Fatalf("%s: overwriting packet %d changed its clone", name, i)
			}
			after := packetState(t, p)
			fill(whole(t, c), 0x33)
			fill(c.Meta[:cap(c.Meta)], 0x44)
			if packetState(t, p) != after {
				t.Fatalf("%s: overwriting the clone of packet %d changed it", name, i)
			}
		}
	}
}

// TestTraceGenerateAllocs: a trace allocates per trace, not per packet —
// its packets are carved from one arena and its headers resolved once — so
// a trace twice as long makes no more than a few more allocations (an arena
// slab refilled once more for generated programs with large packets).
func TestTraceGenerateAllocs(t *testing.T) {
	const slack = 4
	traced := []tracedApp{}
	for _, a := range apps.All() {
		traced = append(traced, tracedApp{a, checkTypes(t, a), 7})
	}
	for seed := uint64(goldenSpecSeed); seed < goldenSpecSeed+5; seed++ {
		a := bakergen.NewSpec(seed).Build()
		traced = append(traced, tracedApp{a, checkTypes(t, a), seed})
	}
	for _, ta := range traced {
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(5, func() { ta.app.Trace(ta.tp, ta.seed, n) })
		}
		short, long := allocs(512), allocs(1024)
		t.Logf("%s: %.0f allocations for 512 packets, %.0f for 1024", ta.app.Name, short, long)
		if long > short+slack {
			t.Errorf("%s: %.0f allocations for 1024 packets, %.0f for 512; want at most %d more",
				ta.app.Name, long, short, slack)
		}
	}
}

// TestTraceEqualsCopies: the arena changes where a packet lives, not its
// shape — each trace packet's buffer, headroom and capacity included, and
// metadata equal those of a packet.New copy of it.
func TestTraceEqualsCopies(t *testing.T) {
	for _, ta := range arenaTraced(t)[:4] {
		for i, p := range ta.app.Trace(ta.tp, ta.seed, 32) {
			q := packet.New(p.Bytes(), len(p.Meta))
			copy(q.Meta, p.Meta)
			if !bytes.Equal(whole(t, q), whole(t, p)) || !bytes.Equal(q.Meta, p.Meta) {
				t.Fatalf("%s: packet %d's buffer differs from a NewZero packet's of the same bytes", ta.app.Name, i)
			}
		}
	}
}
