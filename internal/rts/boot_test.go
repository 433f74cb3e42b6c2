package rts_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/baker/types"
	"shangrila/internal/bakergen"
	"shangrila/internal/cg"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
	"shangrila/internal/rts"
)

// initRouter is miniRouter with an init function: it seeds a route the
// boot controls never touch, so a boot that skips the inits leaves a word
// the host model holds.
var initRouter = strings.Replace(miniRouter, "\tcontrol func add_route",
	"\tinit func seed() { table[63].dst = 0x0b000001; table[63].nh = 9; }\n\n\tcontrol func add_route", 1)

// TestBootTablesAgree holds the host model and the simulator to one boot:
// after profiler.NewSession + Boot on the lowered program and rts.New +
// Boot on its compiled image, every word of every declared Scratch or SRAM
// global holds the same value on both sides. The frame differential only
// sees tables through the packets that read them; this compares the
// tables themselves, for the three apps, 20 generated programs and
// initRouter (none of the others declares an init function) at BASE and
// +SWC.
func TestBootTablesAgree(t *testing.T) {
	progs := []*apps.App{apps.L3Switch(), apps.MPLS(), apps.Firewall()}
	for seed := uint64(0); seed < 20; seed++ {
		progs = append(progs, bakergen.NewSpec(seed).Build())
	}
	for _, lvl := range []driver.Level{driver.LevelBase, driver.LevelSWC} {
		for i, a := range progs {
			t.Run(fmt.Sprintf("%s/%v", a.Name, lvl), func(t *testing.T) {
				res, err := harness.Compile(a, lvl, 7)
				if err != nil {
					t.Fatal(err)
				}
				// The three apps boot routes, labels and rules: a
				// comparison of all-zero tables would show nothing.
				if nonzero := bootAndCompare(t, a.Source, a.Controls, res); i < 3 && nonzero == 0 {
					t.Fatal("every compared word is zero: the boot left no table state")
				}
			})
		}
		t.Run(fmt.Sprintf("initRouter/%v", lvl), func(t *testing.T) {
			if bootAndCompare(t, initRouter, routerControls, compileSrc(t, initRouter, lvl)) == 0 {
				t.Fatal("every compared word is zero: the boot left no table state")
			}
		})
	}
}

// bootAndCompare boots src's lowered program on the host and res's image
// on the simulator, each with controls, and compares their global words,
// returning how many compared words are nonzero.
func bootAndCompare(t *testing.T, src string, controls []profiler.Control, res *driver.Result) (nonzero int) {
	prog, err := driver.LowerSource("boot.baker", src)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := profiler.NewSession(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Boot(controls); err != nil {
		t.Fatal(err)
	}
	rt, err := rts.New(res.Image, res.Prog, nil, rts.Options{NumMEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Boot(controls); err != nil {
		t.Fatal(err)
	}
	// The lowered program declares no synthetic globals; the ones SWC adds
	// to the image are left out.
	globals := make([]*types.Global, len(prog.Types.Globals))
	for _, g := range prog.Types.Globals {
		globals[g.ID] = g
	}
	for _, g := range globals {
		level := cg.MemSRAM
		switch g.Space {
		case types.SpaceScratch:
			level = cg.MemScratch
		case types.SpaceSRAM:
		default:
			continue
		}
		addr, ok := rt.Img.Layout.GlobalAddr[g.Name]
		if !ok {
			t.Fatalf("global %s has no address in the image", g.Name)
		}
		for off := uint32(0); off < uint32(g.Type.SizeBytes()); off += 4 {
			host, err := sess.ReadGlobalWord(g.Name, off)
			if err != nil {
				t.Fatal(err)
			}
			sim := binary.BigEndian.Uint32(rt.M.Window(level, addr+off, 4))
			if host != sim {
				t.Fatalf("%s word at byte %d: host %#x, simulator %#x", g.Name, off, host, sim)
			}
			if host != 0 {
				nonzero++
			}
		}
	}
	return nonzero
}

// TestBootRefusesNonControl holds every boot path to control functions
// only, as a driver.Session delta is: naming initRouter's init function or
// one of its PPFs as a boot control fails on the host (Session.Boot), in
// the runtime (Runtime.Boot) and in a profile (ProfileWithControls), with
// the same text, rather than running the function again.
func TestBootRefusesNonControl(t *testing.T) {
	prog, err := driver.LowerSource("boot.baker", initRouter)
	if err != nil {
		t.Fatal(err)
	}
	res := compileSrc(t, initRouter, driver.LevelBase)
	for _, name := range []string{"app.seed", "app.clsfr"} {
		controls := append(slices.Clone(routerControls), profiler.Control{Name: name})
		want := fmt.Sprintf("control %s: no control function %q", name, name)
		boots := map[string]func() error{
			"host": func() error {
				sess, err := profiler.NewSession(prog)
				if err != nil {
					return err
				}
				return sess.Boot(controls)
			},
			"rts": func() error {
				rt, err := rts.New(res.Image, res.Prog, nil, rts.Options{NumMEs: 1})
				if err != nil {
					return err
				}
				return rt.Boot(controls)
			},
			"profile": func() error {
				_, err := profiler.ProfileWithControls(prog, nil, controls)
				return err
			},
		}
		for path, boot := range boots {
			if err := boot(); err == nil || err.Error() != want {
				t.Errorf("%s boot with %s: got %v, want %q", path, name, err, want)
			}
		}
	}
}

// TestRunLeavesTraceUntouched pins what lets the differential hand one
// trace to the runtime of every level: a runtime only reads its trace
// (enqueue copies each packet into simulated DRAM). After rts.New, Boot and
// a Run of MPLS, which pushes and pops labels on every packet, at BASE and
// +SWC, every trace packet's bytes (headroom included), metadata and port
// are unchanged.
func TestRunLeavesTraceUntouched(t *testing.T) {
	a := apps.MPLS()
	for _, lvl := range []driver.Level{driver.LevelBase, driver.LevelSWC} {
		res, err := harness.Compile(a, lvl, 7)
		if err != nil {
			t.Fatal(err)
		}
		tr := a.Trace(res.Prog.Types, 1235, 64)
		pristine := make([]*packet.Packet, len(tr))
		for i, p := range tr {
			pristine[i] = p.Clone()
		}
		rt, err := rts.New(res.Image, res.Prog, tr, rts.Options{NumMEs: 2})
		if err == nil {
			err = rt.Boot(a.Controls)
		}
		if err == nil {
			err = rt.Run(200_000)
		}
		if err != nil {
			t.Fatal(err)
		}
		if rt.M.Snapshot().TxPackets == 0 {
			t.Fatalf("%v: the run transmitted nothing", lvl)
		}
		for i, p := range tr {
			want := pristine[i]
			got, err := p.ReadRaw(0, -packet.Headroom, packet.Headroom+p.Len())
			if err != nil {
				t.Fatalf("%v: packet %d lost its headroom: %v", lvl, i, err)
			}
			whole, _ := want.ReadRaw(0, -packet.Headroom, packet.Headroom+want.Len())
			if !bytes.Equal(got, whole) || !bytes.Equal(p.Meta, want.Meta) || p.Port != want.Port {
				t.Fatalf("%v: the run rewrote trace packet %d", lvl, i)
			}
		}
	}
}
