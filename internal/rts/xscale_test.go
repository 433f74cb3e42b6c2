package rts_test

import (
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/cg"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
	"shangrila/internal/rts"
)

// readSRAMWord reads a global's first word out of simulated SRAM.
func readSRAMWord(rt *rts.Runtime, name string) uint32 {
	addr := rt.Img.Layout.GlobalAddr[name]
	b := rt.M.Window(cg.MemSRAM, addr, 4)
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// TestXScalePathProcessesARP verifies the control-path bridge: ARP frames
// (0.5% of the L3-Switch trace) travel over a scratch ring to the
// XScale-mapped arp_handler, which runs interpreted against simulated
// memory — its counter must advance in SRAM.
func TestXScalePathProcessesARP(t *testing.T) {
	app := apps.L3Switch()
	res, err := harness.Compile(app, driver.LevelSWC, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Image.XScale) == 0 {
		t.Fatal("no XScale aggregates in the image")
	}
	trc := app.Trace(res.Prog.Types, 5, 400) // includes 2 ARP frames
	rt, err := rts.New(res.Image, res.Prog, trc, rts.Options{NumMEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range app.Controls {
		if err := rt.Control(c.Name, c.Args...); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Run(900_000); err != nil {
		t.Fatal(err)
	}
	if rt.M.Snapshot().TxPackets == 0 {
		t.Fatal("no traffic forwarded")
	}
	arp := readSRAMWord(rt, "l3switch.arp_seen")
	if arp == 0 {
		t.Errorf("arp_seen = 0: XScale path never ran")
	}
	t.Logf("XScale handled %d ARP frames while MEs forwarded %d packets", arp, rt.M.Snapshot().TxPackets)
}

// TestSWCDelayedUpdateStaleness demonstrates §5.2's trade on the real
// machine model: a control-plane route change takes effect on the data
// path — but only after the delayed-update check fires, so frames in the
// staleness window still carry the old next hop. Both next hops must be
// observed on the wire across the update.
func TestSWCDelayedUpdateStaleness(t *testing.T) {
	app := apps.L3Switch()
	res, err := harness.Compile(app, driver.LevelSWC, 7)
	if err != nil {
		t.Fatal(err)
	}
	trc := app.Trace(res.Prog.Types, 6, 200)
	rt, err := rts.New(res.Image, res.Prog, trc, rts.Options{
		NumMEs: 2, CaptureLimit: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range app.Controls {
		if err := rt.Control(c.Name, c.Args...); err != nil {
			t.Fatal(err)
		}
	}
	// Move every hot prefix to next hop 42 mid-run; neighbor 42 has a
	// recognizable MAC.
	rt.ControlAt(300_000, "l3switch.add_neighbor", 42, 0x0bb0, 0x11000042, 1)
	rt.ControlAt(301_000, "l3switch.add_route", 0x0a000000, 8, 42)
	rt.ControlAt(301_500, "l3switch.add_route", 0x0a010000, 16, 42)
	rt.ControlAt(302_000, "l3switch.add_route", 0xc0a80000, 16, 42)
	rt.ControlAt(302_500, "l3switch.add_route", 0xc0a80100, 24, 42)
	if err := rt.Run(900_000); err != nil {
		t.Fatal(err)
	}
	oldMAC, newMAC := 0, 0
	for _, f := range rt.TxCapture {
		if len(f.Frame) < 6 {
			continue
		}
		dstLo := uint32(f.Frame[2])<<24 | uint32(f.Frame[3])<<16 |
			uint32(f.Frame[4])<<8 | uint32(f.Frame[5])
		switch {
		case dstLo == 0x11000042:
			newMAC++
		case dstLo>>8 == 0x110000:
			oldMAC++
		}
	}
	t.Logf("frames to old next hops: %d, to updated next hop 42: %d (tx=%d)",
		oldMAC, newMAC, rt.M.Snapshot().TxPackets)
	if oldMAC == 0 {
		t.Error("no frames used the pre-update routes")
	}
	if newMAC == 0 {
		t.Error("the route update never became visible (delayed-update flag/flush broken)")
	}
}
