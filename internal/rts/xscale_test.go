package rts_test

import (
	"encoding/binary"
	"testing"

	"shangrila/internal/apps"
	"shangrila/internal/cg"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
	"shangrila/internal/profiler"
	"shangrila/internal/rts"
)

// readSRAMWord reads a global's first word out of simulated SRAM.
func readSRAMWord(rt *rts.Runtime, name string) uint32 {
	addr := rt.Img.Layout.GlobalAddr[name]
	return binary.BigEndian.Uint32(rt.M.Window(cg.MemSRAM, addr, 4))
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
	if err := rt.Boot(app.Controls); err != nil {
		t.Fatal(err)
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
	if err := rt.Boot(app.Controls); err != nil {
		t.Fatal(err)
	}
	// Move every hot prefix to next hop 42 mid-run; neighbor 42 has a
	// recognizable MAC.
	update := func(at int64, name string, args ...uint32) rts.Update {
		return rts.Update{At: at, Control: profiler.Control{Name: name, Args: args}}
	}
	ups := rt.ScheduleUpdates([]rts.Update{
		update(300_000, "l3switch.add_neighbor", 42, 0x0bb0, 0x11000042, 1),
		update(301_000, "l3switch.add_route", 0x0a000000, 8, 42),
		update(301_500, "l3switch.add_route", 0x0a010000, 16, 42),
		update(302_000, "l3switch.add_route", 0xc0a80000, 16, 42),
		update(302_500, "l3switch.add_route", 0xc0a80100, 24, 42),
	})
	if err := rt.Run(900_000); err != nil {
		t.Fatal(err)
	}
	if ups.Applied != 5 || ups.Failed != 0 {
		t.Fatalf("updates: %+v, want all 5 applied", *ups)
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
