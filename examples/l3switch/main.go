// L3-Switch example: compile the paper's flagship benchmark at two
// optimization levels, compare forwarding rates, and demonstrate the
// delayed-update software cache: a route change pushed through the
// control plane mid-run takes effect with bounded staleness while the
// data path keeps forwarding at full rate.
package main

import (
	"fmt"
	"log"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
	"shangrila/internal/profiler"
	"shangrila/internal/rts"
)

func main() {
	app := apps.L3Switch()

	fmt.Println("=== compiling L3-Switch at BASE and +SWC ===")
	cfg := harness.DefaultRunConfig()
	cfg.NumMEs, cfg.Seed = 6, 7
	cfg.Warmup, cfg.Measure = 100_000, 500_000
	for _, lvl := range []driver.Level{driver.LevelBase, driver.LevelSWC} {
		cfg.Level = lvl
		r, err := cfg.Run(app)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6v %5.2f Gbps  %4.1f mem accesses/packet  code %v\n",
			lvl, r.Gbps, r.Total(), r.CodeSizes)
	}

	fmt.Println("\n=== live route update through the control plane ===")
	res, err := harness.Compile(app, driver.LevelSWC, 7)
	if err != nil {
		log.Fatal(err)
	}
	trc := app.Trace(res.Prog.Types, 8, 256)
	rt, err := rts.New(res.Image, res.Prog, trc, rts.Options{NumMEs: 4})
	if err != nil {
		log.Fatal(err)
	}
	if err := rt.Boot(app.Controls); err != nil {
		log.Fatal(err)
	}
	// Schedule a route change at cycle 200k: 10.1/16 moves to next hop 42.
	// The XScale writes the table's home location in SRAM and raises the
	// update flag; each ME's software cache picks the change up at its
	// next delayed-update check (§5.2, Figure 8).
	ups := rt.ScheduleUpdates([]rts.Update{
		{At: 200_000, Control: profiler.Control{Name: "l3switch.add_route", Args: []uint32{0x0a010000, 16, 42}}},
		{At: 200_000, Control: profiler.Control{Name: "l3switch.add_neighbor", Args: []uint32{42, 0x0bb0, 0x11000042, 1}}},
	})
	if err := rt.Run(400_000); err != nil {
		log.Fatal(err)
	}
	if ups.Applied != 2 || ups.Failed != 0 {
		log.Fatalf("route change: %d of %d updates applied, %d failed", ups.Applied, ups.Scheduled, ups.Failed)
	}
	st := rt.M.Snapshot()
	fmt.Printf("forwarded %d packets at %.2f Gbps across the update\n",
		st.TxPackets, st.Gbps(rt.M.Cfg.ClockMHz))
	fmt.Println("(delivery during the staleness window used the old next hop —")
	fmt.Println(" the bounded error §5.2 trades for coherence traffic)")
}
