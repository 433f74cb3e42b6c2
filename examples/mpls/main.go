// MPLS example: run the label-switching benchmark functionally and
// inspect its label operations — swaps, pops (including multi-label
// stacks that loop back through the pop channel), pushes and edge
// imposition — then measure it on the IXP model. The unbounded label
// stack is the paper's Figure 9 case: the IPv4 payload's offset cannot be
// resolved statically, which is exactly what SOAR's ⊥offset lattice value
// models.
package main

import (
	"fmt"
	"log"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
	"shangrila/internal/profiler"
)

func main() {
	app := apps.MPLS()

	// Functional pass: count label operations over a trace.
	prog, err := driver.LowerSource("mpls.baker", app.Source)
	if err != nil {
		log.Fatal(err)
	}
	tp := prog.Types
	s, err := profiler.NewSession(prog)
	if err != nil {
		log.Fatal(err)
	}
	if err := s.Boot(app.Controls); err != nil {
		log.Fatal(err)
	}
	for _, p := range app.Trace(tp, 99, 500) {
		if err := s.Inject(p); err != nil {
			log.Fatal(err)
		}
	}
	read := func(name string) uint32 {
		v, err := s.ReadGlobalWord("mplsapp."+name, 0)
		if err != nil {
			log.Fatal(err)
		}
		return v
	}
	fmt.Println("=== label operations over 500 packets ===")
	fmt.Printf("swapped %d   popped %d   pushed %d   imposed (LER) %d\n",
		read("swapped"), read("popped"), read("pushed"), read("imposed"))
	fmt.Printf("forwarded %d, dropped %d\n", s.Stats.Forwarded, s.Stats.Dropped)

	// Grown frames show label pushes on the wire.
	grown := 0
	for _, o := range s.Out {
		if len(o.P.Bytes())-o.Head > 64 {
			grown++
		}
	}
	fmt.Printf("%d frames left larger than they arrived (pushed labels)\n\n", grown)

	// Compiled run across optimization levels.
	fmt.Println("=== forwarding rate on the IXP2400 model (6 MEs) ===")
	for _, lvl := range []driver.Level{driver.LevelBase, driver.LevelPAC, driver.LevelSWC} {
		res, err := harness.Compile(app, lvl, 7)
		if err != nil {
			log.Fatal(err)
		}
		r, err := harness.Run(app,
			harness.WithCompiled(res),
			harness.WithMEs(6),
			harness.WithWindows(100_000, 500_000),
			harness.WithSeed(7))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6v %5.2f Gbps (%4.1f accesses/packet)\n", lvl, r.Gbps, r.Total())
	}
}
