// Command shangrilac is the Shangri-La compiler driver: it compiles a
// Baker program (one of the built-in benchmark applications or a .baker
// source file) through the full pipeline — functional profiling, scalar
// optimization, PAC, SOAR, aggregation, PHR, SWC and code generation —
// and prints a compilation report.
//
// Usage:
//
//	shangrilac [-O level] [-cgir] [-mes n] l3switch|mpls|firewall
//	shangrilac [-O level] [-cgir] [-mes n] path/to/app.baker
//
// Levels: 0=BASE 1=-O1 2=-O2 3=+PAC 4=+SOAR 5=+PHR 6=+SWC (default 6).
package main

import (
	"flag"
	"fmt"
	"os"

	"shangrila/internal/aggregate"
	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
	"shangrila/internal/packet"
	"shangrila/internal/trace"
	"shangrila/internal/workload"
)

func main() {
	level := flag.Int("O", 6, "optimization level 0..6 (BASE..+SWC)")
	dumpCGIR := flag.Bool("cgir", false, "disassemble the generated ME code")
	mes := flag.Int("mes", 6, "microengines available to the aggregation planner")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: shangrilac [flags] <app|file.baker>")
		flag.Usage()
		os.Exit(2)
	}
	if *level < 0 || *level > int(driver.LevelSWC) {
		fmt.Fprintln(os.Stderr, "shangrilac: -O must be 0..6")
		os.Exit(2)
	}
	lvl := driver.Level(*level)

	res, name, err := compileTarget(flag.Arg(0), lvl, *mes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shangrilac: %v\n", err)
		os.Exit(1)
	}
	rep := res.Report
	fmt.Printf("compiled %s at %v\n\n", name, lvl)
	fmt.Print(rep.Plan.String())
	fmt.Printf("\nME code stores (limit 4096):\n")
	for i, c := range res.Image.MECode {
		fmt.Printf("  aggregate %d (%v): %d instructions, %dB stack\n",
			i, c.Agg.PPFs, len(c.Program.Code), c.Program.StackBytes)
	}
	if rep.SOAR != nil {
		fmt.Printf("\nSOAR: %d/%d packet accesses offset-resolved, %d alignment-only; %d/%d encaps resolved\n",
			rep.SOAR.ResolvedOffset, rep.SOAR.Accesses, rep.SOAR.ResolvedAlign,
			rep.SOAR.EncapsResolved, rep.SOAR.EncapsTotal)
	}
	if rep.PAC != nil {
		fmt.Printf("PAC: %d load clusters, %d store clusters, %d accesses removed\n",
			rep.PAC.LoadClusters, rep.PAC.StoreClusters, rep.PAC.AccessesRemoved)
	}
	if rep.PHR != nil {
		fmt.Printf("PHR: %d metadata fields localized, %d accesses removed, %d encap pairs eliminated\n",
			rep.PHR.FieldsLocalized, rep.PHR.AccessesRemoved, rep.PHR.PairsEliminated)
	}
	for _, c := range rep.SWCCands {
		fmt.Printf("SWC: caching %s (est. hit rate %.2f, update check every %d packets)\n",
			c.Global.Name, c.HitRate, c.CheckLimit)
	}
	if *dumpCGIR {
		for _, c := range res.Image.MECode {
			fmt.Printf("\n=== %v ===\n", c.Agg.PPFs)
			for pc, in := range c.Program.Code {
				fmt.Printf("%4d: %v", pc, in)
				if in.Comment != "" {
					fmt.Printf("  ; %s", in.Comment)
				}
				fmt.Println()
			}
		}
	}
}

// compileTarget resolves the argument to a built-in app or source file.
func compileTarget(arg string, lvl driver.Level, mes int) (*driver.Result, string, error) {
	for _, a := range apps.All() {
		if a.Name == arg {
			res, err := compileWithMEs(a, lvl, mes)
			return res, a.Name, err
		}
	}
	src, err := os.ReadFile(arg)
	if err != nil {
		return nil, "", fmt.Errorf("%q is not a built-in app (l3switch|mpls|firewall) and cannot be read: %v", arg, err)
	}
	prog, err := driver.LowerSource(arg, string(src))
	if err != nil {
		return nil, "", err
	}
	// Generic profiling trace: 64-byte frames with randomized bytes in
	// the rx protocol's fields.
	r := workload.NewSource(42)
	var profTrace []*packet.Packet
	entryProto := prog.Types.Entry.InProto
	for i := 0; i < 256; i++ {
		var fields []trace.Field
		for _, f := range entryProto.Fields {
			if f.Bits <= 32 {
				fields = append(fields, trace.Field{Name: f.Name, Value: r.Uint32()})
			}
		}
		size := entryProto.FixedSize
		if size < 0 {
			size = entryProto.HeaderMin
		}
		p, err := trace.Build([]trace.Layer{{Proto: entryProto, Fields: fields, Size: size}},
			64, prog.Types.Metadata.Bytes)
		if err != nil {
			return nil, "", err
		}
		profTrace = append(profTrace, p)
	}
	cfg := driver.Config{Level: lvl, ProfileTrace: profTrace}
	cfg.Agg = aggregate.DefaultConfig()
	cfg.Agg.NumMEs = mes
	res, err := driver.CompileIR(prog, cfg)
	return res, arg, err
}

func compileWithMEs(a *apps.App, lvl driver.Level, mes int) (*driver.Result, error) {
	if mes == 6 {
		return harness.Compile(a, lvl, 42)
	}
	prog, err := driver.LowerSource(a.Name+".baker", a.Source)
	if err != nil {
		return nil, err
	}
	cfg := driver.Config{
		Level:        lvl,
		ProfileTrace: a.Trace(prog.Types, 42, 512),
		Controls:     a.Controls,
		Agg:          aggregate.DefaultConfig(),
	}
	cfg.Agg.NumMEs = mes
	return driver.CompileIR(prog, cfg)
}
