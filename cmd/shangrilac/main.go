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
	"io"
	"os"

	"shangrila/internal/aggregate"
	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
	"shangrila/internal/packet"
	"shangrila/internal/trace"
	"shangrila/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on its arguments: it writes the report to stdout and
// returns the exit status, 2 for a bad flag or argument and 1 for a
// program that does not compile.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shangrilac", flag.ContinueOnError)
	fs.SetOutput(stderr)
	level := fs.Int("O", 6, "optimization level 0..6 (BASE..+SWC)")
	dumpCGIR := fs.Bool("cgir", false, "disassemble the generated ME code")
	mes := fs.Int("mes", 6, "microengines available to the aggregation planner")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: shangrilac [flags] <app|file.baker>")
		fs.Usage()
		return 2
	}
	if *level < 0 || *level > int(driver.LevelSWC) {
		fmt.Fprintln(stderr, "shangrilac: -O must be 0..6")
		return 2
	}
	if *mes < 1 {
		fmt.Fprintf(stderr, "shangrilac: -mes %d: need at least one microengine\n", *mes)
		return 2
	}
	lvl := driver.Level(*level)

	res, name, err := compileTarget(fs.Arg(0), lvl, *mes)
	if err != nil {
		fmt.Fprintf(stderr, "shangrilac: %v\n", err)
		return 1
	}
	rep := res.Report
	fmt.Fprintf(stdout, "compiled %s at %v\n\n", name, lvl)
	fmt.Fprint(stdout, rep.Plan.String())
	fmt.Fprintf(stdout, "\nME code stores (limit 4096):\n")
	for i, c := range res.Image.MECode {
		fmt.Fprintf(stdout, "  aggregate %d (%v): %d instructions, %dB stack\n",
			i, c.Agg.PPFs, len(c.Program.Code), c.Program.StackBytes)
	}
	if rep.SOAR != nil {
		fmt.Fprintf(stdout, "\nSOAR: %d/%d packet accesses offset-resolved, %d alignment-only; %d/%d encaps resolved\n",
			rep.SOAR.ResolvedOffset, rep.SOAR.Accesses, rep.SOAR.ResolvedAlign,
			rep.SOAR.EncapsResolved, rep.SOAR.EncapsTotal)
	}
	if rep.PAC != nil {
		fmt.Fprintf(stdout, "PAC: %d load clusters, %d store clusters, %d accesses removed\n",
			rep.PAC.LoadClusters, rep.PAC.StoreClusters, rep.PAC.AccessesRemoved)
	}
	if rep.PHR != nil {
		fmt.Fprintf(stdout, "PHR: %d metadata fields localized, %d accesses removed, %d encap pairs eliminated\n",
			rep.PHR.FieldsLocalized, rep.PHR.AccessesRemoved, rep.PHR.PairsEliminated)
	}
	for _, c := range rep.SWCCands {
		fmt.Fprintf(stdout, "SWC: caching %s (est. hit rate %.2f, update check every %d packets)\n",
			c.Global.Name, c.HitRate, c.CheckLimit)
	}
	if *dumpCGIR {
		for _, c := range res.Image.MECode {
			fmt.Fprintf(stdout, "\n=== %v ===\n", c.Agg.PPFs)
			for pc, in := range c.Program.Code {
				fmt.Fprintf(stdout, "%4d: %v", pc, in)
				if in.Comment != "" {
					fmt.Fprintf(stdout, "  ; %s", in.Comment)
				}
				fmt.Fprintln(stdout)
			}
		}
	}
	return 0
}

// compileTarget resolves the argument to a built-in app or source file.
func compileTarget(arg string, lvl driver.Level, mes int) (*driver.Result, string, error) {
	a, appErr := apps.ByName(arg)
	if appErr == nil {
		res, err := compileWithMEs(a, lvl, mes)
		return res, a.Name, err
	}
	src, err := os.ReadFile(arg)
	if err != nil {
		return nil, "", fmt.Errorf("%v, and cannot read it as a file: %v", appErr, err)
	}
	prog, err := driver.LowerSource(arg, string(src))
	if err != nil {
		return nil, "", err
	}
	if prog.Types.Entry == nil {
		return nil, "", fmt.Errorf("%s: no PPF is wired from rx, so there is nothing to compile", arg)
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
