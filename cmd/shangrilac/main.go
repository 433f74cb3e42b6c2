// Command shangrilac is the Shangri-La compiler driver: it takes a Baker
// program (one of the built-in benchmark applications or a .baker source
// file) down the Figure 5 pipeline and prints what -stage names: the
// lexer's tokens, a summary of the parsed AST, the checked types, the
// lowered IR, the compilation report after functional profiling, scalar
// optimization, PAC, SOAR, aggregation, PHR, SWC and code generation (the
// default), or that report followed by the disassembled ME code (cgir).
//
// Usage:
//
//	shangrilac [-stage tokens|ast|types|ir|report|cgir] [-O level] [-mes n] l3switch|mpls|firewall
//	shangrilac [-stage ...] [-O level] [-mes n] path/to/app.baker
//
// Levels: 0=BASE 1=-O1 2=-O2 3=+PAC 4=+SOAR 5=+PHR 6=+SWC (default 6).
// -O and -mes steer the compile, so a frontend stage refuses them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"shangrila/internal/aggregate"
	"shangrila/internal/apps"
	"shangrila/internal/baker/lexer"
	"shangrila/internal/baker/parser"
	"shangrila/internal/baker/types"
	"shangrila/internal/driver"
	"shangrila/internal/lower"
	"shangrila/internal/packet"
	"shangrila/internal/trace"
	"shangrila/internal/workload"
)

const stages = "tokens|ast|types|ir|report|cgir"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on its arguments: it writes the stage's output to
// stdout and returns the exit status, 2 for a bad flag or argument and 1
// for a program that does not get through the stage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shangrilac", flag.ContinueOnError)
	fs.SetOutput(stderr)
	stage := fs.String("stage", "report", "output: "+stages)
	level := fs.Int("O", 6, "optimization level 0..6 (BASE..+SWC)")
	mes := fs.Int("mes", 6, "microengines available to the aggregation planner")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "shangrilac: "+format+"\n", a...)
		return code
	}
	var compileFlag string
	fs.Visit(func(f *flag.Flag) {
		if *stage != "report" && *stage != "cgir" && (f.Name == "O" || f.Name == "mes") {
			compileFlag = f.Name
		}
	})
	switch {
	case !slices.Contains(strings.Split(stages, "|"), *stage):
		return fail(2, "unknown -stage %q (want %s)", *stage, stages)
	case compileFlag != "":
		return fail(2, "-%s steers the compile, which -stage %s does not run", compileFlag, *stage)
	case *level < 0 || *level > int(driver.LevelSWC):
		return fail(2, "-O must be 0..6")
	case *mes < 1:
		return fail(2, "-mes %d: need at least one microengine", *mes)
	case fs.NArg() != 1:
		fmt.Fprintln(stderr, "usage: shangrilac [flags] <app|file.baker>")
		fs.Usage()
		return 2
	}

	name := fs.Arg(0)
	app, appErr := apps.ByName(name)
	var src string
	if appErr == nil {
		src = app.Source
	} else {
		b, err := os.ReadFile(name)
		if err != nil {
			return fail(1, "%v, and cannot read it as a file: %v", appErr, err)
		}
		src = string(b)
	}

	if *stage == "tokens" {
		toks, errs := lexer.ScanAll(name, src)
		for _, tk := range toks[:len(toks)-1] { // the last is the EOF token
			fmt.Fprintf(stdout, "%s\t%v\n", tk.Pos, tk)
		}
		for _, e := range errs {
			fmt.Fprintln(stderr, e)
		}
		if len(errs) > 0 {
			return 1
		}
		return 0
	}

	prog, err := parser.Parse(name, src)
	if err != nil {
		return fail(1, "parse: %v", err)
	}
	if *stage == "ast" {
		fmt.Fprintf(stdout, "protocols: %d, modules: %d, consts: %d\n",
			len(prog.Protocols), len(prog.Modules), len(prog.Consts))
		for _, p := range prog.Protocols {
			fmt.Fprintf(stdout, "protocol %s (%d fields)\n", p.Name, len(p.Fields))
		}
		for _, m := range prog.Modules {
			fmt.Fprintf(stdout, "module %s: %d structs, %d globals, %d channels, %d funcs, %d wires\n",
				m.Name, len(m.Structs), len(m.Globals), len(m.Chans), len(m.Funcs), len(m.Wiring))
			for _, f := range m.Funcs {
				fmt.Fprintf(stdout, "  %s %s (%d params)\n", f.Kind, f.Name, len(f.Params))
			}
		}
		return 0
	}

	tp, err := types.Check(prog)
	if err != nil {
		return fail(1, "check: %v", err)
	}
	if *stage == "types" {
		for _, p := range tp.ProtoByID {
			fmt.Fprintf(stdout, "protocol %s: min %dB, fixed %d\n", p.Name, p.HeaderMin, p.FixedSize)
			for _, f := range p.Fields {
				fmt.Fprintf(stdout, "  %-12s bits [%d,%d)\n", f.Name, f.BitOff, f.BitOff+f.Bits)
			}
		}
		fmt.Fprintf(stdout, "metadata: %dB\n", tp.Metadata.Bytes)
		globals := make([]*types.Global, 0, len(tp.Globals))
		for _, g := range tp.Globals {
			globals = append(globals, g)
		}
		slices.SortFunc(globals, func(a, b *types.Global) int { return a.ID - b.ID })
		for _, g := range globals {
			fmt.Fprintf(stdout, "global %-28s %-14s %s\n", g.Name, g.Type, g.Space)
		}
		for _, ch := range tp.ChanByID {
			fmt.Fprintf(stdout, "channel %s : %s -> %s\n", ch.Name, ch.Proto.Name, ch.Consumer)
		}
		return 0
	}

	irProg, err := lower.Lower(tp)
	if err != nil {
		return fail(1, "lower: %v", err)
	}
	if *stage == "ir" {
		for _, fn := range irProg.Funcs {
			fmt.Fprintln(stdout, fn.String())
		}
		return 0
	}

	if tp.Entry == nil {
		return fail(1, "%s: no PPF is wired from rx, so there is nothing to compile", name)
	}
	cfg := driver.Config{Level: driver.Level(*level), Agg: aggregate.DefaultConfig()}
	cfg.Agg.NumMEs = *mes
	if appErr == nil {
		cfg.ProfileTrace, cfg.Controls = app.Trace(tp, 42, 512), app.Controls
	} else if cfg.ProfileTrace, err = genericTrace(tp); err != nil {
		return fail(1, "%v", err)
	}
	res, err := driver.CompileIR(irProg, cfg)
	if err != nil {
		return fail(1, "%v", err)
	}
	rep := res.Report
	fmt.Fprintf(stdout, "compiled %s at %v\n\n", name, cfg.Level)
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
	if *stage == "cgir" {
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

// genericTrace is the profiling trace of a source file: 256 64-byte
// frames with randomized bytes in the rx protocol's fields.
func genericTrace(tp *types.Program) ([]*packet.Packet, error) {
	r := workload.NewSource(42)
	var profTrace []*packet.Packet
	entryProto := tp.Entry.InProto
	for i := 0; i < 256; i++ {
		var fields []trace.Field
		for _, f := range entryProto.Fields {
			if f.Bits <= 32 {
				fields = append(fields, trace.Field{Name: f.Name, Value: r.Uint32()})
			}
		}
		// Build reads Size only for a protocol without a fixed size.
		p, err := trace.Build([]trace.Layer{{Proto: entryProto, Fields: fields, Size: entryProto.Size()}},
			64, tp.Metadata.Bytes)
		if err != nil {
			return nil, err
		}
		profTrace = append(profTrace, p)
	}
	return profTrace, nil
}
