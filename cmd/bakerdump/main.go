// Command bakerdump is the Baker frontend inspector: it lexes, parses,
// type-checks and lowers a Baker program, dumping the requested stage.
//
// Usage:
//
//	bakerdump [-stage tokens|ast|types|ir] file.baker
//	bakerdump [-stage ...] l3switch|mpls|firewall
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"shangrila/internal/apps"
	"shangrila/internal/baker/lexer"
	"shangrila/internal/baker/parser"
	"shangrila/internal/baker/token"
	"shangrila/internal/baker/types"
	"shangrila/internal/lower"
)

func main() {
	stage := flag.String("stage", "ir", "dump stage: tokens|ast|types|ir")
	flag.Parse()
	switch *stage {
	case "tokens", "ast", "types", "ir":
	default:
		fmt.Fprintf(os.Stderr, "bakerdump: unknown -stage %q (want tokens|ast|types|ir)\n", *stage)
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bakerdump [-stage s] <file.baker|app>")
		os.Exit(2)
	}
	name := flag.Arg(0)
	var src string
	if a, appErr := apps.ByName(name); appErr == nil {
		src = a.Source
	} else {
		b, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bakerdump: %v, and cannot read it as a file: %v\n", appErr, err)
			os.Exit(1)
		}
		src = string(b)
	}

	if *stage == "tokens" {
		toks, errs := lexer.ScanAll(name, src)
		for _, tk := range toks {
			if tk.Kind == token.EOF {
				break
			}
			fmt.Printf("%s\t%v\n", tk.Pos, tk)
		}
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, e)
		}
		return
	}

	prog, err := parser.Parse(name, src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bakerdump: parse: %v\n", err)
		os.Exit(1)
	}
	if *stage == "ast" {
		fmt.Printf("protocols: %d, modules: %d, consts: %d\n",
			len(prog.Protocols), len(prog.Modules), len(prog.Consts))
		for _, p := range prog.Protocols {
			fmt.Printf("protocol %s (%d fields)\n", p.Name, len(p.Fields))
		}
		for _, m := range prog.Modules {
			fmt.Printf("module %s: %d structs, %d globals, %d channels, %d funcs, %d wires\n",
				m.Name, len(m.Structs), len(m.Globals), len(m.Chans), len(m.Funcs), len(m.Wiring))
			for _, f := range m.Funcs {
				fmt.Printf("  %s %s (%d params)\n", f.Kind, f.Name, len(f.Params))
			}
		}
		return
	}

	tp, err := types.Check(prog)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bakerdump: check: %v\n", err)
		os.Exit(1)
	}
	if *stage == "types" {
		for _, p := range tp.ProtoByID {
			fmt.Printf("protocol %s: min %dB, fixed %d\n", p.Name, p.HeaderMin, p.FixedSize)
			for _, f := range p.Fields {
				fmt.Printf("  %-12s bits [%d,%d)\n", f.Name, f.BitOff, f.BitOff+f.Bits)
			}
		}
		fmt.Printf("metadata: %dB\n", tp.Metadata.Bytes)
		globals := make([]*types.Global, 0, len(tp.Globals))
		for _, g := range tp.Globals {
			globals = append(globals, g)
		}
		slices.SortFunc(globals, func(a, b *types.Global) int { return a.ID - b.ID })
		for _, g := range globals {
			fmt.Printf("global %-28s %-14s %s\n", g.Name, g.Type, g.Space)
		}
		for _, ch := range tp.ChanByID {
			fmt.Printf("channel %s : %s -> %s\n", ch.Name, ch.Proto.Name, ch.Consumer)
		}
		return
	}

	ir, err := lower.Lower(tp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bakerdump: lower: %v\n", err)
		os.Exit(1)
	}
	for _, fn := range ir.Funcs {
		fmt.Println(fn.String())
	}
}
