package driver

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"shangrila/internal/ir"
)

// TestLadderSharedFailure hands the ladder stub pipelines whose middle two
// levels share a failing pass. The failure — a pass error, then IR the
// verifier rejects — is returned for both levels that contain the pass,
// with one text and from one execution, and the levels that leave the
// shared prefix before it still compile, from an IR the failing pass never
// touched.
func TestLadderSharedFailure(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		fail func(*Context) error
		is   func(error) bool
	}{
		{"pass error", func(*Context) error { return boom },
			func(err error) bool { return errors.Is(err, boom) }},
		{"verify error", func(ctx *Context) error {
			for _, f := range ctx.Prog.Funcs {
				ctx.Prog.Edit(f.Name).Entry.Instrs = nil // no terminator
			}
			return nil
		}, func(err error) bool {
			var ve *ir.VerifyError
			return errors.As(err, &ve)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := map[string]int{}
			stub := func(name string, run func(*Context) error) Pass {
				return &fakePass{name: name, run: func(ctx *Context) error {
					runs[name]++
					if run != nil {
						return run(ctx)
					}
					return nil
				}}
			}
			first, bad := stub("first", nil), stub("bad", tc.fail)
			pipelines := map[Level][]Pass{
				0: {first, stub("tail0", nil)},
				1: {first, bad, stub("tail1", nil)},
				2: {first, bad, stub("tail2", nil)},
				3: {first, stub("tail3", nil)},
			}
			l := newLadder(lowerTestProg(t), Config{VerifyIR: VerifyOn}, []Level{3, 1, 0, 2},
				func(cfg Config) []Pass { return pipelines[cfg.Level] })

			var texts []string
			for _, lvl := range []Level{3, 1, 0, 2} {
				res, err := l.Compile(lvl)
				if lvl == 1 || lvl == 2 {
					if err == nil || !tc.is(err) {
						t.Fatalf("level %d: error %v, want the shared pass's failure", lvl, err)
					}
					texts = append(texts, err.Error())
					continue
				}
				if err != nil {
					t.Fatalf("level %d does not contain the failing pass but failed: %v", lvl, err)
				}
				if err := ir.Verify(res.Prog); err != nil {
					t.Errorf("level %d compiled from IR the failing pass wrote: %v", lvl, err)
				}
				// Level 0 ran "first"; level 3 took it over.
				if rows := res.Report.Passes; len(rows) != 2 || rows[0].Skipped != (lvl == 3) || rows[1].Skipped {
					t.Errorf("level %d report rows %+v", lvl, rows)
				}
			}
			if texts[0] != texts[1] {
				t.Errorf("one failure, two texts: %q and %q", texts[0], texts[1])
			}
			want := map[string]int{"first": 1, "bad": 1, "tail0": 1, "tail3": 1}
			for name, n := range runs {
				if want[name] != n {
					t.Errorf("pass %s ran %d times, want %d", name, n, want[name])
				}
			}
			if len(runs) != len(want) {
				t.Errorf("passes run: %v, want %v", runs, want)
			}
		})
	}
}

// TestFrozenWriteCaught: a pass that writes a function its state shares
// with a fork must go through ir.Program.Edit. Written in place, the
// fork's copy of the IR changes under the rungs that will resume from it;
// under `go test` (VerifyAuto) the climb ends in a panic naming the
// function and the pass. The same write through the accessor copies the
// function, and the level that forks from the shared state compiles from
// the IR as it was.
func TestFrozenWriteCaught(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(ctx *Context) *ir.Func
	}{
		{"in place", func(ctx *Context) *ir.Func { return ctx.Prog.Func("m.f") }},
		{"through Edit", func(ctx *Context) *ir.Func { return ctx.Prog.Edit("m.f") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			noop := func(*Context) error { return nil }
			first := &fakePass{name: "first", run: noop}
			writer := &fakePass{name: "writer", run: func(ctx *Context) error {
				tc.write(ctx).Entry.Instrs[0].Imm += 99
				return nil
			}}
			pipelines := map[Level][]Pass{0: {first, writer}, 1: {first, &fakePass{name: "tail", run: noop}}}
			prog := lowerTestProg(t)
			want := prog.Func("m.f").String()
			l := newLadder(prog, Config{}, []Level{0, 1}, func(cfg Config) []Pass { return pipelines[cfg.Level] })

			var caught string
			func() {
				defer func() {
					if r := recover(); r != nil {
						caught = fmt.Sprint(r)
					}
				}()
				if _, err := l.Compile(0); err != nil {
					t.Fatal(err)
				}
			}()
			if tc.name == "in place" {
				if !strings.Contains(caught, "m.f") || !strings.Contains(caught, "writer") {
					t.Fatalf("write to a frozen function: panic %q, want one naming m.f and the writer pass", caught)
				}
				return
			}
			if caught != "" {
				t.Fatalf("a write through ir.Program.Edit panicked: %s", caught)
			}
			res, err := l.Compile(1)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Prog.Func("m.f").String(); got != want {
				t.Errorf("the level forked before the write compiled from\n%s\nwant\n%s", got, want)
			}
		})
	}
}
