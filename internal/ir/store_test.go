package ir

import "testing"

// programFingerprint hashes a whole program the way the incremental
// compiler hashes a state.
func programFingerprint(h *Hasher, p *Program) uint64 {
	h.Reset()
	h.Program(p)
	return h.Sum64()
}

// TestEditCopiesFrozenFunction walks every flip of
// TestIdentityCoversEveryField through the store: a flip made through
// Program.Edit lands in a private copy, changes the editing program's
// fingerprint and leaves the frozen snapshot, its function and the
// function's cached fingerprint as they were; the same flip made in place
// is what Intact reports.
func TestEditCopiesFrozenFunction(t *testing.T) {
	var h Hasher
	for name, flip := range identityFlips {
		p := &Program{Funcs: []*Func{identityFunc()}}
		snap := p.Freeze()
		frozen := snap.Funcs[0]
		if !frozen.Frozen() || p.Funcs[0] != frozen {
			t.Fatalf("%s: Freeze does not share its functions frozen", name)
		}
		before := programFingerprint(&h, snap)
		if fresh := h.render(identityFunc()); !frozen.store.hashed || frozen.store.fp != fresh {
			t.Fatalf("%s: cached fingerprint %x (cached: %v), fresh %x", name, frozen.store.fp, frozen.store.hashed, fresh)
		}

		w := p.Edit("m.f")
		if w == frozen || w.Frozen() || p.Funcs[0] != w || snap.Funcs[0] != frozen {
			t.Fatalf("%s: Edit did not install a private copy in the editing program alone", name)
		}
		if p.Edit("m.f") != w {
			t.Fatalf("%s: a second Edit copied again", name)
		}
		flip(w)
		if programFingerprint(&h, p) == before {
			t.Errorf("%s: editing through the accessor left the program fingerprint unchanged", name)
		}
		if programFingerprint(&h, snap) != before || !h.Intact(frozen) {
			t.Errorf("%s: editing through the accessor reached the frozen snapshot", name)
		}

		flip(frozen)
		if h.Intact(frozen) {
			t.Errorf("%s: a write to the frozen function in place went unnoticed", name)
		}
	}
}

// TestFreezeSharesOrder: programs frozen from one another share their
// functions but not their function table, so neither an Edit nor an append
// through one view reaches another's Funcs.
func TestFreezeSharesOrder(t *testing.T) {
	f := identityFunc()
	p := &Program{Funcs: make([]*Func, 1, 8)}
	p.Funcs[0] = f
	q := p.Freeze()
	r := q.Freeze()
	w := q.Edit("m.f")
	if w == f || p.Funcs[0] != f || r.Funcs[0] != f {
		t.Errorf("an Edit through one frozen view reached another's Funcs")
	}
	g, h := &Func{Name: "m.g"}, &Func{Name: "m.h"}
	q.Funcs = append(q.Funcs, g)
	p.Funcs = append(p.Funcs, h)
	if q.Funcs[1] != g || len(r.Funcs) != 1 {
		t.Errorf("an append to one frozen view's Funcs reached another's")
	}
	if p.Edit("m.none") != nil {
		t.Error("Edit of a missing function returned one")
	}
	own := &Program{Funcs: []*Func{h}}
	if own.Edit("m.h") != h {
		t.Error("Edit copied a function nobody froze")
	}
}
