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
		p := &Program{Funcs: map[string]*Func{"m.f": identityFunc()}, Order: []string{"m.f"}}
		snap := p.Freeze()
		frozen := snap.Funcs["m.f"]
		if !frozen.Frozen() || p.Funcs["m.f"] != frozen {
			t.Fatalf("%s: Freeze does not share its functions frozen", name)
		}
		before := programFingerprint(&h, snap)
		if fresh := h.render(identityFunc()); !frozen.store.hashed || frozen.store.fp != fresh {
			t.Fatalf("%s: cached fingerprint %x (cached: %v), fresh %x", name, frozen.store.fp, frozen.store.hashed, fresh)
		}

		w := p.Edit("m.f")
		if w == frozen || w.Frozen() || p.Funcs["m.f"] != w || snap.Funcs["m.f"] != frozen {
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

// TestFreezeSharesOrder: programs frozen from one another share the
// declaration order, and appending to one leaves the others' alone.
func TestFreezeSharesOrder(t *testing.T) {
	p := &Program{Funcs: map[string]*Func{"m.f": identityFunc()}, Order: make([]string, 1, 8)}
	p.Order[0] = "m.f"
	q := p.Freeze()
	q.Order = append(q.Order, "m.g")
	p.Order = append(p.Order, "m.h")
	if q.Order[1] != "m.g" {
		t.Errorf("an append to one frozen view's order reached another's: %v", q.Order)
	}
	if p.Edit("m.none") != nil {
		t.Error("Edit of a missing function returned one")
	}
	f := identityFunc()
	own := &Program{Funcs: map[string]*Func{"m.f": f}}
	if own.Edit("m.f") != f {
		t.Error("Edit copied a function nobody froze")
	}
}
