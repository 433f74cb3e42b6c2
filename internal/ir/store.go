package ir

// The program store. Functions are shared between programs instead of
// deep-copied: an incremental compile's snapshots, a level ladder's forks
// and the merged aggregate views all hold the same *Func until someone
// writes one. Freeze marks a program's functions shared; from then on a
// function is immutable, and a pass that wants to write one takes a private
// copy through Program.Edit, which installs the copy in that program alone.
// Because a frozen function never changes, its identity fingerprint is
// computed once and cached (Hasher.Func); an unfrozen one is always hashed
// afresh, so no write can leave a stale cached value behind.
//
// Nothing enforces immutability at run time: a pass that writes a frozen
// function in place corrupts every program sharing it. The driver therefore
// re-fingerprints the frozen functions it holds under `go test` and panics
// on a mismatch (Hasher.Intact).

// funcStore is a function's copy-on-write bookkeeping. It is not IR: two
// functions that differ only here are the same function to every pass.
type funcStore struct {
	frozen bool
	hashed bool   // fp holds the fingerprint (frozen functions only)
	fp     uint64 // the fingerprint, cached when first computed
}

// Frozen reports whether f is shared by frozen programs and so must not be
// written; Program.Edit hands out a writable copy.
func (f *Func) Frozen() bool { return f.store.frozen }

// Freeze marks every function of p frozen and returns a program sharing
// them: a new Funcs map over the same functions and the same declaration
// order. Edits through either program copy the function they write, so
// neither can see the other's. Freezing a frozen program is the cheap way
// to hand out a writable view of it.
func (p *Program) Freeze() *Program {
	np := &Program{
		Types:    p.Types,
		Funcs:    make(map[string]*Func, len(p.Funcs)),
		Order:    p.Order[:len(p.Order):len(p.Order)], // an append reallocates
		NumLocks: p.NumLocks,
	}
	for name, f := range p.Funcs {
		if f != nil && !f.store.frozen {
			f.store.frozen = true
		}
		np.Funcs[name] = f
	}
	return np
}

// Edit returns the named function for writing: the function itself when p
// owns it, and otherwise (it is frozen) a private copy, installed in p in
// its place. The copy has the original's blocks and instructions at the
// same positions, so a pass that found what to rewrite while reading the
// frozen function can rewrite it in the copy by index. Nil when p has no
// such function.
func (p *Program) Edit(name string) *Func {
	f := p.Funcs[name]
	if f == nil || !f.store.frozen {
		return f
	}
	c := f.Clone()
	p.Funcs[name] = c
	return c
}

// Intact re-fingerprints a frozen function from scratch and reports whether
// it still matches the fingerprint cached when it was first hashed. A
// function that is not frozen, or was never hashed, has nothing to match
// and is intact.
func (h *Hasher) Intact(f *Func) bool {
	if !f.store.frozen || !f.store.hashed {
		return true
	}
	return h.render(f) == f.store.fp
}
