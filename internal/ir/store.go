package ir

import "slices"

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
// them: a copy of the Funcs slice over the same functions. Edits through
// either program copy the function they write, so neither can see the
// other's. The slice is copied, not shared, because Edit installs its copy
// by writing the slice. Freezing a frozen program is the cheap way to hand
// out a writable view of it.
func (p *Program) Freeze() *Program {
	for _, f := range p.Funcs {
		if !f.store.frozen { // a frozen function may be read concurrently
			f.store.frozen = true
		}
	}
	return &Program{Types: p.Types, Funcs: slices.Clone(p.Funcs), NumLocks: p.NumLocks}
}

// Edit returns the named function for writing: the function itself when p
// owns it, and otherwise (it is frozen) a private copy, installed in p in
// its place. The copy has the original's blocks and instructions at the
// same positions, so a pass that found what to rewrite while reading the
// frozen function can rewrite it in the copy by index. Nil when p has no
// such function.
func (p *Program) Edit(name string) *Func {
	i := p.Index(name)
	if i < 0 {
		return nil
	}
	f := p.Funcs[i]
	if f.store.frozen {
		f = f.Clone()
		p.Funcs[i] = f
	}
	return f
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
