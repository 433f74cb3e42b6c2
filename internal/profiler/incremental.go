package profiler

import (
	"fmt"
	"math"
	"math/bits"

	"shangrila/internal/ir"
	"shangrila/internal/packet"
)

// Incremental is a profile of one program over one trace that is kept
// between profiles while the control list grows, so that a profile after a
// control-plane delta costs what the trace packets the delta reaches do.
//
// It keeps the host environment at its control state (the inits and the
// controls applied so far) and, for every trace packet, what the packet did
// the last time it ran: its first-read log (each global word it read before
// writing it, with the value read), its write log (each word it wrote, with
// the value it left) and its contribution to the counts. An index maps
// each logged word to the packets whose first-read log holds it. A profile
// applies the new controls, then walks the trace in order over a working
// copy of the table state. A packet whose logged words all still hold their
// logged values runs exactly as before, because the executor is
// deterministic and a packet's run depends only on its bytes, its port and
// the words it reads before it writes them; it is skipped and its write
// log applied. Any other packet is interpreted again, its old contribution
// taken out of the counts and its new one put in. A logged word can hold
// another value only if the new controls changed it or a packet interpreted
// again before it changed what it leaves there, so only the readers of
// those words are checked at all.
//
// Sink-only globals (sinkOnly) are kept out of both logs: what they hold
// steers nothing, so their words in the working copy may go stale. Their
// reads and writes are still counted.
type Incremental struct {
	trace []*packet.Packet
	ctl   *hostEnv // the control state; what it counts is never read
	nctl  int      // controls applied to ctl
	work  *hostEnv // counts: the sum of pkts' contributions; words: the working copy
	rec   *recorder
	pkts  []pktLog // by trace position
	idx   index
	// err is the failure that left the state half-updated; once set, every
	// Profile fails.
	err     error
	scratch packet.Packet // what a re-interpreted packet runs on

	// Reinterpreted is the number of trace packets the last profile
	// interpreted, and Checked the number whose logged words it compared;
	// the others were skipped unlooked-at.
	Reinterpreted, Checked int
}

// NewIncremental profiles prog over tr after the given controls, as
// ProfileWithControls does, and keeps what a later Profile needs. Neither
// the program nor the trace may change while the Incremental is in use.
func NewIncremental(prog *ir.Program, tr []*packet.Packet, controls []Control) (*Incremental, *Stats, error) {
	sink := sinkOnly(prog)
	in := &Incremental{trace: tr, ctl: newHostEnv(prog, &Stats{}), work: newHostEnv(prog, &Stats{}),
		pkts: make([]pktLog, len(tr))}
	in.idx = newIndex(len(in.work.mem), len(tr))
	in.rec = newRecorder(in.work, sink)
	in.work.rec, in.work.it.rec = in.rec, in.rec
	in.ctl.rec = &recorder{sink: sink, dirtyAt: make([]bool, len(in.ctl.mem)), crit: make([]uint64, len(in.ctl.globals))}
	if err := in.ctl.it.Init(); err != nil {
		return nil, nil, err
	}
	st, err := in.profile(controls, true)
	if err != nil {
		return nil, nil, err
	}
	return in, st, nil
}

// Profile applies the controls past the ones already applied — controls
// must extend the list the Incremental was made or last profiled with —
// and returns the profile over the trace, equal to ProfileWithControls'.
// A failed profile leaves the Incremental unusable: every later Profile
// returns an error that wraps the failure.
func (in *Incremental) Profile(controls []Control) (*Stats, error) {
	if in.err != nil {
		return nil, fmt.Errorf("profiler: unusable since an earlier profile failed: %w", in.err)
	}
	if len(controls) < in.nctl {
		return nil, fmt.Errorf("profiler: %d controls, fewer than the %d already applied", len(controls), in.nctl)
	}
	st, err := in.profile(controls, false)
	in.err = err
	return st, err
}

func (in *Incremental) profile(controls []Control, all bool) (*Stats, error) {
	if err := in.ctl.it.Boot(controls[in.nctl:]); err != nil {
		return nil, err
	}
	in.nctl = len(controls)
	// The working copy becomes the control state again: it differs from it
	// only in the words a write log has held and in the words the controls
	// since changed, whose readers are checked. A word a control wrote
	// back to the value it held changed nothing.
	work, ctl, x := in.work, in.ctl, &in.idx
	clear(x.check)
	if all {
		copy(work.mem, ctl.mem)
	}
	for _, d := range ctl.rec.dirty {
		ctl.rec.dirtyAt[d.w] = false
		if v := ctl.mem[d.w]; v != d.v {
			work.mem[d.w] = v
			x.reach(x.ids[d.w] - 1)
		}
	}
	ctl.rec.dirty = ctl.rec.dirty[:0]
	for _, w := range x.kept {
		work.mem[w] = ctl.mem[w]
	}
	entry, err := work.entry()
	if err != nil {
		return nil, err
	}
	in.Reinterpreted, in.Checked = 0, 0
	for i := 0; i < len(in.trace); i++ {
		if !all {
			// Skip to the next packet to check or whose writes to apply.
			if i = x.next(i); i >= len(in.trace) {
				break
			}
		}
		lg := &in.pkts[i]
		if !all && in.runsAsBefore(i, lg) {
			work.apply(lg.writes)
			continue
		}
		work.subtract(&lg.c)
		in.rec.begin(work, lg)
		in.scratch.CopyFrom(in.trace[i])
		if err := work.inject(entry, &in.scratch, nil); err != nil {
			return nil, err
		}
		in.rec.end(work, x, i)
		in.Reinterpreted++
	}
	st := &Stats{}
	st.Packets, st.Forwarded, st.Dropped = work.stats.Packets, work.stats.Forwarded, work.stats.Dropped
	work.assemble(st)
	return st, nil
}

// runsAsBefore reports whether the packet at position i, whose logs are lg,
// would run as it last did: it is not marked to be checked, or every word
// of its first-read log still holds its logged value.
func (in *Incremental) runsAsBefore(i int, lg *pktLog) bool {
	if in.idx.check[i/64]&(1<<(i%64)) == 0 {
		return true
	}
	in.Checked++
	return in.work.holds(lg.reads)
}

// wordVal is one global word, by its index in hostEnv.mem, with a value.
type wordVal struct{ w, v uint32 }

// count is one counter of a contribution: what i and j index depends on
// the list it is in.
type count struct {
	i, j int32
	n    uint64
}

// fcount is one function's share of a contribution.
type fcount struct {
	i                 int32  // code.id
	invs, instrs, mem uint64 // activations as a PPF, instructions and memory accesses executed
}

// contrib is one packet's share of every count a profile reports. Reads
// are its line reads summed per global.
type contrib struct {
	funcs  []fcount
	lines  []count // hostEnv.lines index (j): reads
	writes []count // Global.ID: writes
	crits  []count // Global.ID: accesses inside a critical section
	chans  []count // Channel.ID: messages

	packets, forwarded, dropped uint64
}

// pktLog is what one trace packet did the last time it was interpreted.
type pktLog struct {
	reads  []wordVal // first reads, with the value read
	writes []wordVal // words written, with the value left in them
	c      contrib
}

// holds reports whether every logged word still holds its logged value.
func (e *hostEnv) holds(reads []wordVal) bool {
	for _, r := range reads {
		if e.mem[r.w] != r.v {
			return false
		}
	}
	return true
}

// apply writes logged values back.
func (e *hostEnv) apply(writes []wordVal) {
	for _, w := range writes {
		e.mem[w.w] = w.v
	}
}

// subtract takes a contribution out of the counts.
func (e *hostEnv) subtract(c *contrib) {
	for _, x := range c.funcs {
		cd := e.it.codes[x.i]
		cd.invocations -= x.invs
		cd.instrs -= x.instrs
		cd.mem -= x.mem
	}
	for _, x := range c.lines {
		e.lines[x.j] -= x.n // and assemble sums a global's reads from its lines
	}
	for _, x := range c.writes {
		e.globals[x.i].stats.Writes -= x.n
	}
	for _, x := range c.crits {
		e.rec.crit[x.i] -= x.n
	}
	for _, x := range c.chans {
		e.chans[x.i].puts -= x.n
	}
	e.stats.Packets -= c.packets
	e.stats.Forwarded -= c.forwarded
	e.stats.Dropped -= c.dropped
}

// index is what lets a profile find the packets a delta can reach without
// looking at the others: for every logged word, the trace positions whose
// first-read log holds it; the positions whose write log is not empty; and
// every word a write log has held, which are the only words a walk can
// leave other than the control state.
type index struct {
	stride  int      // uint64s per set of trace positions
	ids     []int32  // by word: 1 + the word's number, 0 until a log holds it
	readers []uint64 // by word number, stride each: the positions whose first-read log holds it
	writers []uint64 // the positions whose write log is not empty
	check   []uint64 // the positions the walk under way checks
	kept    []uint32 // every word a write log has held, once each
	inKept  []bool   // by word number
}

func newIndex(words, positions int) index {
	s := (positions + 63) / 64
	return index{stride: s, ids: make([]int32, words), writers: make([]uint64, s), check: make([]uint64, s)}
}

// number returns the number of word w, giving it one on first sight.
func (x *index) number(w uint32) int {
	if x.ids[w] == 0 {
		x.readers = append(x.readers, make([]uint64, x.stride)...)
		x.inKept = append(x.inKept, false)
		x.ids[w] = int32(len(x.inKept))
	}
	return int(x.ids[w] - 1)
}

// reach marks the readers of word number n, if any, to be checked.
func (x *index) reach(n int32) {
	if n >= 0 {
		for k, b := range x.readers[int(n)*x.stride : int(n+1)*x.stride] {
			x.check[k] |= b
		}
	}
}

// update moves the packet at position i from its old read log to its new
// one, and notes whether it writes. The readers of the words its writes
// changed are checked: gone, the words of its old write log it no longer
// leaves as they were, and fresh, the words it writes when its new write
// log is not the old one. Those join the kept words.
func (x *index) update(i int, old, reads, gone, fresh []wordVal, writes bool) {
	k, bit := i/64, uint64(1)<<(i%64)
	// The logs agree up to where the runs part: only the rest moves.
	p := 0
	for p < len(old) && p < len(reads) && old[p].w == reads[p].w {
		p++
	}
	for _, r := range old[p:] {
		x.readers[int(x.ids[r.w]-1)*x.stride+k] &^= bit
	}
	for _, r := range reads[p:] {
		x.readers[x.number(r.w)*x.stride+k] |= bit
	}
	for _, w := range gone {
		x.reach(x.ids[w.w] - 1)
	}
	for _, w := range fresh {
		n := x.number(w.w)
		x.reach(int32(n))
		if !x.inKept[n] {
			x.inKept[n] = true
			x.kept = append(x.kept, w.w)
		}
	}
	x.writers[k] &^= bit
	if writes {
		x.writers[k] |= bit
	}
}

// next returns the first position from i on that the walk checks or whose
// write log is not empty; past the last position when there is none.
func (x *index) next(i int) int {
	for k := i / 64; k < x.stride; k++ {
		m := x.check[k] | x.writers[k]
		if k == i/64 {
			m &= ^uint64(0) << (i % 64)
		}
		if m != 0 {
			return k*64 + bits.TrailingZeros64(m)
		}
	}
	return x.stride * 64
}

// mark is a first-touch mark: the epoch of the last recorded packet that
// touched what it marks, and where that packet's count of it is in its list.
type mark struct {
	epoch uint32
	at    int32
}

// recorder logs one packet at a time: the hooks of hostEnv's global
// accesses, of its dispatch and of the Interp's returns fill its logs and
// its contribution as the packet runs. Outside a packet (the control env's
// recorder) it only lists the words written to logged globals.
type recorder struct {
	sink []bool // by Global.ID: sink-only, kept out of the logs
	// dirty lists, once each, the words written outside a packet since the
	// profile last took the list, with the value each held before; dirtyAt
	// marks them, by word.
	dirty   []wordVal
	dirtyAt []bool
	// marks holds, per word, 2·epoch once the packet being recorded read
	// the word first and 2·epoch+1 once it wrote it.
	marks []uint32
	// The first-touch marks of what a contribution counts: a packet's
	// count of a thing is added on its first touch of it and incremented
	// after. A cache line's count is instead its counter's rise from
	// before the first read to the end of the packet, so lines, by the
	// env's line counter, holds only epochs.
	lines   []uint32
	funcs   []mark // by code.id
	gwrites []mark // by Global.ID
	gcrits  []mark // by Global.ID
	chans   []mark // by Channel.ID
	epoch   uint32
	log     *pktLog // the packet being recorded, nil outside one
	// Its logs and contribution are built here and then kept in log, in
	// the storage log already has when they fit and else in storage cut
	// from the pools: a packet allocates nothing of its own.
	reads, writes []wordVal
	gone          []wordVal // what end finds changed in the old write log
	c             contrib
	was           struct{ packets, forwarded, dropped uint64 } // when it began
	wordPool      []wordVal
	funcPool      []fcount
	countPool     []count
	crit          []uint64 // by Global.ID: accesses inside a critical section
	// touched lists, per global, every line a recorded packet has read:
	// the lines whose counts can be other than zero. seen marks them, by
	// the env's line counter.
	touched [][]uint32
	seen    []bool
}

// poolChunk is how many elements a pool allocates at a time.
const poolChunk = 4096

// keep copies src into dst's storage when it fits and else into storage
// cut from pool, and returns the copy.
func keep[T any](dst, src []T, pool *[]T) []T {
	if cap(dst) < len(src) {
		p := *pool
		if cap(p)-len(p) < len(src) {
			p = make([]T, 0, max(poolChunk, len(src)))
		}
		dst, *pool = p[len(p):len(p):len(p)+len(src)], p[:len(p)+len(src)]
	}
	return append(dst[:0], src...)
}

// newRecorder returns a recorder of the packets run on e.
func newRecorder(e *hostEnv, sink []bool) *recorder {
	n := len(e.globals)
	return &recorder{sink: sink, marks: make([]uint32, len(e.mem)), lines: make([]uint32, len(e.lines)),
		gwrites: make([]mark, n), gcrits: make([]mark, n), chans: make([]mark, len(e.chans)),
		crit: make([]uint64, n), touched: make([][]uint32, n), seen: make([]bool, len(e.lines))}
}

// begin starts recording lg, which is about to run on e.
func (r *recorder) begin(e *hostEnv, lg *pktLog) {
	if r.epoch == math.MaxUint32/2 { // 2·epoch+1 would wrap: start the marks over
		clear(r.marks)
		clear(r.lines)
		clear(r.funcs)
		clear(r.gwrites)
		clear(r.gcrits)
		clear(r.chans)
		r.epoch = 0
	}
	r.epoch++
	r.log = lg
	r.reads, r.writes = r.reads[:0], r.writes[:0]
	c := &r.c
	c.funcs, c.lines, c.writes, c.crits, c.chans = c.funcs[:0], c.lines[:0], c.writes[:0], c.crits[:0], c.chans[:0]
	r.was.packets, r.was.forwarded, r.was.dropped = e.stats.Packets, e.stats.Forwarded, e.stats.Dropped
}

// end closes the packet begin started, at trace position i: the write log
// takes the values the packet left, the index moves to the new logs, and
// the logs and contribution are kept.
func (r *recorder) end(e *hostEnv, x *index, i int) {
	lg := r.log
	r.log = nil
	for k := range r.writes {
		w := &r.writes[k]
		w.v = e.mem[w.w]
	}
	for k := range r.c.lines {
		l := &r.c.lines[k]
		l.n = e.lines[l.j] - l.n
	}
	// The packet's writes are as before if it left every word of its old
	// write log as that log has it, and wrote as many words.
	wrote, gone := 2*r.epoch+1, r.gone[:0]
	for _, w := range lg.writes {
		if r.marks[w.w] != wrote || e.mem[w.w] != w.v {
			gone = append(gone, w)
		}
	}
	r.gone = gone
	var fresh []wordVal
	if len(gone) > 0 || len(lg.writes) != len(r.writes) {
		fresh = r.writes
	}
	x.update(i, lg.reads, r.reads, gone, fresh, len(r.writes) > 0)
	lg.reads = keep(lg.reads, r.reads, &r.wordPool)
	lg.writes = keep(lg.writes, r.writes, &r.wordPool)
	c, kept := &r.c, &lg.c
	kept.funcs = keep(kept.funcs, c.funcs, &r.funcPool)
	kept.lines = keep(kept.lines, c.lines, &r.countPool)
	kept.writes = keep(kept.writes, c.writes, &r.countPool)
	kept.crits = keep(kept.crits, c.crits, &r.countPool)
	kept.chans = keep(kept.chans, c.chans, &r.countPool)
	kept.packets = e.stats.Packets - r.was.packets
	kept.forwarded = e.stats.Forwarded - r.was.forwarded
	kept.dropped = e.stats.Dropped - r.was.dropped
}

// tally counts one touch of what m marks, {i, j} in list: a new count on
// the packet's first touch, one more after.
func (r *recorder) tally(m *mark, list *[]count, i, j int32) {
	if m.epoch == r.epoch {
		(*list)[m.at].n++
		return
	}
	*m = mark{r.epoch, int32(len(*list))}
	*list = append(*list, count{i, j, 1})
}

// fn returns the packet's count of the function with code.id id, made on
// first touch.
func (r *recorder) fn(id int32) *fcount {
	for int(id) >= len(r.funcs) {
		r.funcs = append(r.funcs, mark{})
	}
	m := &r.funcs[id]
	if m.epoch != r.epoch {
		*m = mark{r.epoch, int32(len(r.c.funcs))}
		r.c.funcs = append(r.c.funcs, fcount{i: id})
	}
	return &r.c.funcs[m.at]
}

// invoke counts an activation of c as a PPF.
func (r *recorder) invoke(c *code) {
	if r.log != nil {
		r.fn(c.id).invs++
	}
}

// ran counts what an activation of c executed, its cost.
func (r *recorder) ran(c *code, cost uint64) {
	if r.log != nil {
		f := r.fn(c.id)
		f.instrs += cost % memUnit
		f.mem += cost / memUnit
	}
}

// put counts a message on channel ch.
func (r *recorder) put(ch int) {
	if r.log != nil {
		r.tally(&r.chans[ch], &r.c.chans, int32(ch), 0)
	}
}

// critical counts an access to global g inside a critical section.
func (r *recorder) critical(g int) {
	r.crit[g]++
	if r.log != nil {
		r.tally(&r.gcrits[g], &r.c.crits, int32(g), 0)
	}
}

// read notes an n-word read at byte offset off, already counted in its
// cache line, and logs each word the packet has neither read nor written
// before, with its value.
func (r *recorder) read(hg *hostGlobal, off uint32, n int) {
	if r.log == nil {
		return
	}
	g, line := hg.g.ID, off/CacheLineBytes
	if at := hg.line0 + line; r.lines[at] != r.epoch {
		r.lines[at] = r.epoch
		r.c.lines = append(r.c.lines, count{j: int32(at), n: hg.lineReads[line] - 1})
		if !r.seen[at] {
			r.seen[at] = true
			r.touched[g] = append(r.touched[g], line)
		}
	}
	if r.sink[g] {
		return
	}
	first := 2 * r.epoch
	for k := off / 4; k < off/4+uint32(n); k++ {
		if w := hg.base + k; r.marks[w] < first {
			r.marks[w] = first
			r.reads = append(r.reads, wordVal{w, hg.words[k]})
		}
	}
}

// write counts a write and logs each word of an n-word write at byte
// offset off that the packet has not written before; outside a packet it
// lists the words in dirty. It runs before the words change.
func (r *recorder) write(hg *hostGlobal, off uint32, n int) {
	g := hg.g.ID
	if r.log != nil {
		r.tally(&r.gwrites[g], &r.c.writes, int32(g), 0)
	}
	if r.sink[g] {
		return
	}
	if r.log == nil {
		for k := off / 4; k < off/4+uint32(n); k++ {
			if w := hg.base + k; !r.dirtyAt[w] {
				r.dirtyAt[w] = true
				r.dirty = append(r.dirty, wordVal{w, hg.words[k]})
			}
		}
		return
	}
	wrote := 2*r.epoch + 1
	for w := hg.base + off/4; w < hg.base+off/4+uint32(n); w++ {
		if r.marks[w] != wrote {
			r.marks[w] = wrote
			r.writes = append(r.writes, wordVal{w: w})
		}
	}
}
