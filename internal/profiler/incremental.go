package profiler

import (
	"fmt"
	"math"
	"slices"

	"shangrila/internal/ir"
	"shangrila/internal/packet"
)

// Incremental is a profile of one program over one trace that is kept
// between profiles while the control list grows, so that a profile after a
// control-plane delta re-interprets only the trace packets the delta
// reaches.
//
// It keeps the host environment at its control state (the inits and the
// controls applied so far) and, for every trace packet, what the packet did
// the last time it ran: its first-read log (each global word it read before
// writing it, with the value read), its write log (each word it wrote, with
// the value it left) and its contribution to the counts. A profile applies
// the new controls, then walks the trace in order over a working copy of
// the table state. A packet whose logged words all still hold their logged
// values runs exactly as before, because the executor is deterministic and
// a packet's run depends only on its bytes, its port and the words it reads
// before it writes them; it is skipped and its write log applied. Any other
// packet is interpreted again, its old contribution taken out of the counts
// and its new one put in.
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
	// dirty spans, per logged global, the words controls wrote since the
	// last profile (the control env's recorder fills it).
	dirty   []span
	scratch packet.Packet // what a re-interpreted packet runs on

	// Reinterpreted is the number of trace packets the last profile
	// interpreted; the others were skipped.
	Reinterpreted int
}

// NewIncremental profiles prog over tr after the given controls, as
// ProfileWithControls does, and keeps what a later Profile needs. Neither
// the program nor the trace may change while the Incremental is in use.
func NewIncremental(prog *ir.Program, tr []*packet.Packet, controls []Control) (*Incremental, *Stats, error) {
	n := len(prog.Types.Globals)
	sink := sinkOnly(prog)
	in := &Incremental{trace: tr, ctl: newHostEnv(prog, &Stats{}), work: newHostEnv(prog, &Stats{}),
		rec: newRecorder(sink, n), pkts: make([]pktLog, len(tr)), dirty: make([]span, n)}
	in.work.rec = in.rec
	in.ctl.rec = &recorder{sink: sink, crit: make([]uint64, n), dirty: in.dirty}
	if err := in.ctl.runInits(); err != nil {
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
// After an error the Incremental must not be used again.
func (in *Incremental) Profile(controls []Control) (*Stats, error) {
	if len(controls) < in.nctl {
		return nil, fmt.Errorf("profiler: %d controls, fewer than the %d already applied", len(controls), in.nctl)
	}
	return in.profile(controls, false)
}

func (in *Incremental) profile(controls []Control, all bool) (*Stats, error) {
	for _, c := range controls[in.nctl:] {
		if err := in.ctl.control(c.Name, c.Args); err != nil {
			return nil, fmt.Errorf("control %s: %w", c.Name, err)
		}
	}
	in.nctl = len(controls)
	// The working copy becomes the control state again: it differs from it
	// only in the words the last walk wrote, which are the words of the
	// packets' write logs, and in the words the controls since wrote.
	work, ctl := in.work, in.ctl
	for i := range work.globals {
		d := in.dirty[i]
		in.dirty[i] = span{}
		switch {
		case in.rec.sink[i]:
		case all:
			copy(work.globals[i].words, ctl.globals[i].words)
		case d.lo < d.hi:
			copy(work.globals[i].words[d.lo:d.hi], ctl.globals[i].words[d.lo:d.hi])
		}
	}
	if !all {
		for i := range in.pkts {
			for _, w := range in.pkts[i].writes {
				work.globals[w.g].words[w.w] = ctl.globals[w.g].words[w.w]
			}
		}
	}
	entry, err := work.entry()
	if err != nil {
		return nil, err
	}
	in.Reinterpreted = 0
	for i, p := range in.trace {
		lg := &in.pkts[i]
		if !all && work.holds(lg.reads) {
			work.apply(lg.writes)
			continue
		}
		work.subtract(&lg.c)
		in.rec.begin(work, lg)
		in.scratch.CopyFrom(p)
		if err := work.inject(entry, &in.scratch, nil); err != nil {
			return nil, err
		}
		in.rec.end(work)
		in.Reinterpreted++
	}
	st := newStats()
	st.Packets, st.Forwarded, st.Dropped = work.stats.Packets, work.stats.Forwarded, work.stats.Dropped
	work.assemble(st)
	return st, nil
}

// wordVal is one global word, by Global.ID and word index, with a value.
type wordVal struct {
	g    int32
	w, v uint32
}

// count is one counter of a contribution: what i and j index depends on
// the list it is in.
type count struct {
	i, j int32
	n    uint64
}

// contrib is one packet's share of every count a profile reports. Reads
// are its line reads summed per global.
type contrib struct {
	blocks []count // Interp.codes index, block index: entries
	invs   []count // Interp.codes index: activations as a PPF
	lines  []count // Global.ID, cache line: reads
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
		if e.globals[r.g].words[r.w] != r.v {
			return false
		}
	}
	return true
}

// apply writes logged values back.
func (e *hostEnv) apply(writes []wordVal) {
	for _, w := range writes {
		e.globals[w.g].words[w.w] = w.v
	}
}

// subtract takes a contribution out of the counts.
func (e *hostEnv) subtract(c *contrib) {
	codes := e.it.codes
	for _, x := range c.blocks {
		codes[x.i].blocks[x.j].entered -= x.n
	}
	for _, x := range c.invs {
		codes[x.i].invocations -= x.n
	}
	for _, x := range c.lines {
		hg := &e.globals[x.i]
		hg.lineReads[x.j] -= x.n
		hg.stats.Reads -= x.n
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

// span is the words [lo, hi) of a global; empty when lo >= hi.
type span struct{ lo, hi uint32 }

// recorder logs one packet at a time: the hooks of hostEnv's global
// accesses fill its logs, and end turns the counts since begin into its
// contribution. Outside a packet (the control env's recorder) it only
// spans the words written to each logged global in dirty.
type recorder struct {
	sink  []bool // by Global.ID: sink-only, kept out of the logs
	dirty []span // by Global.ID
	// marks holds, per word of a logged global (allocated on first
	// access), 2·epoch once the packet being recorded read the word first
	// and 2·epoch+1 once it wrote it.
	marks [][]uint32
	epoch uint32
	log   *pktLog  // the packet being recorded, nil outside one
	lines []uint64 // its line reads, Global.ID<<32 | line
	// Its logs and contribution are built here and then kept in log, in
	// the storage log already has when they fit and else in storage cut
	// from the pools: a packet allocates nothing of its own.
	reads, writes []wordVal
	c             contrib
	wordPool      []wordVal
	countPool     []count
	crit          []uint64 // by Global.ID: accesses inside a critical section
	// touched lists, per global, every line a recorded packet has read:
	// the lines whose counts can be other than zero. seen marks them.
	touched [][]uint32
	seen    [][]bool

	// The counts when the packet began.
	was struct {
		blocks                      [][]uint64 // by Interp.codes index, then block
		invs                        []uint64
		writes, crits               []uint64 // by Global.ID
		chans                       []uint64 // by Channel.ID
		packets, forwarded, dropped uint64
	}
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

func newRecorder(sink []bool, globals int) *recorder {
	return &recorder{sink: sink, marks: make([][]uint32, globals), crit: make([]uint64, globals),
		touched: make([][]uint32, globals), seen: make([][]bool, globals)}
}

// begin starts recording lg, which is about to run on e.
func (r *recorder) begin(e *hostEnv, lg *pktLog) {
	if r.epoch == math.MaxUint32/2 { // 2·epoch+1 would wrap: start the marks over
		for _, m := range r.marks {
			clear(m)
		}
		r.epoch = 0
	}
	r.epoch++
	r.log = lg
	r.reads, r.writes, r.lines = r.reads[:0], r.writes[:0], r.lines[:0]
	was := &r.was
	codes := e.it.codes
	for len(was.blocks) < len(codes) {
		was.blocks = append(was.blocks, nil)
	}
	was.invs = was.invs[:0]
	for i, c := range codes {
		b := was.blocks[i][:0]
		for j := range c.blocks {
			b = append(b, c.blocks[j].entered)
		}
		was.blocks[i] = b
		was.invs = append(was.invs, c.invocations)
	}
	was.writes, was.crits = was.writes[:0], was.crits[:0]
	for i := range e.globals {
		was.writes = append(was.writes, e.globals[i].stats.Writes)
		was.crits = append(was.crits, r.crit[i])
	}
	was.chans = was.chans[:0]
	for _, hc := range e.chans {
		was.chans = append(was.chans, hc.puts)
	}
	was.packets, was.forwarded, was.dropped = e.stats.Packets, e.stats.Forwarded, e.stats.Dropped
}

// end closes the packet begin started: the write log takes the values the
// packet left, and the counts since begin become its contribution.
func (r *recorder) end(e *hostEnv) {
	lg, was := r.log, &r.was
	r.log = nil
	for i := range r.writes {
		w := &r.writes[i]
		w.v = e.globals[w.g].words[w.w]
	}
	lg.reads = keep(lg.reads, r.reads, &r.wordPool)
	lg.writes = keep(lg.writes, r.writes, &r.wordPool)
	c := &r.c
	c.blocks, c.invs = c.blocks[:0], c.invs[:0]
	for i, cd := range e.it.codes {
		var was []uint64
		inv := uint64(0)
		if i < len(r.was.invs) {
			was, inv = r.was.blocks[i], r.was.invs[i]
		}
		for j := range cd.blocks {
			n := cd.blocks[j].entered
			if j < len(was) {
				n -= was[j]
			}
			if n != 0 {
				c.blocks = append(c.blocks, count{int32(i), int32(j), n})
			}
		}
		if n := cd.invocations - inv; n != 0 {
			c.invs = append(c.invs, count{int32(i), 0, n})
		}
	}
	c.lines = c.lines[:0]
	slices.Sort(r.lines)
	for k, key := range r.lines {
		if k > 0 && key == r.lines[k-1] {
			c.lines[len(c.lines)-1].n++
			continue
		}
		g, line := int(key>>32), uint32(key)
		c.lines = append(c.lines, count{int32(g), int32(line), 1})
		if r.seen[g] == nil {
			r.seen[g] = make([]bool, len(e.globals[g].lineReads))
		}
		if !r.seen[g][line] {
			r.seen[g][line] = true
			r.touched[g] = append(r.touched[g], line)
		}
	}
	c.writes, c.crits = c.writes[:0], c.crits[:0]
	for i := range e.globals {
		if n := e.globals[i].stats.Writes - was.writes[i]; n != 0 {
			c.writes = append(c.writes, count{int32(i), 0, n})
		}
		if n := r.crit[i] - was.crits[i]; n != 0 {
			c.crits = append(c.crits, count{int32(i), 0, n})
		}
	}
	c.chans = c.chans[:0]
	for i, hc := range e.chans {
		if n := hc.puts - was.chans[i]; n != 0 {
			c.chans = append(c.chans, count{int32(i), 0, n})
		}
	}
	kept := &lg.c
	for _, l := range []struct{ dst, src *[]count }{{&kept.blocks, &c.blocks}, {&kept.invs, &c.invs},
		{&kept.lines, &c.lines}, {&kept.writes, &c.writes}, {&kept.crits, &c.crits}, {&kept.chans, &c.chans}} {
		*l.dst = keep(*l.dst, *l.src, &r.countPool)
	}
	kept.packets = e.stats.Packets - was.packets
	kept.forwarded = e.stats.Forwarded - was.forwarded
	kept.dropped = e.stats.Dropped - was.dropped
}

// marksOf returns the marks of a logged global of n words.
func (r *recorder) marksOf(g int, n int) []uint32 {
	m := r.marks[g]
	if m == nil {
		m = make([]uint32, n)
		r.marks[g] = m
	}
	return m
}

// read logs an n-word read at byte offset off: its cache line, and each
// word the packet has neither read nor written before, with its value.
func (r *recorder) read(hg *hostGlobal, off uint32, n int) {
	if r.log == nil {
		return
	}
	g := hg.g.ID
	r.lines = append(r.lines, uint64(g)<<32|uint64(off/CacheLineBytes))
	if r.sink[g] {
		return
	}
	marks, first := r.marksOf(g, len(hg.words)), 2*r.epoch
	for w := off / 4; w < off/4+uint32(n); w++ {
		if marks[w] < first {
			marks[w] = first
			r.reads = append(r.reads, wordVal{int32(g), w, hg.words[w]})
		}
	}
}

// write logs each word of an n-word write at byte offset off that the
// packet has not written before; outside a packet it widens the global's
// dirty span over the words.
func (r *recorder) write(hg *hostGlobal, off uint32, n int) {
	g := hg.g.ID
	if r.sink[g] {
		return
	}
	if r.log == nil {
		d, lo, hi := &r.dirty[g], off/4, off/4+uint32(n)
		if d.lo >= d.hi {
			*d = span{lo, hi}
		} else {
			d.lo, d.hi = min(d.lo, lo), max(d.hi, hi)
		}
		return
	}
	marks, wrote := r.marksOf(g, len(hg.words)), 2*r.epoch+1
	for w := off / 4; w < off/4+uint32(n); w++ {
		if marks[w] != wrote {
			marks[w] = wrote
			r.writes = append(r.writes, wordVal{g: int32(g), w: w})
		}
	}
}
