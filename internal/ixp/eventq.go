package ixp

// The simulator's event core. It replaces the earlier container/heap of
// *event, whose every schedule allocated one event box and whose every
// compare went through an interface method table. Events are plain values
// and the structure is a hierarchical timing wheel:
//
//   - A wheel of wheelSize (2048) buckets covers the near future [base,
//     base+wheelSize). Pushing appends to the bucket time&wheelMask — O(1),
//     no comparisons — and because simulated time partitions the window,
//     each live bucket holds events of exactly one timestamp, already in
//     seq order (the schedule counter is monotone). Popping takes the
//     current bucket's head and advances the cursor across empty buckets;
//     event density makes that scan O(1) amortized.
//
//   - Events beyond the window (deep controller backlogs, far-off samples)
//     go to a four-ary min-heap of values, the `far` overflow. Whenever the
//     wheel's base advances, far events entering the window migrate into
//     their buckets. Migration happens strictly before any same-timestamp
//     event can be pushed directly (a direct push at time T requires T
//     inside the window, and the window only moves forward when the base
//     advances — exactly when migration runs), so bucket seq order is
//     preserved.
//
//   - Events scheduled before base (a control-plane At() aimed at the
//     past, or a schedule at the clock after a Run stopped at its
//     deadline short of the next event) go to the `past` heap, which
//     every pop consults first. It is almost always empty and costs one
//     length check per pop. Nothing in the event loop moves the base
//     past the clock: the wakeup drain asks dueBy, which reads only the
//     `past` head and the cursor's bucket.
//
// Footprint: the first push allocates the wheel, 2048 bucket headers of
// 32 bytes and a slab of bucketCap 24-byte events per bucket, 256 KiB per
// machine. Every simulated point starts a fresh machine and each lap of
// the wheel sweeps all of it, so the window is sized to the horizon the
// model schedules, not beyond.
//
// Ordering guarantee: pops are strictly ascending in (time, seq), exactly
// as a single min-heap over the same keys would produce — every
// determinism property of the simulation is independent of this layout.

import "math/bits"

// event kinds
type evKind uint8

const (
	evActivate evKind = iota
	evReady
	evRxTick
	evTxTick
	evXScale
	evCallback
	evSample
)

// event is pointer-free by design: callback closures live in the
// machine's callback registry and events carry only their index (cb).
// Pointer-free events mean no write barriers on the wheel's hot push
// path and nothing for the garbage collector to scan in the buckets.
//
// The narrow fields pack after cb so an event is 24 bytes, not 32: me
// fits 16 bits because Config.Validate bounds NumMEs by maxMEs, and
// thread fits 8 because it bounds ThreadsPerME by 64.
type event struct {
	time   int64
	seq    int64
	cb     int32 // callback registry index; meaningful for evCallback only
	me     uint16
	kind   evKind
	thread uint8
}

// before is the queue order: earliest time first, schedule order breaking
// ties.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

const (
	// wheelSize is the window the model schedules into: memory, ring and
	// media horizons stay under 2k cycles, so fewer than one schedule in
	// a thousand of the steady and fuzz shapes lands beyond it
	// (TestWheelCoversScheduleHorizon), where a 1024-bucket window sends
	// over a tenth of the steady +SWC schedules to the far heap.
	wheelSize = 2048
	wheelMask = wheelSize - 1
	// bucketCap is each bucket's initial capacity, carved from one slab on
	// first push. Most timestamps carry at most a few events, so a fresh
	// machine's first lap of the wheel appends in place instead of walking
	// one growslice chain per bucket; a busier bucket outgrows its slab
	// segment through append as before.
	bucketCap = 4
)

// bucket is one wheel slot: a FIFO of same-timestamp events in seq order.
// head indexes the next event to pop; the slice is reset (capacity kept)
// when it drains, so steady-state operation does not allocate.
type bucket struct {
	ev   []event
	head int
}

// eventQueue is the timing wheel plus its two heap fallbacks. The zero
// value is an empty queue ready for use (buckets are sized on first push).
type eventQueue struct {
	base    int64 // timestamp of buckets[cursor]; no unpopped event is earlier (except `past`)
	cursor  int   // bucket index of base
	inWheel int   // events currently in buckets
	buckets []bucket
	// occ is the bucket-occupancy bitmap (bit i ⇔ buckets[i] non-empty):
	// locate skips empty stretches a word at a time instead of walking
	// buckets one by one.
	occ  [wheelSize / 64]uint64
	far  heap4 // time >= base+wheelSize
	past heap4 // time < base (an At aimed backward, a schedule after a deadline stop)
	n    int   // total events across wheel and heaps
	// farPushes and pastPushes count the pushes that missed the wheel,
	// on those cold paths only: the window's fit to the model is their
	// share of all schedules.
	farPushes, pastPushes int64
}

func (q *eventQueue) len() int { return q.n }

// push inserts e. Amortized zero-alloc: buckets and heap arrays retain
// their capacity across pops.
func (q *eventQueue) push(e event) {
	q.n++
	if q.buckets == nil {
		q.buckets = make([]bucket, wheelSize)
		slab := make([]event, wheelSize*bucketCap)
		for i := range q.buckets {
			// Three-index slice: append stops at the segment's end and
			// reallocates, never running into the neighbouring bucket.
			q.buckets[i].ev = slab[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
		}
		q.base = e.time
		q.cursor = int(e.time) & wheelMask
	}
	switch d := e.time - q.base; {
	case d < 0:
		q.pastPushes++
		q.past.push(e)
	case d >= wheelSize:
		q.farPushes++
		q.far.push(e)
	default:
		idx := int(e.time) & wheelMask
		b := &q.buckets[idx]
		b.ev = append(b.ev, e)
		q.occ[idx>>6] |= 1 << uint(idx&63)
		q.inWheel++
	}
}

// locate advances the wheel to the earliest pending event and returns its
// bucket. It only moves the cursor/base bookkeeping — no event is removed
// — so pop and popUntil share it. Callers guarantee the wheel or overflow is
// non-empty and the past heap is empty.
func (q *eventQueue) locate() *bucket {
	if q.inWheel == 0 {
		// Everything pending is beyond the window: jump the window to the
		// overflow's earliest event, then migrate the events it reaches.
		q.base = q.far.ev[0].time
		q.cursor = int(q.base) & wheelMask
		q.migrate()
	}
	// Jump straight to the next occupied bucket. The jump is sound because
	// every far event's time is at least base+wheelSize, which is beyond any
	// bucket still in the window — no far event can be earlier than the
	// bucket the bitmap finds. Migration runs once after the base advances,
	// and the events it admits land at the far end of the window, ahead of
	// the cursor.
	idx := q.nextOcc(q.cursor)
	if d := (idx - q.cursor) & wheelMask; d > 0 {
		q.base += int64(d)
		q.cursor = idx
		if q.far.len() > 0 && q.far.ev[0].time < q.base+wheelSize {
			q.migrate()
		}
	}
	return &q.buckets[idx]
}

// nextOcc returns the first occupied bucket at or cyclically after c.
// Callers guarantee the wheel is non-empty.
func (q *eventQueue) nextOcc(c int) int {
	w := c >> 6
	if rest := q.occ[w] >> uint(c&63); rest != 0 {
		return c + bits.TrailingZeros64(rest)
	}
	for i := 1; i <= len(q.occ); i++ {
		w2 := (w + i) & (len(q.occ) - 1)
		if word := q.occ[w2]; word != 0 {
			return w2<<6 + bits.TrailingZeros64(word)
		}
	}
	return c // unreachable while inWheel > 0
}

// drained resets a bucket the caller just emptied and clears its
// occupancy bit. The cursor still points at it.
func (q *eventQueue) drained(b *bucket) {
	b.ev = b.ev[:0]
	b.head = 0
	q.occ[q.cursor>>6] &^= 1 << uint(q.cursor&63)
}

// migrate moves overflow events that entered the window into their
// buckets. The far heap yields them in (time, seq) order and no
// same-timestamp event can have been pushed directly while they were in
// overflow (its time was outside the window until now), so appending
// preserves each bucket's seq order.
func (q *eventQueue) migrate() {
	horizon := q.base + wheelSize
	for q.far.len() > 0 && q.far.ev[0].time < horizon {
		e := q.far.pop()
		idx := int(e.time) & wheelMask
		b := &q.buckets[idx]
		b.ev = append(b.ev, e)
		q.occ[idx>>6] |= 1 << uint(idx&63)
		q.inWheel++
	}
}

// dueBy returns the earliest event if it is due at or before now, or nil,
// without moving the wheel. It reads only the `past` head and the
// cursor's bucket: the event loop's clock never passes the base (a wheel
// pop sets the base to the popped time, a `past` pop takes a time before
// it), so an event due by now is in `past`, which holds only times before
// the base, or at the base, in buckets[cursor]. The pointer is
// into the queue's backing storage: the next push or pop invalidates it.
func (q *eventQueue) dueBy(now int64) *event {
	if q.past.len() > 0 {
		if e := &q.past.ev[0]; e.time <= now {
			return e
		}
		return nil
	}
	if q.inWheel == 0 {
		return nil
	}
	b := &q.buckets[q.cursor]
	if b.head < len(b.ev) && b.ev[b.head].time <= now {
		return &b.ev[b.head]
	}
	return nil
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() event {
	if q.past.len() > 0 {
		q.n--
		return q.past.pop()
	}
	b := q.locate()
	e := b.ev[b.head]
	b.head++
	if b.head == len(b.ev) {
		q.drained(b)
	}
	q.inWheel--
	q.n--
	return e
}

// popUntil removes and returns the earliest event if its time is at most
// deadline; otherwise it leaves the queue untouched and reports false.
// This is the event loop's single entry: one locate per event instead of
// a peek/pop pair.
func (q *eventQueue) popUntil(deadline int64) (event, bool) {
	if q.past.len() > 0 {
		if q.past.ev[0].time > deadline {
			return event{}, false
		}
		q.n--
		return q.past.pop(), true
	}
	if q.n == 0 {
		return event{}, false
	}
	b := q.locate()
	e := b.ev[b.head]
	if e.time > deadline {
		return event{}, false
	}
	b.head++
	if b.head == len(b.ev) {
		q.drained(b)
	}
	q.inWheel--
	q.n--
	return e, true
}

// heap4 is a four-ary min-heap of event values ordered by (time, seq),
// used for the rare events outside the wheel's window.
type heap4 struct {
	ev []event
}

func (h *heap4) len() int { return len(h.ev) }

func (h *heap4) push(e event) {
	h.ev = append(h.ev, e)
	h.siftUp(len(h.ev) - 1)
}

func (h *heap4) pop() event {
	ev := h.ev
	top := ev[0]
	n := len(ev) - 1
	ev[0] = ev[n]
	h.ev = ev[:n]
	if n > 1 {
		h.siftDown(0)
	}
	return top
}

func (h *heap4) siftUp(i int) {
	ev := h.ev
	e := ev[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&ev[p]) {
			break
		}
		ev[i] = ev[p]
		i = p
	}
	ev[i] = e
}

func (h *heap4) siftDown(i int) {
	ev := h.ev
	n := len(ev)
	e := ev[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		least := c
		for k := c + 1; k < end; k++ {
			if ev[k].before(&ev[least]) {
				least = k
			}
		}
		if !ev[least].before(&e) {
			break
		}
		ev[i] = ev[least]
		i = least
	}
	ev[i] = e
}
