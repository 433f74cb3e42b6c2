package ixp

import (
	"fmt"
	"math/bits"

	"shangrila/internal/cg"
)

// Shard-phase execution: the ME-local mirror of runME/readyThread.
//
// shardActivate executes one thread activation exactly as runME does —
// same round-robin pick, same tight-loop batching, same cycle accounting
// — but confined to ME-local state. Shared-state effects are deferred
// into the ME's log for the replay phase:
//
//   - A blocking memory access or ring op ends the activation under both
//     engines, so deferring it never changes what the ME computes inside
//     the window: the thread blocks on state the replay supplies later.
//     The shard performs only the address-range pre-check (registers and
//     the target's logical size are window-stable), deciding block-vs-fault.
//   - Statistics, tracing and event sequence numbers are applied by the
//     replay in merge order, so samples and traces interleave exactly as
//     under the serial engine.
//   - Local Memory is ME-private: loads and stores execute inline, with
//     the access counter staged in the shard's accArray.
//
// Faults stop the shard immediately; the replay stops the run when the
// fault entry's turn comes in merge order, leaving shared state exactly
// where the serial engine would have.

// shardReady mirrors readyThread: unblock the thread and make sure the
// ME has an activation queued. The log entry's only replay effect is
// stamping the created activation's sequence number.
func (p *parallelEngine) shardReady(ms *meShard, meIdx int, ev *meEvent) {
	mx := p.m.MEs[meIdx]
	ti := int(ev.thread)
	th := mx.threads[ti]
	if th.state == tBlocked {
		th.state = tReady
		mx.setReady(ti, true)
	}
	var chain *meEvent
	if !mx.scheduled && mx.enabled {
		mx.scheduled = true
		chain = ms.create(ev.time, evActivate, 0)
	}
	ms.log = append(ms.log, logEntry{ev: ev, me: int32(meIdx), thread: ev.thread,
		isReady: true, activate: chain})
}

// shardActivate mirrors runME for one evActivate event at time ev.time
// (the serial engine's m.now when this event pops). It returns true on a
// machine-check fault, which stops the whole shard.
func (p *parallelEngine) shardActivate(acc *accArray, ms *meShard, meIdx int, ev *meEvent) bool {
	m := p.m
	mx := m.MEs[meIdx]
	if !mx.enabled || mx.dec == nil {
		ms.free = append(ms.free, ev)
		return false
	}
	ti := -1
	n := len(mx.threads)
	if n <= 64 {
		if mx.readyMask == 0 {
			ms.free = append(ms.free, ev)
			return false // re-activated when a thread completes
		}
		rot := mx.readyMask>>uint(mx.rrNext) | mx.readyMask<<uint(n-mx.rrNext)
		ti = mx.rrNext + bits.TrailingZeros64(rot)
		if ti >= n {
			ti -= n
		}
	} else {
		for k := 0; k < n; k++ {
			cand := (mx.rrNext + k) % n
			if mx.threads[cand].state == tReady {
				ti = cand
				break
			}
		}
		if ti < 0 {
			ms.free = append(ms.free, ev)
			return false
		}
	}
	th := mx.threads[ti]
	cycles := int64(0)
	instrs := uint64(0)
	code := mx.dec.code
	// Under EngineCompiled{Shards>0} the staged slots accelerate the
	// straight-line runs; terminators keep the deferring dispatch below,
	// which already confines shared state to the replay.
	var cslots []cSlot
	if mx.cdec != nil {
		cslots = mx.cdec.slots
	}
	regs := &th.regs
	pc := th.pc
	budget := int64(maxRunInstrs)
	reason := YieldBudget
	term := termNone
	var termIn *dInstr
	var termCycles int64
	var faultMsg string
loop:
	for budget > 0 {
		if pc < 0 || pc >= len(code) {
			th.pc = pc
			faultMsg = fmt.Sprintf("ixp: ME%d thread %d: pc %d out of range", meIdx, ti, pc)
			term = termFault
			break loop
		}
		in := &code[pc]
		if in.run > 0 {
			n := int64(in.run)
			if cslots != nil {
				if s := &cslots[pc]; s.run != nil && n <= budget {
					s.run(regs)
					pc = int(s.next)
					instrs += uint64(n)
					cycles += n
					budget -= n
					continue
				}
			}
			if n > budget {
				n = budget
			}
			pc = execRun(code, regs, pc, n)
			instrs += uint64(n)
			cycles += n
			budget -= n
			continue
		}
		instrs++
		cycles++
		budget--
		next := pc + 1
		switch in.kind {
		case dBr:
			next = int(in.target)
		case dBcc:
			if condEval(in.cond, regs[in.srcA], regs[in.srcB]) {
				next = int(in.target)
			}
		case dBccImm:
			if condEval(in.cond, regs[in.srcA], in.imm) {
				next = int(in.target)
			}
		case dFusedImmedBcc:
			regs[in.dst] = in.imm
			if budget > 0 {
				t := &code[next]
				instrs++
				cycles++
				budget--
				next++
				if condEval(t.cond, regs[t.srcA], regs[t.srcB]) {
					next = int(t.target)
				}
			}
		case dFusedImmedBccImm:
			regs[in.dst] = in.imm
			if budget > 0 {
				t := &code[next]
				instrs++
				cycles++
				budget--
				next++
				if condEval(t.cond, regs[t.srcA], t.imm) {
					next = int(t.target)
				}
			}
		case dMem:
			addr := in.addrOff + regs[in.addr]
			nbytes := int(in.nwords) * 4
			if in.level == cg.MemLocal {
				// ME-private: execute inline, as execMem's Local path.
				mem := mx.local
				if int(addr)+nbytes > len(mem) {
					th.pc = pc
					faultMsg = fmt.Sprintf("ixp: ME%d: %v access at %d+%d out of range (level %v)",
						meIdx, in.op, addr, nbytes, in.level)
					term = termFault
					break loop
				}
				if in.store {
					for i, r := range in.data {
						putBEWord(mem[int(addr)+i*4:], regs[r])
					}
				} else {
					for i, r := range in.data {
						regs[r] = beWord(mem[int(addr)+i*4:])
					}
				}
				if in.accIdx >= 0 {
					acc[in.accIdx]++
				}
				cycles += m.Cfg.LocalLatency - 1
			} else {
				// Shared level: pre-check the range, then defer the whole
				// access (bytes, controller, stats, trace) to the replay.
				// The access always blocks the thread past the window end.
				// The check is against the logical size: the backing may
				// be shorter, and only the replay may grow it.
				if int(addr)+nbytes > m.memLimit(in.level, meIdx) {
					th.pc = pc
					faultMsg = fmt.Sprintf("ixp: ME%d: %v access at %d+%d out of range (level %v)",
						meIdx, in.op, addr, nbytes, in.level)
					term = termFault
					break loop
				}
				pc = next
				th.state = tBlocked
				mx.setReady(ti, false)
				reason = YieldMem
				term = termMem
				termIn = in
				termCycles = cycles
				break loop
			}
		case dCAMLookup:
			hit, entry := m.camLookup(mx, regs[in.srcA])
			regs[in.dst] = hit
			regs[in.dst2] = entry
			cycles += 2
		case dCAMWrite:
			e := regs[in.srcA] % uint32(len(mx.cam))
			mx.cam[e] = camEntry{tag: regs[in.srcB], valid: true}
			m.camTouch(mx, int(e))
		case dCAMClear:
			m.stats.CAMClears[mx.idx]++
			for i := range mx.cam {
				mx.cam[i].valid = false
			}
		case dRingGet, dRingPut:
			// Rings are shared: defer entirely; both ops always block.
			pc = next
			th.state = tBlocked
			mx.setReady(ti, false)
			reason = YieldRing
			term = termRing
			termIn = in
			termCycles = cycles
			break loop
		case dCtxArb:
			pc = next
			reason = YieldCtx
			break loop
		case dHalt:
			th.state = tDead
			mx.setReady(ti, false)
			pc = next
			reason = YieldHalt
			break loop
		default: // dBad
			th.pc = pc
			faultMsg = fmt.Sprintf("ixp: ME%d: bad opcode %v", meIdx, in.op)
			term = termFault
			break loop
		}
		pc = next
	}
	if term == termFault {
		// Serial fault paths flush instrs but not cycles, and skip the
		// round-robin update; the replay reproduces that.
		ms.log = append(ms.log, logEntry{ev: ev, me: int32(meIdx), thread: int32(ti),
			cycles: cycles, instrs: instrs, reason: YieldFault, term: termFault,
			faultMsg: faultMsg})
		return true
	}
	th.pc = pc
	if reason == YieldBudget {
		// Mirror the serial engine: budget exhaustion resumes the same
		// thread — context switches happen only at voluntary yields.
		mx.rrNext = ti
	} else {
		mx.rrNext = (ti + 1) % len(mx.threads)
	}
	hasReady := mx.readyMask != 0
	if n > 64 {
		hasReady = false
		for _, t2 := range mx.threads {
			if t2.state == tReady {
				hasReady = true
				break
			}
		}
	}
	var chain *meEvent
	if hasReady {
		mx.scheduled = true
		chain = ms.create(ev.time+cycles+1, evActivate, 0)
	}
	ms.log = append(ms.log, logEntry{ev: ev, me: int32(meIdx), thread: int32(ti),
		cycles: cycles, instrs: instrs, reason: reason, term: term,
		in: termIn, cyclesAt: termCycles, activate: chain})
	return false
}
