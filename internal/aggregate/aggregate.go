// Package aggregate implements the paper's aggregation stage (§5.1): PPFs
// are merged or duplicated into aggregates, each mapped to one processing
// element, to maximize the packet forwarding rate. The heuristic follows
// Figure 7 of the paper; the cost model follows Equation 1
// (t ∝ n·k/p): with the ME count fixed, merging removes channel overhead
// (raising k) while pipelining spends MEs on stages (raising p), so the
// model biases toward duplication over pipelining exactly as the paper
// observes — pipelining happens only when an aggregate cannot fit the
// 4096-instruction ME code store.
package aggregate

import (
	"fmt"
	"slices"
	"sort"

	"shangrila/internal/baker/types"
	"shangrila/internal/ir"
	"shangrila/internal/profiler"
)

// Target identifies the processing element class an aggregate runs on.
type Target int

const (
	// TargetME maps the aggregate to microengines.
	TargetME Target = iota
	// TargetXScale maps infrequent/oversized aggregates to the control
	// processor, where they run interpreted.
	TargetXScale
)

func (t Target) String() string {
	if t == TargetXScale {
		return "xscale"
	}
	return "me"
}

// CodeStore is the ME code store: the most instructions one ME image may
// hold (§3.1). Aggregation keeps every merged aggregate's estimated size
// within it, and cg.Verify refuses a compiled image over it.
const CodeStore = 4096

// Config parameterizes aggregation.
type Config struct {
	// NumMEs is the number of microengines available for packet
	// processing (6 on the paper's IXP2400 setup: 8 minus Rx and Tx).
	NumMEs int
	// ChannelCost is the estimated per-packet cost (in IR-instruction
	// units) of crossing an inter-aggregate communication channel: ring
	// put + get plus head_ptr hand-off.
	ChannelCost float64
	// XScaleFreqCutoff: PPFs handling fewer than this fraction of packets
	// are control-path code and move to the XScale.
	XScaleFreqCutoff float64
	// CodeSizeFn estimates the post-codegen instruction count of an IR
	// function. Defaults to EstimateCodeSize.
	CodeSizeFn func(*ir.Func) int
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		NumMEs:           6,
		ChannelCost:      40,
		XScaleFreqCutoff: 0.01,
	}
}

// Aggregate is a set of PPFs mapped to one processing element.
type Aggregate struct {
	ID     int
	PPFs   []string // qualified PPF names, deterministic order
	Target Target
	// Dup is the stage duplication factor chosen by the Figure 7 loop
	// (before whole-pipeline replication).
	Dup int
	// Cost is the estimated per-packet execution cost in IR-instruction
	// units, including external channel overhead.
	Cost float64
	// CodeSize is the estimated post-codegen instruction count.
	CodeSize int
	// Weight is the fraction of trace packets entering this aggregate.
	Weight float64
}

// Plan is the aggregation result.
type Plan struct {
	Aggregates []*Aggregate
	// Replicas is the whole-pipeline replication factor floor(n/p).
	Replicas int
	// Of maps each PPF to its aggregate.
	Of map[string]*Aggregate
	// Throughput is the modelled relative forwarding rate (Equation 1).
	Throughput float64
}

// MEAggregates returns the aggregates mapped to microengines.
func (p *Plan) MEAggregates() []*Aggregate {
	var out []*Aggregate
	for _, a := range p.Aggregates {
		if a.Target == TargetME {
			out = append(out, a)
		}
	}
	return out
}

// SameDecisions reports whether two plans decide the same thing: the same
// aggregates (PPFs, target, duplication, estimated code size) under the same
// IDs and the same replication. Cost, Weight and Throughput are the model's
// reasons, which nothing after aggregation reads, and are not compared.
func (p *Plan) SameDecisions(q *Plan) bool {
	if p.Replicas != q.Replicas || len(p.Aggregates) != len(q.Aggregates) {
		return false
	}
	for i, a := range p.Aggregates {
		b := q.Aggregates[i]
		if a.ID != b.ID || a.Target != b.Target || a.Dup != b.Dup ||
			a.CodeSize != b.CodeSize || !slices.Equal(a.PPFs, b.PPFs) {
			return false
		}
	}
	return true
}

// String renders the plan for logs and tests.
func (p *Plan) String() string {
	s := fmt.Sprintf("plan: %d aggregate(s), %d replica(s), throughput %.4f\n",
		len(p.Aggregates), p.Replicas, p.Throughput)
	for _, a := range p.Aggregates {
		s += fmt.Sprintf("  aggr %d [%s dup=%d cost=%.1f size=%d]: %v\n",
			a.ID, a.Target, a.Dup, a.Cost, a.CodeSize, a.PPFs)
	}
	return s
}

// Throughput implements Equation 1: with n processors, p pipeline stages
// (counting duplication), and per-stage costs, the forwarding rate is the
// whole-pipeline replication factor times the slowest stage's rate.
func Throughput(numMEs int, stages []*Aggregate) float64 {
	if len(stages) == 0 {
		return 0
	}
	used := 0
	slowest := 0.0
	for _, a := range stages {
		used += a.Dup
		perStage := a.Cost / float64(a.Dup)
		if perStage > slowest {
			slowest = perStage
		}
	}
	if used == 0 || slowest == 0 {
		return 0
	}
	replicas := numMEs / used
	if replicas == 0 {
		return 0 // does not fit; caller must keep merging
	}
	return float64(replicas) / slowest
}

// Build runs the Figure 7 heuristic over the program using the Functional
// profiler's weights: packets injected, per-PPF invocations and executed
// instructions, and per-channel messages. Nothing else of a profile can
// change a plan.
func Build(prog *ir.Program, w *profiler.Weights, cfg Config) (*Plan, error) {
	if cfg.NumMEs <= 0 {
		return nil, fmt.Errorf("aggregate: NumMEs must be positive")
	}
	if cfg.CodeSizeFn == nil {
		cfg.CodeSizeFn = EstimateCodeSize
	}
	b := &builder{prog: prog, weights: w, cfg: cfg}
	return b.run()
}

type builder struct {
	prog    *ir.Program
	weights *profiler.Weights
	cfg     Config
}

func (b *builder) run() (*Plan, error) {
	// Initial aggregates: one per PPF, in declaration order.
	var aggs []*Aggregate
	total := float64(b.weights.Packets)
	if total == 0 {
		return nil, fmt.Errorf("aggregate: profile contains no packets")
	}
	for _, fn := range b.prog.PPFs() {
		a := &Aggregate{
			ID:     len(aggs),
			PPFs:   []string{fn.Name},
			Dup:    1,
			Weight: float64(b.funcStats(fn.Name).Invocations) / total,
		}
		aggs = append(aggs, a)
	}
	// Move control-path PPFs to the XScale up front (they would otherwise
	// anchor merges); the paper does this after formation, but the
	// outcome is the same and it keeps the hot loop focused.
	var hot []*Aggregate
	var cold []*Aggregate
	for _, a := range aggs {
		if a.Weight < b.cfg.XScaleFreqCutoff {
			a.Target = TargetXScale
			cold = append(cold, a)
		} else {
			hot = append(hot, a)
		}
	}
	for _, a := range hot {
		b.refresh(a, hot)
	}

	// Figure 7 search, implemented as a hill-climb with duplication
	// rebalancing: after every candidate merge the stage duplication
	// factors are re-derived from the throughput model (the DUPLICATE
	// branch of the paper's loop, applied exhaustively), and the merge
	// with the best resulting Equation-1 throughput is taken. Ties prefer
	// fewer aggregates: merging removes channel overhead, the bias §5.1
	// observes on real hardware. When more aggregates remain than
	// processors, the constraint is relaxed: the least-bad merge is
	// forced (RELAX_CONSTRAINT).
	b.rebalance(hot)
	for round := 0; round < 1000; round++ {
		cur := Throughput(b.cfg.NumMEs, hot)
		pairs := b.formPairs(hot)
		var best []*Aggregate
		bestT := -1.0
		for _, pr := range pairs {
			merged := b.mergedCandidate(pr)
			if merged.CodeSize > CodeStore {
				continue
			}
			var cand []*Aggregate
			for _, a := range hot {
				if a != pr.a && a != pr.b {
					cand = append(cand, a)
				}
			}
			cand = append(cand, merged)
			b.rebalance(cand)
			t := Throughput(b.cfg.NumMEs, cand)
			if t > bestT {
				bestT = t
				best = cand
			}
		}
		switch {
		case best != nil && (bestT >= cur || len(hot) > b.cfg.NumMEs):
			hot = best
			sort.Slice(hot, func(i, j int) bool { return hot[i].ID < hot[j].ID })
		default:
			// No merge improves and the plan fits: done.
			round = 1 << 30
		}
		if round == 1<<30 {
			break
		}
	}
	b.rebalance(hot)
	// Post-pass: oversized aggregates cannot be mapped to an ME at all if
	// even a single PPF exceeds the code store; they fall to the XScale.
	for _, a := range hot {
		if a.CodeSize > CodeStore {
			// Keep on MEs only if it is a singleton we cannot split
			// further; otherwise Figure 7's merging already refused to
			// create it. A singleton that overflows goes to the XScale.
			if len(a.PPFs) == 1 {
				a.Target = TargetXScale
			}
		}
	}
	var stages []*Aggregate
	for _, a := range hot {
		if a.Target == TargetME {
			stages = append(stages, a)
		} else {
			cold = append(cold, a)
		}
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("aggregate: no ME-eligible aggregates (all control path?)")
	}
	// MAP_TO_MES: replicate the whole pipeline across remaining MEs.
	used := 0
	for _, a := range stages {
		used += a.Dup
	}
	replicas := b.cfg.NumMEs / used
	if replicas < 1 {
		replicas = 1
	}
	final := append(stages, cold...)
	for i, a := range final {
		a.ID = i
	}
	plan := &Plan{
		Aggregates: final,
		Replicas:   replicas,
		Of:         map[string]*Aggregate{},
		Throughput: Throughput(b.cfg.NumMEs, stages),
	}
	for _, a := range final {
		for _, f := range a.PPFs {
			plan.Of[f] = a
		}
	}
	return plan, nil
}

// refresh recomputes an aggregate's cost and code size.
func (b *builder) refresh(a *Aggregate, all []*Aggregate) {
	total := float64(b.weights.Packets)
	member := map[string]bool{}
	for _, f := range a.PPFs {
		member[f] = true
	}
	cost := 0.0
	for _, f := range a.PPFs {
		fs := b.funcStats(f)
		if fs.Invocations == 0 {
			continue
		}
		w := float64(fs.Invocations) / total
		cost += w * float64(fs.Instrs) / float64(fs.Invocations)
	}
	// Channel overhead: every message on a channel crossing the aggregate
	// boundary costs ChannelCost (half attributed to each side, so a
	// merge of producer and consumer removes the full cost). Channels are
	// summed in ID order, so a cost has one rounding.
	for id, msgs := range b.weights.Chans {
		if msgs == 0 {
			continue
		}
		producerIn, consumerIn := b.chanEndsIn(b.prog.Types.ChanByID[id], member)
		w := float64(msgs) / total
		if producerIn != consumerIn {
			cost += w * b.cfg.ChannelCost
		} else if producerIn && consumerIn {
			// Internal: converted to a call, nearly free.
			cost += w * 1
		}
	}
	a.Cost = cost
	size := 0
	seen := map[string]bool{}
	for _, f := range a.PPFs {
		size += b.codeSizeWithHelpers(f, seen)
	}
	a.CodeSize = size
}

// funcStats returns the named function's profiled counts, zero for one the
// profile did not run.
func (b *builder) funcStats(name string) profiler.FuncStats {
	if i := b.prog.Index(name); i >= 0 && i < len(b.weights.Funcs) {
		return b.weights.Funcs[i]
	}
	return profiler.FuncStats{}
}

// chanEndsIn reports whether ch's producers / consumer lie in the member
// set.
func (b *builder) chanEndsIn(ch *types.Channel, member map[string]bool) (producerIn, consumerIn bool) {
	consumerIn = member[ch.Consumer]
	for _, fn := range b.prog.Funcs {
		if fn.Kind != ir.FuncPPF || !member[fn.Name] {
			continue
		}
		for _, blk := range fn.Blocks {
			for _, in := range blk.Instrs {
				if in.Op == ir.OpChanPut && in.Chan == ch {
					producerIn = true
				}
			}
		}
	}
	return
}

// codeSizeWithHelpers estimates fn's code size including callees (helpers
// share the code store with their callers on an ME).
func (b *builder) codeSizeWithHelpers(fn string, seen map[string]bool) int {
	if seen[fn] {
		return 0
	}
	seen[fn] = true
	f := b.prog.Func(fn)
	if f == nil {
		return 0
	}
	size := b.cfg.CodeSizeFn(f)
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == ir.OpCall {
				size += b.codeSizeWithHelpers(in.Callee, seen)
			}
		}
	}
	return size
}

// rebalance re-derives stage duplication factors for a candidate stage
// set: reset to one, then repeatedly duplicate the dominating (slowest)
// stage while Equation 1 improves — the paper's DUPLICATE step driven to
// its fixpoint.
func (b *builder) rebalance(stages []*Aggregate) {
	if len(stages) == 0 {
		return
	}
	for _, a := range stages {
		a.Dup = 1
	}
	best := make([]int, len(stages))
	bestT := Throughput(b.cfg.NumMEs, stages)
	snapshot := func() {
		for i, a := range stages {
			best[i] = a.Dup
		}
	}
	snapshot()
	// Walk the duplication frontier up to the ME budget, always
	// duplicating the slowest stage; throughput is not monotone along the
	// walk (whole-pipeline replication drops at each budget boundary), so
	// keep the best configuration seen rather than stopping at the first
	// plateau.
	for used := len(stages); used < b.cfg.NumMEs; used++ {
		var dom *Aggregate
		for _, a := range stages {
			if dom == nil || a.Cost/float64(a.Dup) > dom.Cost/float64(dom.Dup) {
				dom = a
			}
		}
		dom.Dup++
		// Require a real improvement: floating-point noise on exact
		// plateaus (dup×replicas constant) must not inflate duplication.
		if t := Throughput(b.cfg.NumMEs, stages); t > bestT*(1+1e-9) {
			bestT = t
			snapshot()
		}
	}
	for i, a := range stages {
		a.Dup = best[i]
	}
}

type pair struct {
	a, b     *Aggregate
	chanCost float64
}

// formPairs returns aggregate pairs connected by channels, highest
// traffic first.
func (b *builder) formPairs(aggs []*Aggregate) []pair {
	idx := map[string]*Aggregate{}
	for _, a := range aggs {
		for _, f := range a.PPFs {
			idx[f] = a
		}
	}
	total := float64(b.weights.Packets)
	costs := map[[2]*Aggregate]float64{}
	for id, msgs := range b.weights.Chans {
		ch := b.prog.Types.ChanByID[id]
		if msgs == 0 || ch.Consumer == "tx" {
			continue
		}
		cons := idx[ch.Consumer]
		if cons == nil {
			continue
		}
		for _, fn := range b.prog.Funcs {
			if fn.Kind != ir.FuncPPF {
				continue
			}
			prod := idx[fn.Name]
			if prod == nil || prod == cons {
				continue
			}
			if putsTo(fn, ch) {
				key := [2]*Aggregate{prod, cons}
				costs[key] += float64(msgs) / total * b.cfg.ChannelCost
			}
		}
	}
	var pairs []pair
	for k, c := range costs {
		pairs = append(pairs, pair{a: k[0], b: k[1], chanCost: c})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].chanCost != pairs[j].chanCost {
			return pairs[i].chanCost > pairs[j].chanCost
		}
		if pairs[i].a.ID != pairs[j].a.ID {
			return pairs[i].a.ID < pairs[j].a.ID
		}
		return pairs[i].b.ID < pairs[j].b.ID
	})
	return pairs
}

func putsTo(fn *ir.Func, ch *types.Channel) bool {
	for _, blk := range fn.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == ir.OpChanPut && in.Chan == ch {
				return true
			}
		}
	}
	return false
}

func (b *builder) mergedCandidate(pr pair) *Aggregate {
	m := &Aggregate{
		ID:     pr.a.ID,
		PPFs:   append(append([]string(nil), pr.a.PPFs...), pr.b.PPFs...),
		Dup:    1,
		Weight: pr.a.Weight + pr.b.Weight,
	}
	b.refresh(m, nil)
	return m
}

// ---------------------------------------------------------------------------
// Code size estimation

// Per-op code generation expansion estimates (CGIR instructions per IR
// op). Packet accesses dominate: an access with an unknown offset costs
// the paper's "38 + 5·size" instructions; a statically resolved one a
// handful.
const (
	sizeALU            = 1
	sizeBranch         = 2
	sizeCall           = 3
	sizeGlobalAccess   = 4
	sizePktAccessKnown = 6
	sizePktAccessDyn   = 40
	sizeMetaAccess     = 4
	sizeEncapDyn       = 6
	sizeChanPut        = 10
	sizeMisc           = 4
)

// EstimateCodeSize predicts the post-codegen instruction count of f,
// consulting SOAR annotations when present.
func EstimateCodeSize(f *ir.Func) int {
	size := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpBr, ir.OpCondBr, ir.OpRet:
				size += sizeBranch
			case ir.OpCall:
				size += sizeCall
			case ir.OpLoad, ir.OpStore:
				size += sizeGlobalAccess + maxInt(len(in.Dst), len(in.Args))
			case ir.OpPktLoad, ir.OpPktStore:
				if in.StaticOff != ir.UnknownOff {
					size += sizePktAccessKnown + in.Width/4
				} else {
					size += sizePktAccessDyn + in.Width/4
				}
			case ir.OpMetaLoad, ir.OpMetaStore:
				size += sizeMetaAccess
			case ir.OpEncap, ir.OpDecap:
				size += sizeEncapDyn
			case ir.OpChanPut:
				size += sizeChanPut
			case ir.OpPktCopy, ir.OpPktCreate, ir.OpPktDrop,
				ir.OpAddTail, ir.OpRemoveTail, ir.OpPktLength,
				ir.OpLockAcquire, ir.OpLockRelease,
				ir.OpCacheLookup, ir.OpCacheFill, ir.OpCacheFlush:
				size += sizeMisc
			default:
				size += sizeALU
			}
		}
	}
	return size
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
