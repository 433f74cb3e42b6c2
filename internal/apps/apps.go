// Package apps contains the three benchmark applications of the paper's
// evaluation (§6.1) written in Baker — L3-Switch, MPLS and Firewall —
// together with their control-plane table setup and synthetic NPF-style
// traffic generators (the substitution for the NPF benchmark traces and
// the IXIA generator; see DESIGN.md).
package apps

import (
	"fmt"

	"shangrila/internal/baker/types"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
	"shangrila/internal/trace"
	"shangrila/internal/workload"
)

// App bundles one benchmark application.
type App struct {
	// Name identifies the app ("l3switch", "mpls", "firewall").
	Name string
	// Source is the Baker program text.
	Source string
	// Controls returns the control-plane calls that populate the app's
	// tables (routes, labels, rules); they run both at profile time and
	// at runtime boot.
	Controls []profiler.Control
	// Traffic declares the app's input-traffic mix; Trace renders it.
	// Hand-written and generated apps use the same spec type, so both
	// are first-class citizens of every experiment.
	Traffic TraceSpec
	// MinForwardFraction is the fraction of trace packets expected to be
	// forwarded (used by integration tests as a sanity band).
	MinForwardFraction float64
	// Churn names the policy items the control-plane churn experiment
	// flips at runtime (see ChurnPolicy).
	Churn *ChurnPolicy
}

// Trace generates n packets exercising the app's hot paths with the
// mix declared by Traffic.
func (a *App) Trace(tp *types.Program, seed uint64, n int) []*packet.Packet {
	return a.Traffic.Generate(tp, seed, n)
}

// All returns the three benchmark applications.
func All() []*App {
	return []*App{L3Switch(), MPLS(), Firewall()}
}

// ByName returns the benchmark application called name; the error for
// any other name lists the valid ones.
func ByName(name string) (*App, error) {
	var names []string
	for _, a := range All() {
		if a.Name == name {
			return a, nil
		}
		names = append(names, a.Name)
	}
	return nil, fmt.Errorf("unknown app %q (valid: %v)", name, names)
}

// common protocol prelude shared by the applications. MAC addresses are
// split into 16-bit and 32-bit halves: Baker targets a 32-bit machine, so
// fields wider than one word must be declared split (and the split halves
// are exactly what PAC recombines into single wide accesses).
const protoPrelude = `
protocol ether {
    dst_hi : 16;
    dst_lo : 32;
    src_hi : 16;
    src_lo : 32;
    type   : 16;
    demux { 14 };
}

protocol ipv4 {
    ver    : 4;
    hlen   : 4;
    tos    : 8;
    length : 16;
    id     : 16;
    flags  : 3;
    frag   : 13;
    ttl    : 8;
    proto  : 8;
    cksum  : 16;
    src    : 32;
    dst    : 32;
    demux { hlen << 2 };
}

protocol mpls {
    label : 20;
    exp   : 3;
    s     : 1;
    mttl  : 8;
    demux { 4 };
}

protocol l4 {
    sport : 16;
    dport : 16;
    demux { 4 };
}

// ipv4tcp is the option-less IPv4+L4 fast-path view: when hlen == 5 the
// transport ports sit at fixed offsets, so the whole 5-tuple is one
// statically-resolved header (real ME code uses exactly this trick; the
// rare option-carrying packets take the slow path).
protocol ipv4tcp {
    ver    : 4;
    hlen   : 4;
    tos    : 8;
    length : 16;
    id     : 16;
    flags  : 3;
    frag   : 13;
    ttl    : 8;
    proto  : 8;
    cksum  : 16;
    src    : 32;
    dst    : 32;
    sport  : 16;
    dport  : 16;
    demux { 24 };
}

protocol arp {
    htype : 16;
    ptype : 16;
    hlen8 : 8;
    plen8 : 8;
    op    : 16;
    demux { 28 };
}

metadata {
    rx_port  : 8;
    tx_port  : 8;
    next_hop : 16;
    flow_id  : 16;
}

const ETH_IP   = 0x0800;
const ETH_ARP  = 0x0806;
const ETH_MPLS = 0x8847;
`

// The header shapes the generators write, each field list in the order
// its values are drawn. They are declarations, never written; a trace
// resolves each once (Gen.Header).
var (
	etherShape = &trace.Shape{Proto: "ether",
		Fields: []string{"dst_hi", "dst_lo", "src_hi", "src_lo", "type"}}
	ipShape = &trace.Shape{Proto: "ipv4", Size: 20,
		Fields: []string{"ver", "hlen", "length", "ttl", "proto", "cksum", "src", "dst"}}
	// ipShortShape is the inner header of bridged and labelled frames.
	ipShortShape = &trace.Shape{Proto: "ipv4", Size: 20,
		Fields: []string{"ver", "hlen", "ttl", "dst"}}
	ipSrcShape = &trace.Shape{Proto: "ipv4", Size: 20, Fields: []string{"src"}}
	l4Shape    = &trace.Shape{Proto: "l4", Fields: []string{"sport", "dport"}}
)

// buildIP constructs an Ethernet/IPv4(/L4) frame.
func buildIP(g *Gen, r *workload.Source, dstMACHi, dstMACLo, dstIP uint32,
	proto uint32, sport, dport uint32, withL4 bool) *packet.Packet {
	p := g.Packet(frameLen)
	w := p.Bytes()
	eth, ip := g.Header(etherShape), g.Header(ipShape)
	eth.Put(w, 0, dstMACHi, dstMACLo, 0x0002, r.Uint32(), 0x0800)
	ip.Put(w, eth.Size, 4, 5, 46, 32+uint32(r.Intn(32)), proto, r.Uint32()&0xffff, r.Uint32(), dstIP)
	if withL4 {
		g.Header(l4Shape).Put(w, eth.Size+ip.Size, sport, dport)
	}
	p.Port = uint32(r.Intn(3))
	return p
}
