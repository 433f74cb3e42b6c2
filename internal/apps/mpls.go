package apps

import (
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
	"shangrila/internal/trace"
	"shangrila/internal/workload"
)

// MPLS label operations stored in the incoming-label map (ILM).
const (
	mplsOpSwap = 1
	mplsOpPop  = 2
	mplsOpPush = 3
)

// mplsSrc is the Baker MPLS forwarder of §6.1: packets are routed by
// labels rather than destination IPs (RFC 3031). The LSR data path swaps,
// pops and pushes labels; at the edge (LER), unlabeled IP packets are
// classified into a FEC and get an initial label imposed. Label stacks of
// arbitrary depth pop through a loopback channel — the paper's Figure 9
// case whose offsets SOAR cannot resolve statically.
const mplsSrc = protoPrelude + `
module mplsapp {
    // Incoming label map: op + outgoing label + next hop, indexed by the
    // low bits of the label (labels are allocated to match).
    struct ILM { op:uint; out:uint; nh:uint; }
    ILM ilm[1024];

    // FEC table for label imposition at the edge: prefix match by exact
    // /16 on the destination (a simplified FEC classifier).
    struct FEC { net:uint; label:uint; nh:uint; }
    FEC fec[64];

    struct Neigh { machi:uint; maclo:uint; port:uint; }
    Neigh neighbors[256];

    uint swapped;
    uint popped;
    uint pushed;
    uint imposed;
    uint no_ilm;
    uint no_fec;

    channel mpls_cc  : mpls;
    channel ip_cc    : ipv4;
    channel ipexit_cc : ipv4;
    channel encap_cc : ether;
    channel out_cc   : ether;

    ppf eth_clsfr(ether ph) {
        uint ty = ph->type;
        if (ty == ETH_MPLS) {
            mpls mh = packet_decap(ph);
            channel_put(mpls_cc, mh);
        } else {
            if (ty == ETH_IP) {
                ipv4 iph = packet_decap(ph);
                channel_put(ip_cc, iph);
            } else {
                packet_drop(ph);
            }
        }
    }

    // mpls_fwdr: one label operation per visit; a pop with more labels
    // below re-enters through the mpls_cc loopback.
    ppf mpls_fwdr(mpls ph) {
        uint label = ph->label;
        uint ttl = ph->mttl;
        if (ttl < 2) {
            no_ilm += 1;
            packet_drop(ph);
        } else {
            uint idx = label & 1023;
            uint op = ilm[idx].op;
            if (op == 1) {
                // Swap: rewrite label in place, decrement TTL, ship.
                ph->label = ilm[idx].out;
                ph->mttl = ttl - 1;
                ph->meta.next_hop = ilm[idx].nh;
                swapped += 1;
                ether eph = packet_encap(ph);
                channel_put(encap_cc, eph);
            } else {
                if (op == 2) {
                    popped += 1;
                    if (ph->s == 1) {
                        // Bottom of stack: the payload is IPv4.
                        ipv4 iph = packet_decap(ph);
                        channel_put(ipexit_cc, iph);
                    } else {
                        mpls inner = packet_decap(ph);
                        channel_put(mpls_cc, inner);
                    }
                } else {
                    if (op == 3) {
                        // Push: impose an extra label above this one.
                        ph->mttl = ttl - 1;
                        mpls outer = packet_encap(ph);
                        outer->label = ilm[idx].out;
                        outer->exp = 0;
                        outer->s = 0;
                        outer->mttl = ttl - 1;
                        outer->meta.next_hop = ilm[idx].nh;
                        pushed += 1;
                        ether eph = packet_encap(outer);
                        channel_put(encap_cc, eph);
                    } else {
                        no_ilm += 1;
                        packet_drop(ph);
                    }
                }
            }
        }
    }

    // ler_impose: edge behaviour for unlabeled IP traffic — classify by
    // FEC and push the initial label.
    ppf ler_impose(ipv4 ph) {
        uint dst = ph->dst;
        uint net = dst >> 16;
        uint found = 0;
        uint lab = 0;
        uint nh = 0;
        for (uint i = 0; i < 64; i++) {
            if (fec[i].net == net) {
                lab = fec[i].label;
                nh = fec[i].nh;
                found = 1;
                break;
            }
        }
        if (found == 0) {
            no_fec += 1;
            packet_drop(ph);
        } else {
            mpls mh = packet_encap(ph);
            mh->label = lab;
            mh->exp = 0;
            mh->s = 1;
            mh->mttl = 64;
            mh->meta.next_hop = nh;
            imposed += 1;
            ether eph = packet_encap(mh);
            channel_put(encap_cc, eph);
        }
    }

    // ip_exit: label popped to bottom; hand the bare IP packet onward.
    ppf ip_exit(ipv4 ph) {
        uint ttl = ph->ttl;
        if (ttl < 2) {
            no_ilm += 1;
            packet_drop(ph);
        } else {
            ph->ttl = ttl - 1;
            uint sum = ph->cksum + 0x0100;
            sum = (sum & 0xffff) + (sum >> 16);
            ph->cksum = sum;
            ph->meta.next_hop = 9;
            ether eph = packet_encap(ph);
            channel_put(encap_cc, eph);
        }
    }

    ppf eth_encap(ether ph) {
        uint nh = ph->meta.next_hop;
        ph->dst_hi = neighbors[nh].machi;
        ph->dst_lo = neighbors[nh].maclo;
        ph->src_hi = 0x0a00;
        ph->src_lo = 0x5e000000;
        ph->type = ETH_MPLS;
        ph->meta.tx_port = neighbors[nh].port;
        channel_put(out_cc, ph);
    }

    control func add_ilm(uint idx, uint op, uint out, uint nh) {
        ilm[idx].op = op;
        ilm[idx].out = out;
        ilm[idx].nh = nh;
    }

    control func add_fec(uint idx, uint net, uint label, uint nh) {
        fec[idx].net = net;
        fec[idx].label = label;
        fec[idx].nh = nh;
    }

    control func add_neighbor(uint nh, uint machi, uint maclo, uint port) {
        neighbors[nh].machi = machi;
        neighbors[nh].maclo = maclo;
        neighbors[nh].port  = port;
    }

    wiring {
        rx -> eth_clsfr;
        mpls_cc -> mpls_fwdr;
        ip_cc -> ler_impose;
        ipexit_cc -> ip_exit;
        encap_cc -> eth_encap;
        out_cc -> tx;
    }
}
`

// MPLS label plan: labels 16..47 swap, 48..63 pop, 64..71 push.
type mplsLabels struct {
	swap []uint32
	pop  []uint32
	push []uint32
}

var mplsPlan = mplsLabels{
	swap: []uint32{16, 17, 18, 19, 20, 21, 22, 23},
	pop:  []uint32{48, 49, 50, 51},
	push: []uint32{64, 65},
}

var mplsFECNets = []uint32{0x0a01, 0x0a02, 0xc0a8, 0xac10}

// MPLS builds the MPLS benchmark. Traffic mix: ~55% labeled transit
// (swap), ~20% pop (half of them multi-label stacks that loop back),
// ~8% push, ~17% unlabeled IP hitting the FEC classifier.
func MPLS() *App {
	var controls []profiler.Control
	for _, l := range mplsPlan.swap {
		controls = append(controls, profiler.Control{Name: "mplsapp.add_ilm",
			Args: []uint32{l & 1023, mplsOpSwap, l + 100, 1 + l%4}})
	}
	for _, l := range mplsPlan.pop {
		controls = append(controls, profiler.Control{Name: "mplsapp.add_ilm",
			Args: []uint32{l & 1023, mplsOpPop, 0, 0}})
	}
	for _, l := range mplsPlan.push {
		controls = append(controls, profiler.Control{Name: "mplsapp.add_ilm",
			Args: []uint32{l & 1023, mplsOpPush, l + 200, 5 + l%2}})
	}
	for i, net := range mplsFECNets {
		controls = append(controls, profiler.Control{Name: "mplsapp.add_fec",
			Args: []uint32{uint32(i), net, 300 + uint32(i), 7}})
	}
	for nh := uint32(1); nh <= 9; nh++ {
		controls = append(controls, profiler.Control{Name: "mplsapp.add_neighbor",
			Args: []uint32{nh, 0x0cc0, 0x22000000 + nh, nh % 3}})
	}
	return &App{
		Name:               "mpls",
		Source:             mplsSrc,
		Controls:           controls,
		Traffic:            mplsTraffic(),
		MinForwardFraction: 0.9,
		Churn:              mplsChurn(),
	}
}

// mplsShape is one label stack entry.
var mplsShape = &trace.Shape{Proto: "mpls", Fields: []string{"label", "exp", "s", "mttl"}}

func buildMPLS(g *Gen, r *workload.Source, labels []uint32, innerTTL uint32) *packet.Packet {
	p := g.Packet(frameLen)
	w := p.Bytes()
	eth, shim := g.Header(etherShape), g.Header(mplsShape)
	eth.Put(w, 0, 0x0a00, 0x5e000000, 0x0002, r.Uint32(), 0x8847)
	base := eth.Size
	for i, l := range labels {
		s := uint32(0)
		if i == len(labels)-1 {
			s = 1
		}
		shim.Put(w, base, l, 0, s, 33)
		base += shim.Size
	}
	g.Header(ipShortShape).Put(w, base, 4, 5, innerTTL,
		r.AddrInPrefix(trace.Prefix{Addr: 0x0a010000, Len: 16}))
	p.Port = uint32(r.Intn(3))
	return p
}

// mplsTraffic declares the MPLS mix as weighted cases; the single
// per-packet selection roll and cumulative boundaries reproduce the
// historical switch exactly.
func mplsTraffic() TraceSpec {
	return TraceSpec{Cases: []TraceCase{
		{Name: "swap", Weight: 55, // transit swap
			Build: func(g *Gen, r *workload.Source, i int) *packet.Packet {
				l := mplsPlan.swap[r.Intn(len(mplsPlan.swap))]
				return buildMPLS(g, r, []uint32{l}, 19)
			}},
		{Name: "pop", Weight: 10, // single pop to IP exit
			Build: func(g *Gen, r *workload.Source, i int) *packet.Packet {
				l := mplsPlan.pop[r.Intn(len(mplsPlan.pop))]
				return buildMPLS(g, r, []uint32{l}, 19)
			}},
		{Name: "stacked-pop", Weight: 10, // outer pop(s), then a swap below
			Build: func(g *Gen, r *workload.Source, i int) *packet.Packet {
				depth := 1 + r.Intn(2)
				labels := make([]uint32, 0, 3)
				for d := 0; d < depth; d++ {
					labels = append(labels, mplsPlan.pop[r.Intn(len(mplsPlan.pop))])
				}
				labels = append(labels, mplsPlan.swap[r.Intn(len(mplsPlan.swap))])
				return buildMPLS(g, r, labels, 19)
			}},
		{Name: "push", Weight: 8,
			Build: func(g *Gen, r *workload.Source, i int) *packet.Packet {
				l := mplsPlan.push[r.Intn(len(mplsPlan.push))]
				return buildMPLS(g, r, []uint32{l}, 19)
			}},
		{Name: "fec", Weight: 17, // unlabeled IP -> FEC imposition
			Build: func(g *Gen, r *workload.Source, i int) *packet.Packet {
				net := mplsFECNets[r.Intn(len(mplsFECNets))]
				dst := net<<16 | (r.Uint32() & 0xffff)
				return buildIP(g, r, 0x0a00, 0x5e000000, dst, 6, 0, 0, false)
			}},
	}}
}
