package apps

import (
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
	"shangrila/internal/trace"
	"shangrila/internal/workload"
)

// l3switchSrc is the Baker L3-Switch of §6.1: it bridges and routes IP
// packets. The critical path is the longest-prefix-match route lookup
// over a binary trie in SRAM; bridging uses a learning MAC table; ARP
// packets take the (rare) control path that aggregation maps to the
// XScale. The structure mirrors the paper's Figure 1 module diagram.
const l3switchSrc = protoPrelude + `
module l3switch {
    // Per-port router MAC addresses (hi16/lo32 halves).
    uint macs_hi[8];
    uint macs_lo[8];

    // LPM lookup: a 16-8 multibit trie, the classic network-processor
    // route structure. lpm16 is indexed by the top 16 address bits; an
    // entry either holds a next hop directly or points (high bit set) at
    // a 256-entry chunk indexed by the next 8 bits. Prefixes longer than
    // /24 are not used by the benchmark tables.
    uint lpm16[65536];
    uint lpm8[16384];
    uint next_chunk;

    // Next-hop neighbor table: MAC and output port per next-hop id.
    struct Neigh { machi:uint; maclo:uint; port:uint; }
    Neigh neighbors[256];

    // Learning bridge: direct-mapped MAC table hashed on the low bits.
    struct MacEnt { machi:uint; maclo:uint; port:uint; }
    MacEnt macs[256];

    // Counters.
    uint arp_seen;
    uint bad_ip;
    uint no_route;
    uint bridged;
    uint routed;
    uint flooded;

    channel arp_cc    : arp;
    channel l3_cc     : ipv4;
    channel bridge_cc : ether;
    channel encap_cc  : ether;
    channel out_cc    : ether;

    // l2_clsfr (Figure 2): ARP to the slow path; frames addressed to the
    // router MAC of the ingress port are routed; everything else bridges.
    ppf l2_clsfr(ether ph) {
        uint port = ph->meta.rx_port;
        uint d_hi = ph->dst_hi;
        uint d_lo = ph->dst_lo;
        uint ty   = ph->type;
        if (ty == ETH_ARP) {
            arp ah = packet_decap(ph);
            channel_put(arp_cc, ah);
        } else {
            if (ty == ETH_IP && d_hi == macs_hi[port] && d_lo == macs_lo[port]) {
                ipv4 iph = packet_decap(ph);
                channel_put(l3_cc, iph);
            } else {
                channel_put(bridge_cc, ph);
            }
        }
    }

    // l3_fwdr: validate, longest-prefix match, TTL + checksum rewrite.
    ppf l3_fwdr(ipv4 ph) {
        uint ver = ph->ver;
        uint ttl = ph->ttl;
        uint ck  = ph->cksum;
        uint dst = ph->dst;
        if (ver != 4 || ttl < 2) {
            bad_ip += 1;
            packet_drop(ph);
        } else {
            uint e = lpm16[dst >> 16];
            if ((e & 0x80000000) != 0) {
                uint chunk = e & 0x7fffffff;
                e = lpm8[(chunk << 8) | ((dst >> 8) & 255)];
            }
            uint best = e;
            if (best == 0) {
                no_route += 1;
                packet_drop(ph);
            } else {
                ph->ttl = ttl - 1;
                // RFC 1624 incremental checksum update for the TTL change.
                uint sum = ck + 0x0100;
                sum = (sum & 0xffff) + (sum >> 16);
                ph->cksum = sum;
                ph->meta.next_hop = best;
                routed += 1;
                ether eph = packet_encap(ph);
                channel_put(encap_cc, eph);
            }
        }
    }

    // l2_bridge: learn the source, look up the destination, flood on miss.
    ppf l2_bridge(ether ph) {
        uint s_hi = ph->src_hi;
        uint s_lo = ph->src_lo;
        uint port = ph->meta.rx_port;
        uint sidx = s_lo & 255;
        // MAC learning tolerates racy updates (a stale or torn entry only
        // misdirects a frame until the next packet relearns it — the same
        // error-tolerance argument as §5.2's delayed-update cache), so no
        // critical section guards the table.
        macs[sidx].machi = s_hi;
        macs[sidx].maclo = s_lo;
        macs[sidx].port  = port;
        uint d_hi = ph->dst_hi;
        uint d_lo = ph->dst_lo;
        uint didx = d_lo & 255;
        uint ohi = macs[didx].machi;
        uint olo = macs[didx].maclo;
        if (ohi == d_hi && olo == d_lo) {
            ph->meta.tx_port = macs[didx].port;
            bridged += 1;
        } else {
            ph->meta.tx_port = 7;  // flood port
            flooded += 1;
        }
        ph->meta.next_hop = 0;
        channel_put(out_cc, ph);
    }

    // eth_encap: rewrite the Ethernet header from the neighbor table.
    ppf eth_encap(ether ph) {
        uint nh = ph->meta.next_hop;
        ph->dst_hi = neighbors[nh].machi;
        ph->dst_lo = neighbors[nh].maclo;
        ph->src_hi = macs_hi[neighbors[nh].port];
        ph->src_lo = macs_lo[neighbors[nh].port];
        ph->meta.tx_port = neighbors[nh].port;
        channel_put(out_cc, ph);
    }

    // arp_handler: control path; counts requests (a full implementation
    // would synthesize replies via packet_create).
    ppf arp_handler(arp ph) {
        uint op = ph->op;
        if (op == 1 || op == 2) {
            critical { arp_seen += 1; }
        }
        packet_drop(ph);
    }

    // Control plane.
    control func set_port_mac(uint port, uint hi, uint lo) {
        macs_hi[port] = hi;
        macs_lo[port] = lo;
    }

    // add_route installs a prefix into the multibit trie. Longer prefixes
    // must be added after the shorter ones they refine (the benchmark
    // tables are ordered that way), matching how a routing daemon pushes
    // a sorted RIB.
    control func add_route(uint prefix, uint plen, uint nh) {
        if (plen <= 16) {
            uint base = prefix >> 16;
            uint span = 1 << (16 - plen);
            for (uint i = 0; i < span; i++) {
                lpm16[base + i] = nh;
            }
        } else {
            uint idx16 = prefix >> 16;
            uint e = lpm16[idx16];
            uint chunk = 0;
            if ((e & 0x80000000) != 0) {
                chunk = e & 0x7fffffff;
            } else {
                next_chunk += 1;
                chunk = next_chunk;
                // Seed the chunk with the covering shorter prefix.
                for (uint j = 0; j < 256; j++) {
                    lpm8[(chunk << 8) | j] = e;
                }
                lpm16[idx16] = 0x80000000 | chunk;
            }
            uint base8 = (prefix >> 8) & 255;
            uint span8 = 1 << (24 - plen);
            for (uint k = 0; k < span8; k++) {
                lpm8[(chunk << 8) | (base8 + k)] = nh;
            }
        }
    }

    control func add_neighbor(uint nh, uint machi, uint maclo, uint port) {
        neighbors[nh].machi = machi;
        neighbors[nh].maclo = maclo;
        neighbors[nh].port  = port;
    }

    wiring {
        rx -> l2_clsfr;
        arp_cc -> arp_handler;
        l3_cc -> l3_fwdr;
        bridge_cc -> l2_bridge;
        encap_cc -> eth_encap;
        out_cc -> tx;
    }
}
`

// l3Routes is the installed route set: a handful of hot prefixes (so the
// 16-entry software cache sees a high hit rate, as the paper's SWC
// candidates do) plus cold ones.
var l3Routes = []trace.Prefix{
	{Addr: 0x0a000000, Len: 8, NextHop: 1},  // 10/8
	{Addr: 0x0a010000, Len: 16, NextHop: 2}, // 10.1/16 (longer match inside 10/8)
	{Addr: 0xc0a80000, Len: 16, NextHop: 3}, // 192.168/16
	{Addr: 0xc0a80100, Len: 24, NextHop: 4}, // 192.168.1/24
	{Addr: 0xac100000, Len: 12, NextHop: 5}, // 172.16/12
	{Addr: 0x08080800, Len: 24, NextHop: 6},
	{Addr: 0x01010100, Len: 24, NextHop: 7},
	{Addr: 0x63000000, Len: 8, NextHop: 8},
}

// l3HotDsts are the hot destination addresses carrying ~70% of traffic.
var l3HotDsts = []uint32{
	0x0a0101aa, 0x0a0102bb, 0xc0a80105, 0xc0a80177,
	0xac101234, 0x08080801, 0x0a333333, 0x63051122,
}

// routerMAC returns the router MAC halves for a port.
func routerMAC(port uint32) (hi, lo uint32) {
	return 0x0a00, 0x5e000000 | port
}

// L3Switch builds the L3-Switch benchmark. Traffic mix: ~84% routed IP
// (destinations drawn from the installed prefixes, hot-prefix skewed),
// ~15% bridged frames, ~0.5% ARP (the XScale path).
func L3Switch() *App {
	controls := []profiler.Control{}
	for port := uint32(0); port < 8; port++ {
		hi, lo := routerMAC(port)
		controls = append(controls, profiler.Control{
			Name: "l3switch.set_port_mac", Args: []uint32{port, hi, lo}})
	}
	for _, rt := range l3Routes {
		controls = append(controls, profiler.Control{
			Name: "l3switch.add_route",
			Args: []uint32{rt.Addr, uint32(rt.Len), rt.NextHop}})
	}
	for nh := uint32(1); nh <= 8; nh++ {
		controls = append(controls, profiler.Control{
			Name: "l3switch.add_neighbor",
			Args: []uint32{nh, 0x0bb0, 0x11000000 + nh, nh % 3}})
	}
	return &App{
		Name:               "l3switch",
		Source:             l3switchSrc,
		Controls:           controls,
		Traffic:            l3Traffic(),
		MinForwardFraction: 0.9,
		Churn:              l3Churn(),
	}
}

// arpShape is the ARP request header of the control-path case.
var arpShape = &trace.Shape{Proto: "arp", Fields: []string{"htype", "ptype", "op"}}

// l3Traffic declares the L3-Switch mix: every 200th packet an ARP
// (control path), every 7th-mod-3 a bridged frame, the rest routed IP.
func l3Traffic() TraceSpec {
	return TraceSpec{Cases: []TraceCase{
		{Name: "arp", Every: 200, Offset: 199,
			Build: func(g *Gen, r *workload.Source, i int) *packet.Packet {
				p := g.Packet(frameLen)
				w := p.Bytes()
				eth := g.Header(etherShape)
				eth.Put(w, 0, 0xffff, 0xffffffff, 0x0002, r.Uint32(), 0x0806)
				g.Header(arpShape).Put(w, eth.Size, 1, 0x0800, 1)
				p.Port = uint32(r.Intn(3))
				return p
			}},
		{Name: "bridged", Every: 7, Offset: 3, // dst MAC != router MAC
			Build: func(g *Gen, r *workload.Source, i int) *packet.Packet {
				p := g.Packet(frameLen)
				w := p.Bytes()
				eth := g.Header(etherShape)
				eth.Put(w, 0, 0x0002, uint32(r.Intn(64)), 0x0002, uint32(r.Intn(64)), 0x0800)
				g.Header(ipShortShape).Put(w, eth.Size, 4, 5, 17, r.Uint32())
				p.Port = uint32(r.Intn(3))
				return p
			}},
		// Routed IP: destination inside an installed prefix. Most traffic
		// belongs to a handful of hot flows (the skew that makes route
		// entries cacheable, §5.2); the tail spreads across the full table.
		{Name: "routed", Weight: 1,
			Build: func(g *Gen, r *workload.Source, i int) *packet.Packet {
				var dst uint32
				if r.Intn(10) < 7 {
					dst = l3HotDsts[r.Intn(len(l3HotDsts))]
				} else {
					dst = r.AddrInPrefix(l3Routes[r.Intn(len(l3Routes))])
				}
				port := uint32(r.Intn(3))
				hi, lo := routerMAC(port)
				p := buildIP(g, r, hi, lo, dst, 6, 0, 0, false)
				p.Port = port
				return p
			}},
	}}
}
