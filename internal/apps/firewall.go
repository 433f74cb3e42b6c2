package apps

import (
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
	"shangrila/internal/workload"
)

// Firewall rule actions.
const (
	fwActionDeny  = 0
	fwActionAllow = 1
)

// firewallSrc is the Baker Firewall of §6.1: a classifier attaches flow
// ids by matching source/destination IPs, ports, protocol and TOS against
// an ordered list of user-defined patterns (first match wins); selected
// flows are dropped. Allowed packets forward through a small next-hop
// table.
const firewallSrc = protoPrelude + `
module firewall {
    // Ordered rule list (the paper's pattern classifier): masked IP
    // matches, port ranges, protocol and TOS wildcard via mask 0.
    struct Rule {
        valid:uint;
        src:uint;  smask:uint;
        dst:uint;  dmask:uint;
        sportlo:uint; sporthi:uint;
        dportlo:uint; dporthi:uint;
        proto:uint;   pmask:uint;
        tos:uint;     tmask:uint;
        action:uint;  nh:uint;
    }
    Rule rules[64];
    uint nrules;

    struct Neigh { machi:uint; maclo:uint; port:uint; }
    Neigh neighbors[16];

    uint allowed;
    uint denied;
    uint unmatched;
    uint non_ip;

    channel ip_cc    : ipv4tcp;
    channel slow_cc  : ipv4;
    channel fwd_cc   : ipv4tcp;
    channel out_cc   : ether;

    uint slowpath;

    // eth_clsfr: the firewall is transparent (bump-in-the-wire); the
    // option-less fast path (hlen == 5, the overwhelming majority) uses
    // the statically-laid-out ipv4tcp view, options go to the slow path.
    ppf eth_clsfr(ether ph) {
        if (ph->type == ETH_IP) {
            ipv4tcp iph = packet_decap(ph);
            if (iph->ver == 4 && iph->hlen == 5) {
                channel_put(ip_cc, iph);
            } else {
                ipv4 sph = packet_decap(ph);
                channel_put(slow_cc, sph);
            }
        } else {
            non_ip += 1;
            packet_drop(ph);
        }
    }

    // slow_path: option-carrying packets (rare) are policy-dropped on the
    // control processor.
    ppf slow_path(ipv4 ph) {
        critical { slowpath += 1; }
        packet_drop(ph);
    }

    // classify: walk the ordered rule list; first match decides.
    ppf classify(ipv4tcp ph) {
        uint src = ph->src;
        uint dst = ph->dst;
        uint proto = ph->proto;
        uint tos = ph->tos;
        uint sport = ph->sport;
        uint dport = ph->dport;
        ipv4tcp iph = ph;

        uint matched = 0;
        uint action = 0;
        uint nh = 0;
        uint fid = 0;
        uint n = nrules;
        for (uint i = 0; i < n; i++) {
            if (rules[i].valid == 1) {
                uint okSrc = ((src & rules[i].smask) == rules[i].src);
                uint okDst = ((dst & rules[i].dmask) == rules[i].dst);
                uint okSp = (sport >= rules[i].sportlo && sport <= rules[i].sporthi);
                uint okDp = (dport >= rules[i].dportlo && dport <= rules[i].dporthi);
                uint okPr = ((proto & rules[i].pmask) == rules[i].proto);
                uint okTos = ((tos & rules[i].tmask) == rules[i].tos);
                if (okSrc != 0 && okDst != 0 && okSp != 0 && okDp != 0 && okPr != 0 && okTos != 0) {
                    matched = 1;
                    action = rules[i].action;
                    nh = rules[i].nh;
                    fid = i + 1;
                    break;
                }
            }
        }
        if (matched == 0) {
            // Default deny.
            unmatched += 1;
            packet_drop(iph);
        } else {
            if (action == 0) {
                denied += 1;
                packet_drop(iph);
            } else {
                iph->meta.flow_id = fid;
                iph->meta.next_hop = nh;
                channel_put(fwd_cc, iph);
            }
        }
    }

    // forward: the firewall is transparent — allowed packets pass
    // unmodified to the egress port chosen by the matching rule.
    ppf forward(ipv4tcp ph) {
        allowed += 1;
        ph->meta.tx_port = neighbors[ph->meta.next_hop & 15].port;
        ether eph = packet_encap(ph);
        channel_put(out_cc, eph);
    }

    control func add_rule(uint idx, uint src, uint smask, uint dst, uint dmask,
                          uint sportlo, uint sporthi, uint dportlo, uint dporthi,
                          uint proto, uint action, uint nh) {
        rules[idx].src = src;
        rules[idx].smask = smask;
        rules[idx].dst = dst;
        rules[idx].dmask = dmask;
        rules[idx].sportlo = sportlo;
        rules[idx].sporthi = sporthi;
        rules[idx].dportlo = dportlo;
        rules[idx].dporthi = dporthi;
        rules[idx].proto = proto;
        rules[idx].pmask = 0xff;
        rules[idx].tos = 0;
        rules[idx].tmask = 0;
        rules[idx].action = action;
        rules[idx].nh = nh;
        rules[idx].valid = 1;
        if (idx >= nrules) { nrules = idx + 1; }
    }

    control func add_neighbor(uint nh, uint machi, uint maclo, uint port) {
        neighbors[nh].machi = machi;
        neighbors[nh].maclo = maclo;
        neighbors[nh].port  = port;
    }

    wiring {
        rx -> eth_clsfr;
        ip_cc -> classify;
        slow_cc -> slow_path;
        fwd_cc -> forward;
        out_cc -> tx;
    }
}
`

// fwRule mirrors the installed rules for trace generation.
type fwRule struct {
	src, smask, dst, dmask             uint32
	sportlo, sporthi, dportlo, dporthi uint32
	proto                              uint32
	action                             uint32
	nh                                 uint32
}

var fwRules = []fwRule{
	// Allow internal web traffic.
	{src: 0x0a000000, smask: 0xff000000, dst: 0xc0a80000, dmask: 0xffff0000,
		sportlo: 1024, sporthi: 65535, dportlo: 80, dporthi: 80, proto: 6, action: fwActionAllow, nh: 1},
	// Allow DNS.
	{src: 0x0a000000, smask: 0xff000000, dst: 0x08080808, dmask: 0xffffffff,
		sportlo: 1024, sporthi: 65535, dportlo: 53, dporthi: 53, proto: 17, action: fwActionAllow, nh: 2},
	// Deny telnet anywhere.
	{src: 0, smask: 0, dst: 0, dmask: 0,
		sportlo: 0, sporthi: 65535, dportlo: 23, dporthi: 23, proto: 6, action: fwActionDeny, nh: 0},
	// Allow established high ports back in.
	{src: 0xc0a80000, smask: 0xffff0000, dst: 0x0a000000, dmask: 0xff000000,
		sportlo: 80, sporthi: 80, dportlo: 1024, dporthi: 65535, proto: 6, action: fwActionAllow, nh: 3},
	// Allow SSH to the bastion.
	{src: 0, smask: 0, dst: 0x0a000001, dmask: 0xffffffff,
		sportlo: 0, sporthi: 65535, dportlo: 22, dporthi: 22, proto: 6, action: fwActionAllow, nh: 4},
	// Deny a blacklisted /16.
	{src: 0x31330000, smask: 0xffff0000, dst: 0, dmask: 0,
		sportlo: 0, sporthi: 65535, dportlo: 0, dporthi: 65535, proto: 6, action: fwActionDeny, nh: 0},
}

// Firewall builds the firewall benchmark. Traffic mix: ~70% packets
// matching allow rules, ~20% matching deny rules, ~10% unmatched
// (default deny); all carry L4 headers.
func Firewall() *App {
	var controls []profiler.Control
	for i, r := range fwRules {
		controls = append(controls, profiler.Control{Name: "firewall.add_rule",
			Args: []uint32{uint32(i), r.src, r.smask, r.dst, r.dmask,
				r.sportlo, r.sporthi, r.dportlo, r.dporthi, r.proto, r.action, r.nh}})
	}
	for nh := uint32(1); nh <= 4; nh++ {
		controls = append(controls, profiler.Control{Name: "firewall.add_neighbor",
			Args: []uint32{nh, 0x0dd0, 0x33000000 + nh, nh % 3}})
	}
	return &App{
		Name:               "firewall",
		Source:             firewallSrc,
		Controls:           controls,
		Traffic:            fwTraffic(),
		MinForwardFraction: 0.55,
		Churn:              fwChurn(),
	}
}

// fwTraffic declares the firewall mix as weighted cases; the single
// per-packet selection roll and cumulative boundaries reproduce the
// historical switch exactly.
func fwTraffic() TraceSpec {
	return TraceSpec{Cases: []TraceCase{
		{Name: "web-allow", Weight: 45, // rule 0
			Build: func(g *Gen, r *workload.Source, i int) *packet.Packet {
				src := 0x0a000000 | (r.Uint32() & 0x00ffffff)
				dst := 0xc0a80000 | (r.Uint32() & 0xffff)
				p := buildIP(g, r, 0x0a00, 0x5e00000f, dst, 6, 1024+uint32(r.Intn(60000)), 80, true)
				setIPSrc(g, p, src)
				return p
			}},
		{Name: "dns-allow", Weight: 15, // rule 1
			Build: func(g *Gen, r *workload.Source, i int) *packet.Packet {
				src := 0x0a000000 | (r.Uint32() & 0x00ffffff)
				p := buildIP(g, r, 0x0a00, 0x5e00000f, 0x08080808, 17, 1024+uint32(r.Intn(60000)), 53, true)
				setIPSrc(g, p, src)
				return p
			}},
		{Name: "return-allow", Weight: 10, // rule 3
			Build: func(g *Gen, r *workload.Source, i int) *packet.Packet {
				src := 0xc0a80000 | (r.Uint32() & 0xffff)
				dst := 0x0a000000 | (r.Uint32() & 0x00ffffff)
				p := buildIP(g, r, 0x0a00, 0x5e00000f, dst, 6, 80, 1024+uint32(r.Intn(60000)), true)
				setIPSrc(g, p, src)
				return p
			}},
		{Name: "telnet-deny", Weight: 10, // rule 2
			Build: func(g *Gen, r *workload.Source, i int) *packet.Packet {
				return buildIP(g, r, 0x0a00, 0x5e00000f, r.Uint32(), 6, 40000, 23, true)
			}},
		{Name: "blacklist-deny", Weight: 10, // rule 5
			Build: func(g *Gen, r *workload.Source, i int) *packet.Packet {
				src := 0x31330000 | (r.Uint32() & 0xffff)
				p := buildIP(g, r, 0x0a00, 0x5e00000f, r.Uint32(), 6, 40000, 8080, true)
				setIPSrc(g, p, src)
				return p
			}},
		{Name: "default-deny", Weight: 10, // unmatched
			Build: func(g *Gen, r *workload.Source, i int) *packet.Packet {
				return buildIP(g, r, 0x0a00, 0x5e00000f, 0x7f000001, 132, 7, 7, true)
			}},
	}}
}

// setIPSrc rewrites the IPv4 source of a freshly built Ethernet/IPv4
// packet.
func setIPSrc(g *Gen, p *packet.Packet, src uint32) {
	g.Header(ipSrcShape).Put(p.Bytes(), g.Header(etherShape).Size, src)
}
