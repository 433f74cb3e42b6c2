// Quickstart: write a tiny Baker packet program, compile it through the
// whole Shangri-La pipeline, and run it both functionally (host
// interpreter) and on the IXP2400 model.
package main

import (
	"fmt"
	"log"

	"shangrila/internal/driver"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
	"shangrila/internal/rts"
	"shangrila/internal/trace"
)

// A minimal "port mirror with TTL guard": IPv4 packets with a live TTL
// are forwarded with the TTL decremented, everything else is dropped.
const src = `
protocol ether { dst_hi:16; dst_lo:32; src_hi:16; src_lo:32; type:16; demux { 14 }; }
protocol ipv4  { ver:4; hlen:4; tos:8; length:16; id:16; flags:3; frag:13;
                 ttl:8; proto:8; cksum:16; srcip:32; dstip:32; demux { hlen << 2 }; }
metadata { rx_port:8; }
const ETH_IP = 0x0800;

module mirror {
    uint forwarded;
    uint dropped;
    channel out : ether;

    ppf guard(ether ph) {
        if (ph->type == ETH_IP) {
            ipv4 iph = packet_decap(ph);
            uint ttl = iph->ttl;
            if (ttl > 1) {
                iph->ttl = ttl - 1;
                forwarded += 1;
                ether eph = packet_encap(iph);
                channel_put(out, eph);
            } else {
                dropped += 1;
                packet_drop(iph);
            }
        } else {
            dropped += 1;
            packet_drop(ph);
        }
    }

    wiring { rx -> guard; out -> tx; }
}
`

func main() {
	// 1. Lower the source so we can build a packet trace against its
	// protocol declarations.
	prog, err := driver.LowerSource("mirror.baker", src)
	if err != nil {
		log.Fatal(err)
	}
	tp := prog.Types
	mkPacket := func(ttl uint32) *packet.Packet {
		p, err := trace.Build([]trace.Layer{
			{Proto: tp.Protocols["ether"], Fields: []trace.Field{{Name: "type", Value: 0x0800}}},
			{Proto: tp.Protocols["ipv4"], Fields: []trace.Field{
				{Name: "ver", Value: 4}, {Name: "hlen", Value: 5}, {Name: "ttl", Value: ttl}, {Name: "dstip", Value: 0x0a000001}}, Size: 20},
		}, 64, tp.Metadata.Bytes)
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	var profTrace []*packet.Packet
	for i := 0; i < 64; i++ {
		profTrace = append(profTrace, mkPacket(uint32(1+i%8)))
	}

	// 2. Run it functionally first: the host interpreter is the same
	// engine the compiler's Functional profiler uses.
	session, err := profiler.NewSession(prog)
	if err != nil {
		log.Fatal(err)
	}
	if err := session.Inject(mkPacket(9)); err != nil {
		log.Fatal(err)
	}
	if err := session.Inject(mkPacket(1)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("functional run: %d forwarded, %d dropped\n",
		session.Stats.Forwarded, session.Stats.Dropped)

	// 3. Compile at full optimization. (Each compilation consumes the
	// program, so lower a fresh copy.)
	prog2, err := driver.LowerSource("mirror.baker", src)
	if err != nil {
		log.Fatal(err)
	}
	res, err := driver.CompileIR(prog2, driver.Config{
		Level:        driver.LevelSWC,
		ProfileTrace: profTrace,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %d ME aggregate(s), %d instructions\n",
		len(res.Image.MECode), len(res.Image.MECode[0].Program.Code))

	// 4. Run the compiled binary on the IXP2400 model with 4 MEs.
	var runTrace []*packet.Packet
	for i := 0; i < 128; i++ {
		runTrace = append(runTrace, mkPacket(uint32(1+i%8)))
	}
	rt, err := rts.New(res.Image, res.Prog, runTrace, rts.Options{NumMEs: 4, CaptureLimit: 4})
	if err != nil {
		log.Fatal(err)
	}
	if err := rt.Run(500_000); err != nil {
		log.Fatal(err)
	}
	st := rt.M.Snapshot()
	fmt.Printf("simulated:  %.2f Gbps, %d forwarded, %d dropped (ttl<=1)\n",
		st.Gbps(rt.M.Cfg.ClockMHz), st.TxPackets, st.FreedPackets)
	if len(rt.TxCapture) > 0 {
		fmt.Printf("first transmitted frame (%dB): % x...\n",
			len(rt.TxCapture[0].Frame), rt.TxCapture[0].Frame[:24])
	}
}
