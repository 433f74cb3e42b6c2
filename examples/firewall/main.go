// Firewall example: exercise the ordered-rule classifier — allowed flows,
// policy denies, default deny — and show a live rule being installed
// through the control plane while traffic flows on the IXP model.
package main

import (
	"fmt"
	"log"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/harness"
	"shangrila/internal/profiler"
	"shangrila/internal/trace"
)

func main() {
	app := apps.Firewall()

	prog, err := driver.LowerSource("firewall.baker", app.Source)
	if err != nil {
		log.Fatal(err)
	}
	tp := prog.Types
	s, err := profiler.NewSession(prog)
	if err != nil {
		log.Fatal(err)
	}
	if err := s.Boot(app.Controls); err != nil {
		log.Fatal(err)
	}

	// Hand-crafted probes against the installed policy.
	probe := func(label string, src, dst, sport, dport, proto uint32) {
		p, err := trace.Build([]trace.Layer{
			{Proto: tp.Protocols["ether"], Fields: []trace.Field{{Name: "type", Value: 0x0800}}},
			{Proto: tp.Protocols["ipv4tcp"], Fields: []trace.Field{
				{Name: "ver", Value: 4}, {Name: "hlen", Value: 5}, {Name: "ttl", Value: 33}, {Name: "proto", Value: proto},
				{Name: "src", Value: src}, {Name: "dst", Value: dst}, {Name: "sport", Value: sport}, {Name: "dport", Value: dport}}},
		}, 64, tp.Metadata.Bytes)
		if err != nil {
			log.Fatal(err)
		}
		before := s.Stats.Forwarded
		if err := s.Inject(p); err != nil {
			log.Fatal(err)
		}
		verdict := "DENIED"
		if s.Stats.Forwarded > before {
			verdict = "allowed"
		}
		fmt.Printf("%-34s -> %s\n", label, verdict)
	}
	fmt.Println("=== policy probes ===")
	probe("10.1.2.3:5000 -> web 192.168.1.1:80", 0x0a010203, 0xc0a80101, 5000, 80, 6)
	probe("10.1.2.3:5000 -> telnet x.x:23", 0x0a010203, 0xdeadbeef, 5000, 23, 6)
	probe("blacklisted 49.51.0.9 -> any:8080", 0x31330009, 0x01020304, 40000, 8080, 6)
	probe("unmatched 127.0.0.1 SCTP", 0x7f000001, 0x7f000001, 7, 7, 132)
	probe("10.9.9.9:9999 -> DNS 8.8.8.8:53", 0x0a090909, 0x08080808, 9999, 53, 17)

	// Live policy change: open TCP/8080 to a server, then re-probe.
	fmt.Println("\n=== installing a new allow rule at runtime ===")
	if err := s.Control("firewall.add_rule",
		6, 0, 0, 0xc0a80150, 0xffffffff, 0, 65535, 8080, 8080, 6, 1, 2); err != nil {
		log.Fatal(err)
	}
	probe("anyone -> 192.168.1.80:8080", 0x22334455, 0xc0a80150, 777, 8080, 6)

	// Compiled run.
	fmt.Println("\n=== forwarding rate on the IXP2400 model (6 MEs) ===")
	res, err := harness.Compile(app, driver.LevelSWC, 7)
	if err != nil {
		log.Fatal(err)
	}
	r, err := harness.Run(app,
		harness.WithCompiled(res),
		harness.WithMEs(6),
		harness.WithWindows(100_000, 500_000),
		harness.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("+SWC: %.2f Gbps, %.1f memory accesses/packet\n", r.Gbps, r.Total())
}
