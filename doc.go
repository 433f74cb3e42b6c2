// Package shangrila is a from-scratch Go reproduction of "Shangri-La:
// Achieving High Performance from Compiled Network Applications while
// Enabling Ease of Programming" (Chen et al., PLDI 2005): the Baker
// packet-processing language, the aggressively optimizing compiler
// (profiling, aggregation, PAC, SOAR, PHR, delayed-update software
// caching, dual-bank register allocation, stack layout), a thin runtime
// system, and a behavioral model of the Intel IXP2400 network processor
// that the compiled code executes on.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// cmd/shangrila-bench regenerates every table and figure of the paper's
// evaluation; bench/ (its own module) measures how fast the host does it.
package shangrila
