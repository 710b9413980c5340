// Bandwidth sweeps message sizes on both routes and prints achieved
// bandwidth using the paper's methodology (time for the message plus a
// 4-byte acknowledgement, minus the 4-byte single-trip time).
//
// Intranode, the cross-space zero buffer keeps the whole transfer at one
// memory copy, so bandwidth approaches the copy engine's streaming rate
// (paper: 350.9 MB/s peak, ~66 % of the 533 MB/s bus). Internode, the
// 100 Mbit/s wire dominates and bandwidth saturates near 12.1 MB/s.
//
// Run with: go run ./examples/bandwidth
package main

import (
	"flag"
	"fmt"

	"pushpull/internal/bench"
	"pushpull/internal/scenario"
)

func main() {
	short := flag.Bool("short", false, "shrink the run for smoke testing")
	flag.Parse()
	sizes := []int{256, 1024, 4096, 8192, 16384, 32768, 65536}
	intraIters, interIters := 100, 50
	if *short {
		sizes = []int{1024, 8192}
		intraIters, interIters = 20, 10
	}

	fmt.Println("== intranode (cross-space zero buffer, one copy) ==")
	fmt.Printf("%-10s %12s\n", "size(B)", "MB/s")
	for _, n := range sizes {
		spec := scenario.DefaultSpec()
		spec.Topology = scenario.Topology{Kind: "intranode", Nodes: 1, ProcsPerNode: 2}
		spec.Protocol.PushedBufBytes = 64 << 10
		spec.Traffic.Size, spec.Traffic.Messages = n, intraIters
		fmt.Printf("%-10d %12.1f\n", n, bench.Bandwidth(spec))
	}

	fmt.Println("\n== internode (100 Mbit/s Fast Ethernet) ==")
	fmt.Printf("%-10s %12s\n", "size(B)", "MB/s")
	for _, n := range sizes {
		spec := scenario.DefaultSpec()
		spec.Traffic.Size, spec.Traffic.Messages = n, interIters
		fmt.Printf("%-10d %12.2f\n", n, bench.Bandwidth(spec))
	}
}
