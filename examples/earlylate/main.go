// Earlylate reproduces the paper's §5.3 scenario interactively: a
// compute-then-communicate ping-pong (Figure 5 pseudocode) where NOP
// counts steer whether the receiver posts its receive before or after the
// send, and the three messaging mechanisms react very differently.
//
// The run prints, for one early and one late configuration, the measured
// single-trip latency of Push-Zero, Push-Pull and Push-All at a few
// message sizes — including Push-All's go-back-N collapse above 3 KB in
// the late case.
//
// Run with: go run ./examples/earlylate
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
	iters := 50
	if *short {
		iters = 6
	}
	// Paper §5.3: early receiver x=500k/y=100k NOPs; late x=100k/y=300k.
	tests := []struct {
		name string
		x, y int64
	}{
		{"early receiver (x=500k, y=100k NOPs)", 500_000, 100_000},
		{"late receiver  (x=100k, y=300k NOPs)", 100_000, 300_000},
	}
	modes := []string{"push-zero", "push-pull", "push-all"}
	sizes := []int{1024, 3072, 8192}

	for _, sc := range tests {
		fmt.Printf("== %s ==\n", sc.name)
		fmt.Printf("%-10s", "size(B)")
		for _, m := range modes {
			fmt.Printf(" %14s", m)
		}
		fmt.Println("   single-trip µs")
		for _, n := range sizes {
			fmt.Printf("%-10d", n)
			for _, m := range modes {
				spec := scenario.DefaultSpec()
				spec.Protocol.Mode = m
				spec.Protocol.PushedBufBytes = 4096 // the paper's Fig. 6 buffer
				spec.Traffic = scenario.Traffic{Pattern: "earlylate", Size: n, Messages: iters,
					ComputeX: sc.x, ComputeY: sc.y}
				fmt.Printf(" %14.1f", bench.Latency(spec).TrimmedMean)
			}
			fmt.Println()
		}
		fmt.Println()
	}
	fmt.Println("note the Push-All collapse at 3072 B in the late case: its third")
	fmt.Println("fragment finds the 4 KB pushed buffer full, is dropped, and only a")
	fmt.Println("go-back-N retransmission timeout (~150 ms round trip) recovers it.")
}
