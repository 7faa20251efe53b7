// Policy comparison: run three representative workload classes from the
// paper's evaluation — a pointer-chasing SPEC-style benchmark (mcf), a
// control-flow-dependent one (omnetpp), and a graph workload (bfs) —
// through the full cache hierarchy under every major replacement policy.
//
//	go run ./examples/policycompare
package main

import (
	"context"
	"fmt"
	"os"

	"glider/internal/cpu"
	"glider/internal/workload"
)

func main() {
	const accesses = 400_000
	policies := []string{"lru", "drrip", "ship++", "mpppb", "hawkeye", "glider"}
	benchmarks := []string{"mcf", "omnetpp", "bfs"}

	results := make([][]cpu.Result, len(benchmarks))
	for i, name := range benchmarks {
		spec, err := workload.Lookup(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, pol := range policies {
			res, err := cpu.SingleCore(context.Background(), spec, pol, accesses, 42)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			results[i] = append(results[i], res)
		}
	}

	fmt.Printf("%-10s", "benchmark")
	for _, p := range policies {
		fmt.Printf(" %9s", p)
	}
	fmt.Println("   (LLC miss rate)")
	for i, name := range benchmarks {
		fmt.Printf("%-10s", name)
		for _, res := range results[i] {
			fmt.Printf(" %8.1f%%", res.LLC.MissRate()*100)
		}
		fmt.Println()
	}

	fmt.Println("\nTiming model (IPC, higher is better):")
	fmt.Printf("%-10s", "benchmark")
	for _, p := range policies {
		fmt.Printf(" %9s", p)
	}
	fmt.Println()
	for i, name := range benchmarks {
		fmt.Printf("%-10s", name)
		for _, res := range results[i] {
			fmt.Printf(" %9.3f", res.IPC)
		}
		fmt.Println()
	}
}
