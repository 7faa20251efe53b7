// Command tracegen writes a workload's trace as a ChampSim file, or prints
// its statistics.
//
// Usage:
//
//	tracegen -bench mcf -accesses 1000000 -o mcf.champsim
//	tracegen -bench mcf -accesses 1000000 | gzip > mcf.champsim.gz
//	tracegen -bench mcf -accesses 1000000 -stats -reuse          # Table 2 row
//	tracegen -bench 'champsim(file=mcf.champsim.gz)' -accesses 0 -stats
//	tracegen -list
//
// -bench names the trace in both modes: a benchmark name or a workload spec
// string, generated at -accesses and -seed; -accesses 0 reads a whole
// ChampSim file, and on any other workload gives an empty trace, which is an
// error. ChampSim is the only format tracegen writes. For a compressed file,
// pipe the output through gzip: champsim(file=...) reads gzip-compressed
// files as they are.
package main

import (
	"flag"
	"fmt"
	"os"

	"glider/internal/trace"
	"glider/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "benchmark name or workload spec string, e.g. 'champsim(file=PATH)'")
	accesses := flag.Int("accesses", 1_000_000, "trace length (with champsim(file=...), 0 reads the whole file)")
	seed := flag.Int64("seed", 42, "generation seed")
	out := flag.String("o", "", "output ChampSim file (default stdout)")
	stats := flag.Bool("stats", false, "print the trace's statistics instead of writing it")
	reuse := flag.Bool("reuse", false, "with -stats: also print the reuse-distance profile")
	list := flag.Bool("list", false, "list benchmark names, then exit")
	flag.Parse()

	switch {
	case *list:
		for _, s := range workload.All() {
			fmt.Printf("%-16s %s\n", s.Name, s.Suite)
		}
		return
	case *bench == "":
		fmt.Fprintln(os.Stderr, "usage: tracegen -bench <name|spec> [-accesses N] [-seed N] [-o file | -stats [-reuse]] | -list")
		os.Exit(2)
	}

	spec, err := workload.Resolve(*bench)
	if err != nil {
		fatal(err)
	}
	tr, err := spec.GenerateE(*accesses, *seed)
	if err != nil {
		fatal(err)
	}
	if tr.Len() == 0 {
		fatal(fmt.Errorf("%s: -accesses %d gives an empty trace (0 means the whole file only for champsim(file=...))", *bench, *accesses))
	}
	if *stats {
		printStats(tr, *reuse)
		return
	}
	if err := write(tr, *out); err != nil {
		fatal(err)
	}
}

// write encodes tr as a ChampSim file at out, or on stdout when out is "".
func write(tr *trace.Trace, out string) error {
	if out == "" {
		return trace.WriteChampSim(os.Stdout, tr)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := trace.WriteChampSim(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printStats(tr *trace.Trace, reuse bool) {
	s := tr.Summarize()
	fmt.Printf("%-12s accesses=%d PCs=%d addrs=%d acc/PC=%.1f acc/addr=%.1f\n",
		s.Name, s.Accesses, s.PCs, s.Addrs, s.AccessesPerPC, s.AccessesPerAddr)
	if reuse {
		p := trace.ReuseDistances(tr, false)
		p.Render(os.Stdout)
		fmt.Printf("  captured by L2 (4096 blocks):   %5.1f%%\n", p.CapturedBy(4096)*100)
		fmt.Printf("  captured by LLC (32768 blocks): %5.1f%%\n", p.CapturedBy(32768)*100)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
