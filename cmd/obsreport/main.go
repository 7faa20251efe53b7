// Command obsreport renders the JSONL telemetry stream written by
// `glidersim -metrics`, `experiments -metrics` or `loadgen -events` as a
// human-readable report:
//
//   - each registry snapshot (an "obs/snapshot" event, one per run) under
//     its own header, printed as -metrics-summary prints it: counters,
//     histograms, vectors, and the per-PC reuse outcomes (which PCs insert
//     lines that die unused), cut to the -top most-accessed PCs per table;
//   - per-policy job latencies and offline training curves;
//   - a count of every event kind, including those it renders no section
//     for (loadgen's request and sample events, for instance).
//
// Usage:
//
//	glidersim -bench omnetpp -policy glider -metrics run.jsonl
//	obsreport run.jsonl
//	obsreport -top 20 run1.jsonl run2.jsonl
//	cat run.jsonl | obsreport -
//
// Multiple files (or stdin, named "-") are concatenated before
// aggregation, so a batch of runs can be reported together; snapshots are
// numbered in the order the files are given.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"glider/internal/obs"
)

func main() {
	topN := flag.Int("top", 10, "per-PC rows per table in each snapshot")
	flag.Parse()

	paths := flag.Args()
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: obsreport [-top N] <events.jsonl>... (use - for stdin)")
		os.Exit(2)
	}

	var events []obs.Event
	for _, path := range paths {
		evs, err := readFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obsreport: %s: %v\n", path, err)
			os.Exit(1)
		}
		events = append(events, evs...)
	}
	if len(events) == 0 {
		fmt.Fprintln(os.Stderr, "obsreport: no events")
		os.Exit(1)
	}
	obs.Aggregate(events).Render(os.Stdout, *topN)
}

func readFile(path string) ([]obs.Event, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return obs.ReadEvents(r)
}
