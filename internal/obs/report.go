package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Report is the aggregated view of a JSONL event stream that cmd/obsreport
// renders: the registry snapshots, per-policy job latency, and offline
// training curves.
type Report struct {
	// Snapshots holds the "obs/snapshot" events' registry snapshots in
	// stream order, one per run that wrote one.
	Snapshots []Snapshot
	// Jobs groups simrunner job completions by the final path segment of
	// the job key — the policy name under the repo's Key conventions.
	Jobs []JobGroup
	// Epochs holds offline per-epoch training records, sorted by workload,
	// model and epoch.
	Epochs []EpochLine
	// EventCounts tallies every (component, event) pair seen.
	EventCounts map[string]int
}

// JobGroup aggregates simulation jobs sharing a policy (key suffix).
type JobGroup struct {
	Policy       string
	Jobs, Failed int
	TotalSec     float64
	MaxSec       float64
}

// MeanSec returns the mean job latency in seconds.
func (g JobGroup) MeanSec() float64 {
	if g.Jobs == 0 {
		return 0
	}
	return g.TotalSec / float64(g.Jobs)
}

// EpochLine is one offline training epoch.
type EpochLine struct {
	Workload string
	Model    string
	Epoch    int
	Loss     float64
	Accuracy float64
	Seconds  float64
}

// Aggregate folds an event stream into a Report.
func Aggregate(events []Event) *Report {
	rep := &Report{EventCounts: make(map[string]int)}
	jobs := make(map[string]*JobGroup)
	for _, e := range events {
		rep.EventCounts[e.Component+"/"+e.Event]++
		switch {
		case e.Component == "obs" && e.Event == "snapshot":
			if snap, ok := e.Fields["snapshot"].(Snapshot); ok {
				rep.Snapshots = append(rep.Snapshots, snap)
			}
		case e.Component == "simrunner" && e.Event == "job":
			policy := policyFromKey(str(e.Fields["key"]))
			g, ok := jobs[policy]
			if !ok {
				g = &JobGroup{Policy: policy}
				jobs[policy] = g
			}
			g.Jobs++
			sec := f64(e.Fields["seconds"])
			g.TotalSec += sec
			if sec > g.MaxSec {
				g.MaxSec = sec
			}
			if !boolean(e.Fields["ok"]) {
				g.Failed++
			}
		case e.Component == "offline" && e.Event == "epoch":
			rep.Epochs = append(rep.Epochs, EpochLine{
				Workload: str(e.Fields["workload"]),
				Model:    str(e.Fields["model"]),
				Epoch:    int(num(e.Fields["epoch"])),
				Loss:     f64(e.Fields["loss"]),
				Accuracy: f64(e.Fields["accuracy"]),
				Seconds:  f64(e.Fields["seconds"]),
			})
		}
	}
	for _, g := range jobs {
		rep.Jobs = append(rep.Jobs, *g)
	}
	sort.Slice(rep.Jobs, func(i, j int) bool { return rep.Jobs[i].Policy < rep.Jobs[j].Policy })
	sort.SliceStable(rep.Epochs, func(i, j int) bool {
		a, b := rep.Epochs[i], rep.Epochs[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		return a.Epoch < b.Epoch
	})
	return rep
}

// policyFromKey extracts the grouping label from a simrunner job key: the
// last "/"-separated segment that is neither a parameter ("seed=3") nor a
// bare index ("7"), matching the repo's Key("<experiment>", ..., "<policy>",
// "seed=N") conventions. Falls back to the whole key.
func policyFromKey(key string) string {
	segs := strings.Split(key, "/")
	for i := len(segs) - 1; i >= 0; i-- {
		s := segs[i]
		if s == "" || strings.ContainsRune(s, '=') {
			continue
		}
		if _, err := strconv.Atoi(s); err == nil {
			continue
		}
		return s
	}
	return key
}

// Render writes the report: each snapshot under its own header, rendered
// by Snapshot.WriteSummary with every per-PC table cut to its first topN
// rows (<= 0: 20), then jobs, epochs and event counts.
func (rep *Report) Render(w io.Writer, topN int) {
	if topN <= 0 {
		topN = 20
	}
	for i, snap := range rep.Snapshots {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "== snapshot %d of %d ==\n", i+1, len(rep.Snapshots))
		pcs := make([]PCTableSnap, len(snap.PCs))
		for j, p := range snap.PCs {
			p.Top = p.Top[:min(topN, len(p.Top))]
			pcs[j] = p
		}
		snap.PCs = pcs
		snap.WriteSummary(w)
	}
	if len(rep.Jobs) > 0 {
		fmt.Fprintf(w, "\n== jobs by policy ==\n")
		fmt.Fprintf(w, "%-16s %6s %6s %10s %10s %10s\n", "policy", "jobs", "fail", "mean s", "max s", "total s")
		for _, g := range rep.Jobs {
			fmt.Fprintf(w, "%-16s %6d %6d %10.3f %10.3f %10.3f\n", g.Policy, g.Jobs, g.Failed, g.MeanSec(), g.MaxSec, g.TotalSec)
		}
	}
	if len(rep.Epochs) > 0 {
		fmt.Fprintf(w, "\n== training epochs ==\n")
		fmt.Fprintf(w, "%-16s %-16s %6s %10s %10s %10s\n", "workload", "model", "epoch", "loss", "acc%", "seconds")
		for _, e := range rep.Epochs {
			fmt.Fprintf(w, "%-16s %-16s %6d %10.4f %10.1f %10.3f\n", e.Workload, e.Model, e.Epoch, e.Loss, e.Accuracy*100, e.Seconds)
		}
	}
	if len(rep.EventCounts) > 0 {
		keys := make([]string, 0, len(rep.EventCounts))
		for k := range rep.EventCounts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "\n== event stream ==\n")
		for _, k := range keys {
			fmt.Fprintf(w, "%-46s %10d\n", k, rep.EventCounts[k])
		}
	}
}

// JSON field accessors tolerant of the any-typed values encoding/json
// produces (float64 for all numbers).

func str(v any) string {
	s, _ := v.(string)
	return s
}

func f64(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case uint64:
		return float64(x)
	}
	return 0
}

func num(v any) uint64 {
	switch x := v.(type) {
	case float64:
		if x < 0 {
			return 0
		}
		return uint64(x)
	case int:
		if x < 0 {
			return 0
		}
		return uint64(x)
	case uint64:
		return x
	}
	return 0
}

func boolean(v any) bool {
	b, ok := v.(bool)
	return ok && b
}
