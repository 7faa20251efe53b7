#!/usr/bin/env python3
"""Measure how steady the benchmark is and write the steadiness report.

Run from the root of a checkout:

    python3 perfbench/report.py --out perfbench/STEADINESS.md

It makes two sets of RUNS timed runs of every workload in BENCHMARK.json
(set A at seeds 42, 43, ...; set B at seeds 101, 102, ...), interleaving
the workloads. For every end-to-end metric it reports the median, quartiles
(statistics.quantiles, n=4) and range of each set, the interquartile spread
as a share of the median, and the shift of set B's median from set A's,
signed so that positive is worse; both must stay within the metric's
bound. Then, per
workload, it makes PAIRS back-to-back pairs of a timed and a traced run at
seed 42, alternating which goes first: the tracing overhead is the median
over pairs of traced minus timed, as a share of timed, and the last traced
run gives the per-layer metrics. Raw results go to
.bench_build/perfbench/report-raw.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

RAW = os.path.join(".bench_build", "perfbench", "report-raw.json")
RUNS = 10
PAIRS = 3


def run(workload, seed, seconds, trace):
    start = time.time()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    res["wall_s"] = wall
    res["seed"] = seed
    status = "ok" if res["correct"] and res["failed"] == 0 else "FAILED CHECKS"
    print(f"{workload} seed={seed} trace={trace}: {status}, {res['attempted']} ops, {wall:.1f} s", file=sys.stderr)
    return res


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med if med else 0.0}


def hardware():
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    return f"{os.cpu_count()} CPUs ({model}), {platform.system()} {platform.release()}, {go}"


def measure(workloads, seconds):
    raw = {"hardware": hardware(), "sets": {"A": {w: [] for w in workloads}, "B": {w: [] for w in workloads}},
           "pairs": {w: [] for w in workloads}}
    for name, base in (("A", 42), ("B", 101)):
        for i in range(RUNS):
            for w in workloads:
                raw["sets"][name][w].append(run(w, base + i, seconds, 0))
    for p in range(PAIRS):
        for w in workloads:
            pair = {}
            for trace in ((0, 1) if p % 2 == 0 else (1, 0)):
                pair["traced" if trace else "timed"] = run(w, 42, seconds, trace)
            raw["pairs"][w].append(pair)
    return raw


def render(raw, bench):
    """Returns the report's lines and the problems it found."""
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    out = ["# Benchmark steadiness", "",
           f"Hardware: {raw['hardware']}. `run_seconds` = {seconds}.", "",
           f"Two sets of {RUNS} timed runs per workload (set A at seeds 42–{41 + RUNS}, "
           f"set B at seeds 101–{100 + RUNS}), workloads interleaved. Spread is (Q3 − Q1) / median with `statistics.quantiles(n=4)`; "
           "it must stay within the bound and should stay below a third of it. "
           "Shift is set B's median minus set A's, as a share of set A's, signed so that positive is worse; "
           "it must stay within the bound either way. Regenerate with `python3 perfbench/report.py`.", ""]
    problems = []
    for w in workloads:
        runs = raw["sets"]["A"][w] + raw["sets"]["B"][w]
        bad = [r["seed"] for r in runs if not r["correct"] or r["failed"]]
        walls = [r["wall_s"] for r in runs]
        out += [f"## {w}", "",
                f"{len(runs)} timed runs, {len(runs) - len(bad)} with every check passing; "
                f"{runs[0]['attempted']} operations per run at seed 42; "
                f"run wall time {min(walls):.1f}–{max(walls):.1f} s (build and set-up included).", ""]
        if bad:
            problems.append(f"{w}: checks failed at seeds {bad}")
        out += ["| metric | unit | bound | set | median | Q1 | Q3 | min | max | spread | shift |",
                "|---|---|---|---|---|---|---|---|---|---|---|"]
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sa = stats([r["metrics"][name]["value"] for r in raw["sets"]["A"][w]])
            sb = stats([r["metrics"][name]["value"] for r in raw["sets"]["B"][w]])
            sign = 1 if m["better"] == "lower" else -1
            shift = sign * (sb["median"] - sa["median"]) / sa["median"]
            for label, s in (("A", sa), ("B", sb)):
                mark = ""
                if s["spread"] > bound:
                    mark = " ✗"
                    problems.append(f"{w} {name} set {label}: spread {s['spread']:.3f} > bound {bound}")
                elif s["spread"] > bound / 3:
                    mark = " (>⅓ bound)"
                shift_cell = f"{shift:+.3f}" if label == "B" else ""
                if label == "B" and abs(shift) > bound:
                    shift_cell += " ✗"
                    problems.append(f"{w} {name}: shift {shift:+.3f} beyond bound {bound}")
                out.append(f"| {name if label == 'A' else ''} | {m['unit'] if label == 'A' else ''} | "
                           f"{bound if label == 'A' else ''} | {label} | {s['median']:.5g} | {s['q1']:.5g} | "
                           f"{s['q3']:.5g} | {s['min']:.5g} | {s['max']:.5g} | {s['spread']:.3f}{mark} | {shift_cell} |")
        out.append("")
        pairs = raw["pairs"][w]
        if pairs:
            tr = pairs[-1]["traced"]
            if any(not p[k]["correct"] or p[k]["failed"] for p in pairs for k in p):
                problems.append(f"{w}: a run of the overhead pairs failed checks")
            out += [f"Tracing overhead, from {len(pairs)} back-to-back pairs of a timed and a traced run at seed 42 "
                    "(order alternating): traced minus timed as a share of timed, median over pairs. "
                    f"A traced run does {tr['attempted']} operations, the layer replays included, and took "
                    f"{tr['wall_s']:.1f} s.", ""]
            out += ["| metric | timed (median) | traced (median) | overhead |", "|---|---|---|---|"]
            for name in [m["name"] for m in bench["end_to_end"] if "traced." + m["name"] in tr["metrics"]]:
                timed = [p["timed"]["metrics"][name]["value"] for p in pairs]
                traced = [p["traced"]["metrics"]["traced." + name]["value"] for p in pairs]
                over = statistics.median([b / a - 1 for a, b in zip(timed, traced)])
                out.append(f"| {name} | {statistics.median(timed):.5g} | {statistics.median(traced):.5g} | {over:+.3f} |")
            out += ["", "Per-layer metrics of the last traced run:", "", "| metric | value | unit |", "|---|---|---|"]
            for m in bench["per_layer"]:
                v = tr["metrics"][m["name"]]
                out.append(f"| {m['name']} | {v['value']:.5g} | {v['unit']} |")
            out.append("")
    out += ["## Verdict", ""]
    out += [f"- {p}" for p in problems] if problems else ["Every spread and shift is within its bound, and every run passed every check."]
    return out, problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="perfbench/STEADINESS.md")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    raw = measure([w["name"] for w in bench["workloads"]], bench["run_seconds"])
    os.makedirs(os.path.dirname(RAW), exist_ok=True)
    json.dump(raw, open(RAW, "w"), indent=1)
    out, problems = render(raw, bench)
    with open(args.out, "w") as f:
        f.write("\n".join(out) + "\n")
    print("\n".join(problems) if problems else "steady", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
