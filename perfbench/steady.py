#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and prints, for every
end-to-end metric, the median, the interquartile range as a share of the
median (statistics.quantiles, n=4) and the bound from BENCHMARK.json,
beside each run's host steal and reference-loop time. A spread above a
third of the bound is WIDE, one above the bound FAILS. With --against, the
medians are also compared with an earlier set's, and a median worse than
the earlier one by more than the bound FAILS. Run from the checkout root:

    python3 perfbench/steady.py --seeds 1-10 [--workloads funnel,seh] \\
        [--out set2.jsonl] [--against set1.jsonl]
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def spread(vals):
    if len(vals) < 2:
        return 0
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / q2 if q2 else 0


def worse_by(metric, before, after):
    """How much worse after is than before, as a share of before."""
    if before == 0:
        return 0
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    ap.add_argument("--against", default="", help="JSON lines written by an earlier --out")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    earlier = {}
    if args.against:
        for line in open(args.against):
            rec = json.loads(line)
            earlier.setdefault(rec["workload"], []).append(rec["result"])
    out = open(args.out, "a") if args.out else None
    failed = False
    for w in workloads:
        results, steal, ref = [], [], []
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            lines = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()
            res = json.loads(lines[-1])
            info = next((json.loads(l)["run"] for l in lines if l.startswith('{"run"')), {})
            host = info.get("host", {})
            results.append(res)
            steal.append(host.get("steal_s", 0))
            ref.append(host.get("ref_s", 0))
            if out:
                out.write(json.dumps({"workload": w, "seed": s, "result": res, "run": info}) + "\n")
                out.flush()
            print(f"{w} seed {s}: correct={res['correct']} steal={steal[-1]:.2f}s ref={ref[-1]:.4f}s " +
                  " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items())), flush=True)
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med, sp = statistics.median(vals), spread(vals)
            flag = "ok" if sp <= m["bound"] / 3 else "WIDE" if sp <= m["bound"] else "FAILS"
            line = f"  {w:8s} {m['name']:12s} median={med:.5g} spread={sp:.3f} bound={m['bound']} {flag}"
            if w in earlier:
                before = statistics.median(r["metrics"][m["name"]]["value"] for r in earlier[w])
                worse = worse_by(m, before, med)
                verdict = "FAILS" if worse > m["bound"] else "ok"
                line += f"  earlier={before:.5g} worse_by={worse:+.3f} {verdict}"
                failed |= verdict == "FAILS"
            failed |= flag == "FAILS"
            print(line)
        print(f"  {w:8s} steal_s per run: {[round(x, 2) for x in steal]}")
        print(f"  {w:8s} ref_s per run:   {[round(x, 4) for x in ref]}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
