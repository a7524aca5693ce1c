#!/usr/bin/env python3
"""xbench runner: builds xbench, runs workloads, checks and summarises them.

Single run (the benchmark contract; the last stdout line is the result):
    run.py --workload W --seed N --seconds S --trace 0|1

A set: every workload (or --workload W) K times, each metric printed by
name with unit, clock, n, median and quartiles; --out saves the set:
    run.py [--workload W] [--runs K] [--seed N] [--seconds S] [--out F]

Agreement of two saved sets against the bounds in BENCHMARK.json:
    run.py --agree A.json B.json

Toy-size contract check of every workload (the xbench_smoke test):
    run.py --smoke [--xbench PATH]
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
XBENCH_BUILD = os.path.join(BUILD, "xbench")
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 0.4


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # The clock of each metric is declared in the README's glossary table:
    # | `name` | unit | clock | layer | better | bound | meaning |
    clocks = {}
    section = None
    with open(os.path.join(HERE, "README.md")) as f:
        for line in f:
            if line.startswith("## "):
                section = line[3:].strip()
            m = re.match(r"\|\s*`([^`]+)`\s*\|[^|]*\|\s*([^|]+?)\s*\|", line)
            if m and section == "Glossary":
                clocks[m.group(1)] = m.group(2)
    spec["clocks"] = clocks
    return spec


def build():
    """Configure and build xbench from source; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("xbench: the library sources (src/) are not in this checkout")
        sys.exit(2)
    if not os.path.isfile(os.path.join(XBENCH_BUILD, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", XBENCH_BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            sys.exit(2)
    b = subprocess.run(["cmake", "--build", XBENCH_BUILD, "--target",
                        "xbench", "-j4"], stdout=sys.stderr, stderr=sys.stderr)
    if b.returncode != 0:
        sys.exit(2)
    return os.path.join(XBENCH_BUILD, "xbench")


def run_xbench(xbench, workload, seed, seconds, trace, smoke=False):
    """One xbench process; returns {stamp, rows, ledger, rc, trace_file}."""
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [xbench, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--workdir={work}"]
    trace_file = None
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_file = os.path.join(traces, f"{workload}-seed{seed}.json")
        cmd.append(f"--trace={trace_file}")
    if smoke:
        cmd.append("--smoke")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"xbench: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
        return None
    out = {"stamp": None, "rows": [], "ledger": None, "rc": p.returncode,
           "trace_file": trace_file, "text": p.stdout}
    for line in p.stdout.splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "row" in obj:
            out["rows"].append(obj["row"])
        elif "stamp" in obj:
            out["stamp"] = obj["stamp"]
        elif "xbench" in obj:
            out["ledger"] = obj["xbench"]
    return out


def contract_errors(spec, res, traced, workload):
    """Metric-contract violations of one run (empty list = conforming)."""
    errs = []
    if res is None:
        return ["no result"]
    if res["ledger"] is None:
        errs.append(f"exit code {res['rc']} and no ledger")
    declared = {m["name"]: m for m in
                spec["per_layer" if traced else "end_to_end"]}
    seen = {}
    for r in res["rows"]:
        name = r["metric"]
        if not isinstance(r["value"], (int, float)):
            errs.append(f"{name} is not a number")
            r["value"] = 0.0
        if name in seen:
            errs.append(f"{name} reported twice")
        seen[name] = r
        d = declared.get(name)
        if d is None:
            errs.append(f"{name} is not declared in BENCHMARK.json")
            continue
        if r["unit"] != d["unit"]:
            errs.append(f"{name} unit {r['unit']} != declared {d['unit']}")
        clock = spec["clocks"].get(name)
        if clock != r["clock"]:
            errs.append(f"{name} clock {r['clock']} != README {clock}")
    if not traced:
        for name in declared:
            if name not in seen:
                errs.append(f"{workload} does not report {name}")
            elif not seen[name]["value"] > 0:
                errs.append(f"{workload} reports {name} = 0")
    return errs


def metrics_of(spec, res, traced):
    """The contract's metric map: every declared metric of the run's kind.
    Per-layer metrics a workload does not exercise are reported as 0."""
    rows = {r["metric"]: r for r in res["rows"]}
    out = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        r = rows.get(m["name"])
        out[m["name"]] = {"value": r["value"] if r else 0.0,
                          "unit": m["unit"]}
    return out


def print_rows(res):
    for r in res["rows"]:
        print(f"  {r['metric']:32s} {r['value']:>14.6g} {r['unit']:6s} "
              f"{r['clock']:8s} {r['layer']:9s} n={r['n']} {r['stat']}")


def single(spec, args):
    xbench = build()
    res = run_xbench(xbench, args.workload, args.seed, args.seconds,
                     bool(args.trace))
    if res is None or res["ledger"] is None:
        if res is not None:
            sys.stderr.write(res["text"])
        sys.exit(1)
    errs = contract_errors(spec, res, bool(args.trace), args.workload)
    for e in errs:
        log("xbench: contract: " + e)
    print(f"seed={args.seed} workload={args.workload} stamp={res['stamp']}")
    print_rows(res)
    led = res["ledger"]
    correct = bool(led["correct"]) and not errs and res["rc"] == 0
    print(json.dumps({"correct": correct, "attempted": led["attempted"],
                      "failed": led["failed"],
                      "metrics": metrics_of(spec, res, bool(args.trace))}))
    sys.exit(0 if correct else 1)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_set(spec, args):
    xbench = build()
    names = [w["name"] for w in spec["workloads"]]
    workloads = [args.workload] if args.workload else names
    modes = [0, 1] if args.trace is None else [args.trace]
    result = {"seconds": args.seconds, "stamps": {}, "runs": {},
              "meta": {}}
    ok = True
    for w in workloads:
        result["runs"][w] = {}
        for mode in modes:
            for k in range(args.runs):
                seed = args.seed + k
                t0 = time.time()
                res = run_xbench(xbench, w, seed, args.seconds, bool(mode))
                errs = contract_errors(spec, res, bool(mode), w)
                if res is None or res["rc"] != 0 or errs:
                    ok = False
                    log(f"xbench: {w} seed {seed}: rc="
                        f"{res and res['rc']} {errs}")
                    if res is None or res["ledger"] is None:
                        continue
                if res["ledger"]["failed"]:
                    ok = False
                log(f"{w} seed={seed} trace={mode}: "
                    f"{time.time() - t0:.1f} s, ledger {res['ledger']}")
                stamp = dict(res["stamp"])
                prev = result["stamps"].setdefault(w, stamp)
                if prev != stamp:
                    ok = False
                    log(f"xbench: {w} stamp changed within the set")
                for r in res["rows"]:
                    result["runs"][w].setdefault(r["metric"], []).append(
                        r["value"])
                    result["meta"][r["metric"]] = {
                        "unit": r["unit"], "clock": r["clock"],
                        "layer": r["layer"], "stat": r["stat"]}
    print(f"{'workload':14s} {'metric':32s} {'unit':6s} {'clock':8s} "
          f"{'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr%':>7s}")
    for w, metrics in result["runs"].items():
        for name, values in metrics.items():
            meta = result["meta"][name]
            q1, med, q3 = quartiles(values)
            spread = 100.0 * (q3 - q1) / med if med else 0.0
            print(f"{w:14s} {name:32s} {meta['unit']:6s} {meta['clock']:8s} "
                  f"{len(values):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.2f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
    sys.exit(0 if ok else 1)


def agree(spec, path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    if a["stamps"] != b["stamps"]:
        log("xbench: refusing to compare sets with different stamps:")
        log(f"  {path_a}: {a['stamps']}")
        log(f"  {path_b}: {b['stamps']}")
        sys.exit(2)
    ok = True
    print(f"{'workload':14s} {'metric':14s} {'median A':>12s} "
          f"{'median B':>12s} {'worse%':>8s} {'bound%':>7s} "
          f"{'iqrA%':>7s} {'iqrB%':>7s}")
    for w in sorted(set(a["runs"]) & set(b["runs"])):
        for m in spec["end_to_end"]:
            va, vb = a["runs"][w].get(m["name"]), b["runs"][w].get(m["name"])
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            ma, mb = qa[1], qb[1]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            spread_a = (qa[2] - qa[0]) / ma
            spread_b = (qb[2] - qb[0]) / mb
            bad = worse > m["bound"] or (m["name"] != "setup_s" and max(
                spread_a, spread_b) > m["bound"])
            ok = ok and not bad
            print(f"{w:14s} {m['name']:14s} {ma:12.6g} {mb:12.6g} "
                  f"{100 * worse:8.2f} {100 * m['bound']:7.1f} "
                  f"{100 * spread_a:7.2f} {100 * spread_b:7.2f}"
                  f"{'  FAIL' if bad else ''}")
    sys.exit(0 if ok else 1)


def smoke(spec, xbench):
    """Every workload at toy size, untraced and traced: the metric contract
    of BENCHMARK.json and every correctness gate.  No performance gate."""
    failures = []
    layer_seen = set()
    for w in [x["name"] for x in spec["workloads"]]:
        for traced in (False, True):
            res = run_xbench(xbench, w, 1, SMOKE_SECONDS, traced, smoke=True)
            errs = contract_errors(spec, res, traced, w)
            if res is not None and res["ledger"] is not None:
                led = res["ledger"]
                if res["rc"] != 0 or not led["correct"] or led["failed"]:
                    errs.append(f"correctness: rc={res['rc']} ledger={led}")
                if traced:
                    layer_seen.update(r["metric"] for r in res["rows"])
                    try:
                        with open(res["trace_file"]) as f:
                            t = json.load(f)
                        if not t["traceEvents"] or not t["xbench"]["rows"]:
                            errs.append("trace has no spans or no rows")
                    except (OSError, ValueError, KeyError) as e:
                        errs.append(f"trace file: {e}")
                elif led["spans"] != 0:
                    errs.append("untraced run recorded spans")
            failures += [f"{w} trace={int(traced)}: {e}" for e in errs]
    for m in spec["per_layer"]:
        if m["name"] not in layer_seen:
            failures.append(f"no workload reports {m['name']}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] not in spec["clocks"]:
            failures.append(f"{m['name']} missing from the README glossary")
    for f in failures:
        log("xbench_smoke: " + f)
    print(f"xbench_smoke: {'FAIL' if failures else 'ok'} "
          f"({len(spec['workloads'])} workloads)")
    sys.exit(1 if failures else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--runs", type=int)
    ap.add_argument("--out")
    ap.add_argument("--agree", nargs=2, metavar=("A", "B"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--xbench", help="prebuilt xbench binary (smoke only)")
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload and args.workload not in [w["name"] for w in
                                               spec["workloads"]]:
        log(f"xbench: unknown workload {args.workload}")
        sys.exit(2)
    if args.agree:
        agree(spec, *args.agree)
    elif args.smoke:
        smoke(spec, args.xbench or build())
    elif args.workload and args.seed is not None and args.runs is None:
        if args.trace is None:
            args.trace = 0
        single(spec, args)
    else:
        args.runs = args.runs or 1
        args.seed = 1 if args.seed is None else args.seed
        run_set(spec, args)


if __name__ == "__main__":
    main()
