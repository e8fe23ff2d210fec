#!/usr/bin/env python3
"""Paced open-loop E2 benchmark for FlexRIC-cpp.

Run one measurement (from the repository root):

    python3 e2bench/run.py --workload fb_small_sharded --seed 1 --seconds 10 --trace 0

The first call configures and builds e2bench/ (and the FlexRIC libraries
from src/) into .bench_build/e2bench; later calls only rebuild what changed.
The run prints every metric with its unit, a metadata line, and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. The full record (all metrics, output
checks, per-layer self-time table and run metadata) is stored under
.bench_build/results/ (or --out DIR). A failed output check exits 1.

Compare two result sets (e.g. parent and change, same seeds):

    python3 e2bench/run.py compare PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Run the benchmark's own tests:

    python3 e2bench/run.py selftest
"""

import argparse
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2bench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BUILD_TYPE = "RelWithDebInfo"


def fail(msg, code=2):
    print(f"e2bench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"{path} not found")
    with open(path) as f:
        return json.load(f)


def build(target):
    """Configure once, then build `target`; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("FlexRIC sources (src/) not found next to e2bench/")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               env=env) != 0:
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(BUILD, target)


def cmake_cache():
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    return cache


def run_metadata(seed):
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    build_type = cache.get("CMAKE_BUILD_TYPE", BUILD_TYPE)
    flags = " ".join(x for x in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")) if x)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        git = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except OSError:
        git = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "compiler": version,
            "cxx_flags": flags + " -Wall -Wextra -Wshadow -std=c++20",
            "build_type": build_type, "git": git, "seed": seed,
            "kernel": platform.release()}


def cmd_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have: {', '.join(names)})")
    binary = build("e2bench")
    os.makedirs(args.out, exist_ok=True)
    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, tag + ".tsv")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"benchmark exited with {proc.returncode}")
    rec = json.loads(lines[-1])
    rec["meta"].update(run_metadata(args.seed))
    rec["trace"] = args.trace
    with open(os.path.join(args.out, tag + ".json"), "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        if m["name"] not in rec[section]:
            fail(f"metric {m['name']} missing from the run's output")
        metrics[m["name"]] = {"value": rec[section][m["name"]], "unit": m["unit"]}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, v in metrics.items():
        print(f"  {name:32s} {v['value']:>16.6g} {v['unit']}")
    print(f"  samples: ind_lat {int(rec['samples']['ind_lat'])}, "
          f"ctrl_rtt {int(rec['samples']['ctrl_rtt'])}")
    print("  checks: " + ", ".join(
        f"{k}={'ok' if ok else 'FAILED'}" for k, ok in rec["checks"].items()))
    print("meta " + json.dumps(rec["meta"], sort_keys=True))
    print(json.dumps({"correct": rec["correct"],
                      "attempted": int(rec["attempted"]),
                      "failed": int(rec["failed"]),
                      "metrics": metrics}))
    if not rec["correct"]:
        print(f"e2bench: {int(rec['failures'])} output check(s) failed",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Compare mode
# ---------------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, pairs):
    """Judge one workload x metric.

    parent/change: the runs' values; pairs: (parent, change) values of
    runs made with the same seed. Returns (verdict, pairs_won).
      unresolved - the parent's own spread (IQR / median) is wider than the
                   bound, unless every change run beats every parent run;
      regressed  - the change's median is worse by more than the bound;
      improved   - the change wins >= 9/10 of the pairs (ties count for
                   neither) and the medians differ by more than the
                   parent's IQR, in the better direction;
      no worse   - otherwise.
    """
    lower = better == "lower"
    sign = 1.0 if lower else -1.0
    won = sum(1 for p, c in pairs if sign * (c - p) < 0)
    pm = statistics.median(parent)
    cm = statistics.median(change)
    q1, _, q3 = quartiles(parent)
    iqr = q3 - q1
    if lower:
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    base = abs(pm) if pm else 1.0
    if iqr / base > bound and not all_better:
        return "unresolved", won
    if sign * (cm - pm) / base > bound:
        return "regressed", won
    if pairs and won >= 0.9 * len(pairs) and abs(cm - pm) > iqr and \
            sign * (cm - pm) < 0:
        return "improved", won
    return "no worse", won


def load_results(directory):
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        key = (rec["workload"], int(rec.get("trace", 0)))
        out.setdefault(key, []).append(rec)
    return out


def cmd_compare(args):
    spec = load_spec()
    parent = load_results(args.parent)
    change = load_results(args.change)
    status = 0
    for w in spec["workloads"]:
        name = w["name"]
        pr, cr = parent.get((name, 0), []), change.get((name, 0), [])
        if pr and cr:
            print(f"\n== {name}: end-to-end ({len(pr)} parent / {len(cr)} change runs)")
            print(f"  {'metric':24s} {'parent med [q1,q3]':>30s} "
                  f"{'change med [q1,q3]':>30s} {'won':>7s}  verdict")
            pseeds = {r["meta"]["seed"]: r for r in pr}
            for m in spec["end_to_end"]:
                pv = [r["end_to_end"][m["name"]] for r in pr]
                cv = [r["end_to_end"][m["name"]] for r in cr]
                pairs = [(pseeds[r["meta"]["seed"]]["end_to_end"][m["name"]],
                          r["end_to_end"][m["name"]])
                         for r in cr if r["meta"]["seed"] in pseeds]
                v, won = verdict(pv, cv, m["better"], m["bound"], pairs)
                if v == "regressed":
                    status = 1
                p1, p2, p3 = quartiles(pv)
                c1, c2, c3 = quartiles(cv)
                print(f"  {m['name']:24s} {p2:11.4g} [{p1:.4g},{p3:.4g}]"
                      f"{'':>2s} {c2:11.4g} [{c1:.4g},{c3:.4g}]  "
                      f"{won:>3d}/{len(pairs):<3d} {v}")
        pt, ct = parent.get((name, 1), []), change.get((name, 1), [])
        if pt and ct:
            print(f"\n== {name}: per-layer self time, ns per span "
                  f"(medians of {len(pt)} / {len(ct)} traced runs)")
            layers = sorted(pt[0]["samples"]["layers"])
            for layer in layers:
                pv = [r["samples"]["layers"][layer]["self_ns"] for r in pt]
                cv = [r["samples"]["layers"][layer]["self_ns"] for r in ct]
                pm, cm = statistics.median(pv), statistics.median(cv)
                if pm == 0 and cm == 0:
                    continue
                delta = f"{100.0 * (cm - pm) / pm:+7.1f}%" if pm else "    new"
                print(f"  {layer:24s} {pm:12.1f} -> {cm:12.1f}  {delta}")
            print(f"  per-layer metrics (medians)")
            for m in spec["per_layer"]:
                pv = [r["per_layer"][m["name"]] for r in pt]
                cv = [r["per_layer"][m["name"]] for r in ct]
                print(f"  {m['name']:32s} {statistics.median(pv):14.4g} -> "
                      f"{statistics.median(cv):14.4g} {m['unit']}")
    return status


def cmd_selftest(_args):
    binary = build("e2bench_tests")
    rc = subprocess.call([binary])
    rc |= subprocess.call([sys.executable, "-m", "unittest", "-q",
                           "test_run"], cwd=HERE)
    print("selftest: " + ("OK" if rc == 0 else "FAILED"))
    return 1 if rc else 0


def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("parent")
        p.add_argument("change")
        return cmd_compare(p.parse_args(argv[1:]))
    if argv and argv[0] == "selftest":
        return cmd_selftest(argv[1:])
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", default=RESULTS)
    return cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
