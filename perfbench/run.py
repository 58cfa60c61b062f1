#!/usr/bin/env python3
"""Serving benchmark for the SLaDe reproduction.

One run of one workload:
    python3 perfbench/run.py --workload stream-unique --seed 1 --trace 0

Every workload, untraced and traced, with a readable table:
    python3 perfbench/run.py --workload all --seed 1

Compare two sets of runs (JSONL files of the records runs append to
.bench_build/perfbench/records/<workload>.jsonl):
    python3 perfbench/run.py compare BASE.jsonl HEAD.jsonl

Self-tests (percentile rule, schedule determinism, dedupe generator,
compare verdicts):
    python3 perfbench/run.py selftest

The script builds the library and the benchmark binary from the checkout's
sources into .bench_build/perfbench, checks the frozen checkpoints against
their recorded hashes, runs slade_bench, and prints the full record followed,
as the last line, by {"correct", "attempted", "failed", "metrics"}.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RECORD_DIR = BUILD_DIR / "records"
CKPT_DIR = BENCH_DIR / "checkpoints"

# The workloads themselves are a table in src/slade_bench.cpp, keyed by the
# names BENCHMARK.json lists; run.py passes only the name, seed, seconds
# and trace flag.


def run_timeout(seconds):
    """Seconds a run may take: a traced run sets up, runs the window twice
    and then checks and stages; an untraced run sets up five times."""
    return 90 + 4 * seconds


# Metrics every record carries but BENCHMARK.json does not bound: the
# latency tail (its spread over 10 seeds reached 0.30 under host steal, past
# the largest allowed bound) and the failed share (0 on every correct run).
UNBOUNDED = {"latency_tail_ms": ("ms", "lower"),
             "failed_frac": ("frac", "lower")}

# Identity fields of the host fingerprint: records that differ in any of
# these are never compared.
HOST_IDENTITY = ("nproc", "cpu_model", "compiler", "march", "build_type",
                 "checkpoints")


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"missing {path}")
    return json.loads(path.read_text())


# -- build ------------------------------------------------------------------

def child_env():
    """The environment of every child: temporary files stay in the build
    directory, inside the checkout."""
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die("no repository sources next to perfbench/; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    try:
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B",
                            str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, env=child_env())
        subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                        "--target", *targets], check=True, stdout=sys.stderr,
                       env=child_env())
    except subprocess.CalledProcessError as e:
        die(f"build failed: {e}", 1)


def checkpoint_hashes():
    sums = {}
    for line in (CKPT_DIR / "SHA256SUMS").read_text().splitlines():
        digest, name = line.split()
        actual = hashlib.sha256((CKPT_DIR / name).read_bytes()).hexdigest()
        if actual != digest:
            die(f"checkpoint {name} does not match its recorded hash", 1)
        sums[name] = digest
    return sums


# -- host fingerprint ---------------------------------------------------------

def cpu_model():
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def resolved_march():
    cache = BUILD_DIR / "CMakeCache.txt"
    cxx = "c++"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            cxx = line.split("=", 1)[1]
    out = subprocess.run([cxx, "-march=native", "-Q", "--help=target"],
                         capture_output=True, text=True,
                         env=child_env()).stdout
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] == "-march=" and len(parts) > 1:
            return "native=" + parts[1]
    return "native"


def cpu_ticks():
    """(steal, total) jiffies from the aggregate line of /proc/stat."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0]
              .split()[1:]]
    # guest and guest_nice are already counted in user and nice.
    total = sum(fields[:8])
    return fields[7], total


def host_fingerprint(compiler, build_type, hashes):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": compiler,
        "march": resolved_march(),
        "build_type": build_type,
        "checkpoints": hashes,
    }


# -- one run ------------------------------------------------------------------

def workload_names(bench):
    return [w["name"] for w in bench["workloads"]]


def bench_args(name, seed, seconds, trace):
    return [str(BUILD_DIR / "slade_bench"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]


def run_once(name, seed, seconds, trace, bench):
    hashes = checkpoint_hashes()
    steal0, total0 = cpu_ticks()
    timeout = run_timeout(seconds)
    try:
        proc = subprocess.run(bench_args(name, seed, seconds, trace),
                              capture_output=True, text=True,
                              timeout=timeout, env=child_env())
    except subprocess.TimeoutExpired:
        die(f"{name}: slade_bench exceeded {timeout}s", 1)
    steal1, total1 = cpu_ticks()
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die(f"{name}: slade_bench printed no result "
            f"(exit {proc.returncode})", 1)
    out = json.loads(lines[-1])

    units = {m["name"]: m["unit"] for m in
             bench["end_to_end"] + bench["per_layer"]}
    units.update({k: unit for k, (unit, _) in UNBOUNDED.items()})
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    measured = out["per_layer"] if trace else out["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        die(f"{name}: slade_bench did not report {', '.join(missing)}", 1)

    info = out["info"]
    record = {
        "type": "perfbench-record",
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": out["correct"], "attempted": out["attempted"],
        "failed": out["failed"],
        "host": host_fingerprint(info["compiler"], info["build_type"],
                                 hashes),
        "steal_pct": 100.0 * (steal1 - steal0) / max(1, total1 - total0),
        "workload_config": info["workload"],
        "end_to_end": {k: {"value": v, "unit": units.get(k, "")}
                       for k, v in out["end_to_end"].items()},
        "per_layer": {k: {"value": v, "unit": units.get(k, "")}
                      for k, v in out.get("per_layer", {}).items()},
        "checks": out["checks"],
        "info": info,
    }
    RECORD_DIR.mkdir(parents=True, exist_ok=True)
    with open(RECORD_DIR / f"{name}.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    result = {
        "correct": bool(out["correct"]) and proc.returncode == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    return record, result


def print_table(record):
    print(f"== {record['workload']} (seed {record['seed']}, trace "
          f"{record['trace']}, steal {record['steal_pct']:.1f}%)",
          file=sys.stderr)
    for section in ("end_to_end", "per_layer"):
        for k, m in record[section].items():
            print(f"  {k:32s} {m['value']:>16.6g} {m['unit']}",
                  file=sys.stderr)
    info = record["info"]
    print(f"  tail = p{info['tail_percentile']:g} "
          f"({info['tail_beyond']:g} samples beyond, "
          f"{info['served']:g} served)", file=sys.stderr)
    print(f"  checks: {json.dumps(record['checks'])}", file=sys.stderr)


# -- compare ------------------------------------------------------------------

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, better, bound, pairs):
    """The choosing-metrics section 8 rule for one (workload, metric).

    base/head: values per run; pairs: (base, head) values of runs that
    share a seed; bound None = a metric BENCHMARK.json does not bound.
    Returns (verdict, wins, pair count)."""
    sign = 1 if better == "higher" else -1
    bq1, bmed, bq3 = quartiles(base)
    _, hmed, _ = quartiles(head)
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    all_better = min(sign * h for h in head) > max(sign * b for b in base)
    all_worse = max(sign * h for h in head) < min(sign * b for b in base)
    spread = (bq3 - bq1) / abs(bmed) if bmed else float("inf")
    if (bound is not None and spread > bound
            and not (all_better or all_worse)):
        return "unresolved (spread > bound)", wins, len(pairs)
    if (pairs and wins >= 0.9 * len(pairs)
            and abs(hmed - bmed) > (bq3 - bq1)):
        return "better", wins, len(pairs)
    if bound is None:
        return "no gain (no bound)", wins, len(pairs)
    if sign * (hmed - bmed) < -bound * abs(bmed):
        return "worse (beyond bound)", wins, len(pairs)
    return "no change within bound", wins, len(pairs)


def load_records(path):
    out = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line.startswith("{"):
            rec = json.loads(line)
            if rec.get("type") == "perfbench-record":
                out.append(rec)
    if not out:
        die(f"{path}: no perfbench records")
    return out


def host_identity(rec):
    return {k: rec["host"].get(k) for k in HOST_IDENTITY}


def compare(base_path, head_path, bench):
    base, head = load_records(base_path), load_records(head_path)
    ident = host_identity(base[0])
    for rec in base + head:
        if host_identity(rec) != ident:
            diff = {k: (ident[k], host_identity(rec)[k]) for k in ident
                    if ident[k] != host_identity(rec)[k]}
            die("refusing to compare records from different hosts or "
                f"checkpoints: {json.dumps(diff)}")
    regressions = 0
    print(f"{'workload':18s} {'metric':16s} {'base q1/med/q3':>30s} "
          f"{'head q1/med/q3':>30s} {'won':>6s}  verdict")
    for name in workload_names(bench):
        b_runs = [r for r in base if r["workload"] == name and not r["trace"]]
        h_runs = [r for r in head if r["workload"] == name and not r["trace"]]
        if not b_runs or not h_runs:
            continue
        # A gain does not count when more requests fail than at the base.
        more_failed = (sum(r["failed"] for r in h_runs) / len(h_runs) >
                       sum(r["failed"] for r in b_runs) / len(b_runs))
        unbounded = [{"name": k, "better": better, "bound": None}
                     for k, (_, better) in UNBOUNDED.items()]
        for m in bench["end_to_end"] + unbounded:
            key = m["name"]
            bv = [r["end_to_end"][key]["value"] for r in b_runs]
            hv = [r["end_to_end"][key]["value"] for r in h_runs]
            hseed = {r["seed"]: r["end_to_end"][key]["value"]
                     for r in h_runs}
            pairs = [(r["end_to_end"][key]["value"], hseed[r["seed"]])
                     for r in b_runs if r["seed"] in hseed]
            v, wins, n = verdict(bv, hv, m["better"], m["bound"], pairs)
            if v == "better" and more_failed:
                v = "not a gain: more requests failed"
            regressions += v.startswith("worse")
            bq, hq = quartiles(bv), quartiles(hv)
            print(f"{name:18s} {key:16s} "
                  f"{'/'.join(f'{x:.4g}' for x in bq):>30s} "
                  f"{'/'.join(f'{x:.4g}' for x in hq):>30s} "
                  f"{wins:>3d}/{n:<2d}  {v}")
    return 1 if regressions else 0


# -- self-tests ---------------------------------------------------------------

class CompareRuleTest(unittest.TestCase):
    def test_gain_needs_nine_tenths_of_pairs_and_spread(self):
        base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.1, 9.9]
        head = [x - 1.0 for x in base]
        pairs = list(zip(base, head))
        self.assertEqual(verdict(base, head, "lower", 0.1, pairs)[0],
                         "better")
        # 8 of 10 pairs won is not a gain.
        mixed = head[:8] + [x + 2.0 for x in base[8:]]
        self.assertNotEqual(
            verdict(base, mixed, "lower", 0.1, list(zip(base, mixed)))[0],
            "better")

    def test_regression_beyond_bound(self):
        base = [100.0] * 5 + [101.0] * 5
        head = [x * 0.7 for x in base]
        self.assertTrue(verdict(base, head, "higher", 0.1,
                                list(zip(base, head)))[0]
                        .startswith("worse"))

    def test_spread_wider_than_bound_is_unresolved(self):
        base = [1.0, 2.0, 3.0, 4.0, 5.0, 1.5, 2.5, 3.5, 4.5, 5.5]
        head = [x * 1.01 for x in base]
        self.assertTrue(verdict(base, head, "lower", 0.1,
                                list(zip(base, head)))[0]
                        .startswith("unresolved"))

    def test_unbounded_metric_is_never_a_regression(self):
        base = [10.0] * 10
        head = [20.0] * 10
        self.assertEqual(verdict(base, head, "lower", None,
                                 list(zip(base, head)))[0],
                         "no gain (no bound)")

    def test_refuses_other_hosts(self):
        rec = {"host": {"nproc": 4, "cpu_model": "a", "compiler": "g",
                        "march": "x", "build_type": "Release",
                        "checkpoints": {}}}
        other = json.loads(json.dumps(rec))
        other["host"]["nproc"] = 8
        self.assertNotEqual(host_identity(rec), host_identity(other))


def selftest():
    build(["bench_selftest"])
    rc = subprocess.run([str(BUILD_DIR / "bench_selftest")]).returncode
    suite = unittest.defaultTestLoader.loadTestsFromTestCase(CompareRuleTest)
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if rc == 0 and ok else 1


# -- entry --------------------------------------------------------------------

def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            die("usage: run.py compare BASE.jsonl HEAD.jsonl")
        return compare(argv[1], argv[2], load_benchmark())
    if argv[:1] == ["selftest"]:
        return selftest()

    import argparse
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    bench = load_benchmark()
    ap.add_argument("--workload", required=True,
                    choices=workload_names(bench) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seconds = args.seconds or bench["run_seconds"]
    build(["slade_bench"])

    if args.workload == "all":
        ok = True
        for name in workload_names(bench):
            for trace in (0, 1):
                record, result = run_once(name, args.seed, seconds, trace,
                                          bench)
                print_table(record)
                print(json.dumps(record))
                ok = ok and result["correct"]
        return 0 if ok else 1

    record, result = run_once(args.workload, args.seed, seconds, args.trace,
                              bench)
    print_table(record)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
