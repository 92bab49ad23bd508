#!/usr/bin/env python3
"""Build and run the mmstudy benchmark.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload cold-php --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-goldens

A measured run builds perfbench/main.exe and bench/main.exe from source
(dune, release profile, build directory .bench_build), runs one workload
(a traced run also reads bench/main.exe's microbenchmark tables), prints every
metric with its unit and sample count, checks the outputs against the
golden digests in perfbench/goldens.json when the seed is the default
one, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1).  --out FILE also saves the full record,
provenance included, for perfbench/compare.py.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_run"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BENCH_EXE = os.path.join(BUILD_DIR, "default", "bench", "main.exe")
GOLDENS = os.path.join("perfbench", "goldens.json")
LEDGER = os.path.join("perfbench", "ledger.json")
DEFAULT_SEED = 42
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
PROFILE = "release"


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(needed):
            fail("%s not found: run from a checkout of the repository" % needed, 2)
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", PROFILE,
             "--build-dir", BUILD_DIR, "./perfbench/main.exe", "./bench/main.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S, text=True)
    except FileNotFoundError:
        fail("dune not found on PATH", 2)
    except subprocess.TimeoutExpired:
        fail("build timed out", 2)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed", 2)


def git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", *args], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, env=env,
                              timeout=30)
    except (FileNotFoundError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_program(workload, seed, seconds, trace, tiny=False):
    """Run one workload; return (report lines, record)."""
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        args.append("--tiny")
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("%s exited with code %d and no record" % (workload, proc.returncode))
    report, record = lines[:-1], json.loads(lines[-1])
    if trace:
        for name, ns in micro_metrics():
            record["per_layer"][name] = {"value": ns, "unit": "ns", "samples": 1}
            report.append("layer %-44s %16.6g %-6s n=1  (bench/main.exe)" % (name, ns, "ns"))
    return report, record


# bench/main.exe's Bechamel table titles and the metric prefix of their rows.
MICRO_TABLES = (
    ("malloc/free churn (ring of 256 live objects)/", "micro.churn_ns."),
    ("64 mallocs + freeAll (transaction epilogue)/", "micro.free_all_ns."),
)
MICRO_CACHE_ROW = "memory-hierarchy simulator/cache-system access"


def micro_metrics():
    """The microbenchmarks of bench/main.exe, run from a scratch directory
    with its experiments skipped; its table rows as (metric, ns) pairs."""
    scratch = os.path.join(WORK_DIR, "micro-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    try:
        proc = subprocess.run([os.path.abspath(BENCH_EXE)], cwd=scratch,
                              env=dict(os.environ, BENCH_SKIP_EXPERIMENTS="1"),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("bench/main.exe timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail("bench/main.exe exited with code %d" % proc.returncode)
    out = []
    for row, ns in re.findall(r"^\| (.+?) +\| +([0-9.]+) \|$", proc.stdout, re.M):
        if row == MICRO_CACHE_ROW:
            out.append(("micro.cache_access_ns", float(ns)))
        for title, prefix in MICRO_TABLES:
            if row.startswith(title):
                out.append((prefix + row[len(title):], float(ns)))
    return out


def golden_mismatches(record, workload, seed, tiny):
    """Golden digests exist for the default seed at full size only."""
    if tiny or seed != DEFAULT_SEED:
        return []
    goldens = load_json(GOLDENS)
    fingerprint = record["provenance"]["fingerprint"]
    if goldens.get("fingerprint") != fingerprint:
        return ["goldens were recorded under fingerprint %s, this build is %s; "
                "re-record them with --record-goldens"
                % (goldens.get("fingerprint"), fingerprint)]
    want = goldens["workloads"].get(workload)
    got = record["outputs"]
    if want != got:
        return ["outputs differ from goldens: want %s, got %s"
                % (json.dumps(want, sort_keys=True), json.dumps(got, sort_keys=True))]
    return []


def select_metrics(record, declared, section):
    """The declared metrics, each checked present with its declared unit."""
    out = {}
    for m in declared:
        got = record[section].get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            fail("metric %s (%s) missing or malformed in the %s record: %r"
                 % (m["name"], m["unit"], section, got))
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def measure(a):
    bench = load_json("BENCHMARK.json")
    names = [w["name"] for w in bench["workloads"]]
    if a.workload not in names:
        fail("unknown workload %r; one of %s" % (a.workload, ", ".join(names)), 2)
    build()
    report, record = run_program(a.workload, a.seed, a.seconds, a.trace)
    problems = [("%s: %s" % (c["name"], c["detail"])) for c in record["check_failures"]]
    problems += golden_mismatches(record, a.workload, a.seed, tiny=False)
    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    record["provenance"].update(
        git=rev or "unknown",
        git_dirty=None if status is None else status != "",
        dune_profile=PROFILE)
    for line in report:
        print(line)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print("checks: %d run, %d problem(s)" % (record["checks_run"], len(problems)))
    for p in problems:
        print("  INCORRECT " + p)
    if a.trace:
        metrics = select_metrics(record, bench["per_layer"], "per_layer")
    else:
        metrics = select_metrics(record, bench["end_to_end"], "end_to_end")
    if a.out:
        record["correct"] = not problems
        with open(a.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": not problems, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


def ledger_problems(bench):
    """Every per-layer metric needs exactly one prediction group, and the
    ledger must describe exactly the declared workloads."""
    ledger = load_json(LEDGER)
    groups = [g["metrics"] for g in ledger["per_layer_groups"]]
    problems = []
    for m in bench["per_layer"]:
        hits = [g for g in groups if re.fullmatch(g, m["name"])]
        if len(hits) != 1:
            problems.append("%s matches %d ledger groups" % (m["name"], len(hits)))
    if sorted(ledger["workloads"]) != sorted(w["name"] for w in bench["workloads"]):
        problems.append("ledger workloads differ from BENCHMARK.json")
    return problems


def self_test():
    """Every workload at a tiny size, untraced and traced: each declared
    metric must be emitted with its declared unit and every check pass."""
    bench = load_json("BENCHMARK.json")
    problems = ledger_problems(bench)
    for p in problems:
        print("ledger: " + p)
    bad = len(problems)
    build()
    for w in bench["workloads"]:
        for trace, section, declared in ((0, "end_to_end", bench["end_to_end"]),
                                         (1, "per_layer", bench["per_layer"])):
            _, record = run_program(w["name"], DEFAULT_SEED, 0, trace, tiny=True)
            select_metrics(record, declared, section)
            extra = sorted(set(record[section]) - {m["name"] for m in declared})
            problems = [c["name"] for c in record["check_failures"]]
            if record["failed"] or problems:
                bad += 1
            print("%-12s trace=%d  %3d metrics ok  %d check(s), failed %s, extra %s"
                  % (w["name"], trace, len(declared), record["checks_run"],
                     problems or 0, extra or "none"))
    if bad:
        fail("self-test: %d problem(s)" % bad)
    print("self-test passed")


def record_goldens():
    bench = load_json("BENCHMARK.json")
    build()
    goldens = {"seed": DEFAULT_SEED, "workloads": {}}
    for w in bench["workloads"]:
        _, record = run_program(w["name"], DEFAULT_SEED, 0, 0)
        if record["check_failures"] or record["failed"]:
            fail("%s failed its checks; goldens not written" % w["name"])
        goldens["fingerprint"] = record["provenance"]["fingerprint"]
        goldens["workloads"][w["name"]] = record["outputs"]
    with open(GOLDENS, "w") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + GOLDENS)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="save the full record (with provenance) here")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-goldens", action="store_true")
    a = p.parse_args()
    if a.out:
        a.out = os.path.abspath(a.out)
    os.chdir(ROOT)
    if a.self_test:
        self_test()
    elif a.record_goldens:
        record_goldens()
    elif a.workload:
        measure(a)
    else:
        p.error("--workload, --self-test or --record-goldens is required")


if __name__ == "__main__":
    main()
