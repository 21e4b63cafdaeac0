#!/usr/bin/env python3
"""cliquebound benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

Run from the root of a source checkout; the package is imported from
``src/``.  Each unit of work runs in a fresh interpreter (``child.py``),
one after another: a closed loop with one client and ``workers=1``.  Units
start until ``--seconds`` have passed, and at least ``MIN_UNITS`` run.

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, each the median over the run's units.  With
``--trace 1`` untraced and traced units alternate and the metrics are the
per-layer metrics, from the traced units.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` count
the correctness checks, ``metrics`` holds the values.  The exit code is 1
when any check fails, 2 when the benchmark cannot run at all.  Per-unit
values, provenance, and (traced) span logs go under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("verify", "sweep", "corpus")
MIN_UNITS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 150
# Stop starting units once this much of the 180 s budget is gone.
RUN_BUDGET_S = 120
# Printed beside the normalized times; see SpeedProbe in child.py.
RAW_METRICS = (("wall_raw_s", "s"), ("cpu_raw_s", "s"), ("setup_raw_s", "s"),
               ("slowdown", "ratio"), ("setup_slowdown", "ratio"))


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (missing source, crashed unit)."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {path}: {exc}") from exc


def source_digest() -> str:
    pkg = os.path.join(SRC, "cliquebound")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or platform.machine()


def provenance(seed: int) -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print(sys.version.split()[0], numpy.__version__)"],
        capture_output=True, text=True, timeout=60, env=child_env(),
    )
    python_version, numpy_version = (probe.stdout.split() + ["unknown", "unknown"])[:2]
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": python_version,
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_unit(workload: str, seed: int, trace: bool, index: int) -> dict:
    """One unit in a fresh interpreter; returns the child's result."""
    work = os.path.join(OUT, "work")
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, f"{workload}-{seed}-{int(trace)}-{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--src", SRC, "--workdir", work,
           "--out", out]
    if trace:
        spans_dir = os.path.join(OUT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        # One file per workload, overwritten: a span log runs to several MB.
        cmd += ["--spans", os.path.join(spans_dir, f"{workload}.json.gz")]
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} unit exceeded {CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"{workload} unit exited {done.returncode}:\n{done.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out)
    return result


def run_units(workload: str, seed: int, seconds: int, trace: bool) -> list:
    """Units until ``seconds`` have passed; traced runs alternate an
    untraced and a traced unit."""
    start = time.monotonic()
    per_round = (False, True) if trace else (False,)
    minimum = MIN_TRACED_PAIRS if trace else MIN_UNITS
    units = []
    rounds = 0
    while True:
        for traced in per_round:
            unit = run_unit(workload, seed, traced, len(units))
            unit["traced"] = traced
            units.append(unit)
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= minimum and (elapsed >= seconds or elapsed >= RUN_BUDGET_S):
            return units


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail(values: list) -> tuple:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(units: list, names: list) -> dict:
    return {name: statistics.median(u[name] for u in units) for name in names}


def per_layer(units: list, names: list, checks: list) -> dict:
    plain = [u for u in units if not u["traced"]]
    traced = [u for u in units if u["traced"]]
    first = traced[0]["layers"]
    counts = {k: v for k, v in first.items() if isinstance(v, int)}
    for other in traced[1:]:
        same = all(other["layers"].get(k) == v for k, v in counts.items())
        checks.append(("trace counts repeat exactly between traced units", same))
    metrics = {}
    for name in names:
        if name == "trace.overhead_s":
            metrics[name] = (statistics.median(u["wall_norm_s"] for u in traced)
                             - statistics.median(u["wall_norm_s"] for u in plain))
        elif name in counts:
            metrics[name] = counts[name]
        else:
            metrics[name] = statistics.median(u["layers"].get(name, 0.0) for u in traced)
    return metrics


def run_workload(workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    units = run_units(workload, seed, seconds, trace)
    attempted = sum(u["checks_attempted"] for u in units)
    failures = [f for u in units for f in u["check_failures"]]
    extra_checks: list = []
    units_desc = f"{len(units)} units"
    if trace:
        layer_names = [m["name"] for m in spec["per_layer"]]
        metrics = per_layer(units, layer_names, extra_checks)
        units_desc = f"{len(units) // 2} untraced + {len(units) // 2} traced units"
    else:
        metrics = end_to_end(units, [m["name"] for m in spec["end_to_end"]])
    attempted += len(extra_checks)
    failures += [what for what, ok in extra_checks if not ok]

    units_info = [{k: v for k, v in u.items() if k != "layers"} for u in units]
    record = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": provenance(seed),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "units": units_info,
    }
    if trace:
        record["layers_all"] = [u["layers"] for u in units if u["traced"]]
    latencies = [lat * 1e3 for u in units if not u["traced"] for lat in u.get("latencies_s", [])]
    if latencies:
        record["graph_p50_ms"] = statistics.median(latencies)
        record["graph_tail"] = tail(latencies)
        record["graph_samples"] = len(latencies)
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    report(record, units_desc, spec)
    return record


def report(record: dict, units_desc: str, spec: dict) -> None:
    """Human-readable lines: every metric by name, with its unit."""
    units_by_name = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    p = record["provenance"]
    print(f"# {record['workload']} seed={p['seed']} trace={record['trace']}: {units_desc}, "
          f"fresh interpreter each, closed loop, 1 client, workers=1")
    plain = [u for u in record["units"] if not u["traced"]]
    for name, value in record["metrics"].items():
        line = f"  {name:48s} {value:14.6f} {units_by_name.get(name, '')}"
        if not record["trace"]:
            q1, q3 = quartiles([u[name] for u in plain])
            line += f"   (median of {len(plain)}; q1 {q1:.4f}, q3 {q3:.4f})"
        print(line)
    for name, unit in RAW_METRICS:
        values = [u[name] for u in plain]
        q1, q3 = quartiles(values)
        print(f"  {name:48s} {statistics.median(values):14.6f} {unit}   (not normalized; "
              f"q1 {q1:.4f}, q3 {q3:.4f})")
    if "graph_samples" in record:
        n = record["graph_samples"]
        print(f"  {'graph_p50_ms':48s} {record['graph_p50_ms']:14.6f} ms   ({n} graphs)")
        if record["graph_tail"] is not None:
            pct, value = record["graph_tail"]
            print(f"  {'graph_tail_ms':48s} {value:14.6f} ms   (p{pct:.1f} of {n} graphs, 10 beyond)")
    for u in record["units"]:
        if "digest" in u:
            state = "matches" if u["digest_matches_pinned"] else "differs from"
            print(f"  sweep to_json sha256 {u['digest'][:16]}... {state} the pinned digest (not gated)")
            break
    rate = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(f"  {'error_rate':48s} {rate:14.6f} ratio   ({record['failed']} failed of "
          f"{record['attempted']} checks)")
    for what in record["failures"][:20]:
        print(f"  FAILED: {what}")
    print(f"  provenance: cpu={p['cpu']!r} nproc={p['nproc']} python={p['python']} "
          f"numpy={p['numpy']} commit={p['git_commit']} source_sha256={p['source_sha256'][:16]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cliquebound benchmark")
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="measuring time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    try:
        spec = load_spec()
        if not os.path.isfile(os.path.join(SRC, "cliquebound", "__init__.py")):
            raise BenchmarkError(f"package source not found under {SRC}")
        seconds = args.seconds or spec["run_seconds"]
        records = [run_workload(name, args.seed, seconds, bool(args.trace), spec) for name in names]
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    unit_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    for r in records:
        prefix = f"{r['workload']}." if len(records) > 1 else ""
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit_of[name]}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
