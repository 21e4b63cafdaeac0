"""One timed unit of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per unit so that no cache (such as the
generator's class cache) and no peak-memory reading carries over from one
unit to the next.  The unit's result, correctness gates included, is
written as JSON to ``--out``:

    python3 perfbench/child.py --workload sweep --seed 1 --trace 0 \
        --spawned-ns <time.monotonic_ns() of the parent> --src src \
        --workdir .perfbench/work --out unit.json

The unit pins itself to one core and runs a ``SpeedProbe`` from start to
the end of the timed region; its times are reported both raw and
normalized by the probe.  With ``--trace 1`` the package is wrapped by
``tracer.install`` before the workload module is imported, and the result
carries per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import sys
import time

# The layers named by the benchmark, one per package module.
LAYERS = ("enumeration", "canon", "graph6", "graphs", "counting", "structure",
          "fixed_loss", "transform", "bounds", "cli", "records")
CANON_RAW = "canon.canonical_form_raw"
PROBE_INTERVAL_S = 0.02
# One SpeedProbe sample on an unloaded core of the tuning machine (the lower
# mode of its times; loaded episodes read 0.3-0.4 ms).
PROBE_REF_S = 230e-6


class SpeedProbe:
    """Samples this interpreter's speed while the unit runs.

    Every ``PROBE_INTERVAL_S`` of wall time a SIGALRM handler times a fixed
    piece of pure-Python work: dict counting, table lookups, bit counts and
    a sort, the kinds of operation the package spends its time in.  On a
    shared machine the same code runs up to 1.5x slower while another
    tenant loads the core, in episodes of seconds to minutes.  The mean
    probe time over a span, divided by the probe's time on an unloaded core
    (``PROBE_REF_S``), is that span's slowdown.
    """

    def __init__(self):
        rng = random.Random(0)
        self.data = [rng.getrandbits(20) for _ in range(512)]
        self.table = {i: rng.getrandbits(16) for i in range(256)}
        self.samples: list = []

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        acc = 0
        for _ in range(2):
            seen: dict = {}
            for v in self.data:
                c = v & 0xFF
                seen[c] = seen.get(c, 0) + 1
                acc += self.table[c] ^ (v >> 3).bit_count()
            acc += len(tuple(sorted(seen.values())))
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def span(self, lo: int, hi: int) -> tuple:
        """(seconds spent probing, slowdown) over samples lo..hi."""
        window = self.samples[lo:hi] or self.samples[-1:] or [PROBE_REF_S]
        return sum(self.samples[lo:hi]), sum(window) / len(window) / PROBE_REF_S


def layer_metrics(tracer) -> dict:
    """Flat ``name -> value`` map of every per-function and per-layer metric."""
    summary = tracer.summary()
    out = {}
    for name, row in summary.items():
        calls = row["calls"]
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = row["self_ns"] / 1e9
        out[f"{name}.us_per_call"] = row["self_ns"] / 1e3 / calls if calls else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            row["self_ns"] for name, row in summary.items() if name.split(".")[0] == layer
        ) / 1e9

    # Generation canonicalizes children one augmentation level at a time;
    # the distinct forms among them are the classes kept at those levels.
    raw = tracer.names.index(CANON_RAW) if CANON_RAW in tracer.names else -1
    children = [
        i for i, fid in enumerate(tracer.span_fn)
        if fid == raw and tracer.parent_name(i).startswith("enumeration.")
    ]
    kept = len({tracer.results[i] for i in children})
    out["enumeration.children_canonicalized"] = len(children)
    out["enumeration.classes_kept"] = kept
    out["enumeration.dedup_yield"] = kept / len(children) if children else 0.0
    out["canon.max_call_ms"] = max(
        (row["max_ns"] for name, row in summary.items() if name.startswith("canon.")), default=0
    ) / 1e6
    out["trace.spans"] = tracer.span_count()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="with --trace 1, write the span log here (gzip JSON)")
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    probe.start()

    import cliquebound

    src = os.path.realpath(args.src)
    if not os.path.realpath(cliquebound.__file__).startswith(src + os.sep):
        print(f"cliquebound imported from {cliquebound.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer(keep_results={CANON_RAW})
        install(tracer)

    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    state = workload.setup(args.seed, args.workdir)

    setup_raw_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    timed_from = len(probe.samples)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.start()
    outputs = workload.run(state)
    if tracer is not None:
        tracer.stop()
    wall_raw_s = time.perf_counter() - t0
    cpu_raw_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed_to = len(probe.samples)
    probe.stop()
    probing_s, slowdown = probe.span(timed_from, timed_to)
    setup_probing_s, setup_slowdown = probe.span(0, timed_from)

    checks = workloads.Checks()
    workload.check(state, outputs, checks)

    # Times less the probe's own samples, divided by the slowdown the probe
    # saw over the same span: seconds on an unloaded core.
    result = {
        "wall_norm_s": (wall_raw_s - probing_s) / slowdown,
        "cpu_norm_s": (cpu_raw_s - probing_s) / slowdown,
        "setup_s": (setup_raw_s - setup_probing_s) / setup_slowdown,
        "wall_raw_s": wall_raw_s,
        "cpu_raw_s": cpu_raw_s,
        "setup_raw_s": setup_raw_s,
        "slowdown": slowdown,
        "setup_slowdown": setup_slowdown,
        "peak_rss_mb": peak_rss_mb,
        "checks_attempted": checks.attempted,
        "check_failures": checks.failures,
    }
    for key in ("latencies_s", "digest", "digest_matches_pinned"):
        if key in state:
            result[key] = state[key]
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
