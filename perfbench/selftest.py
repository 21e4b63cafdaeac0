"""Self-tests of the benchmark: tracer arithmetic, alias coverage, exact
call counts, and refusal to run without the package source.

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py``, so the repository's own test run does
not collect it; the call-count test runs two traced sweeps (about 20 s).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from child import PROBE_REF_S, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402


def _span(tracer: Tracer, fid: int, parent: int, start: int, end: int) -> None:
    tracer.span_fn.append(fid)
    tracer.span_parent.append(parent)
    tracer.span_start.append(start)
    tracer.span_end.append(end)


def test_self_time_of_nested_spans():
    tracer = Tracer()
    outer = tracer._register("m.outer")
    inner = tracer._register("m.inner")
    leaf = tracer._register("m.leaf")
    _span(tracer, outer, -1, 0, 100)
    _span(tracer, inner, 0, 10, 30)
    _span(tracer, inner, 0, 40, 70)
    _span(tracer, leaf, 2, 45, 50)
    _span(tracer, outer, -1, 200, 210)
    assert list(tracer.self_times()) == [50, 20, 25, 5, 10]
    summary = tracer.summary()
    assert summary["m.outer"]["self_ns"] == 60
    assert summary["m.outer"]["total_ns"] == 110
    assert summary["m.inner"]["self_ns"] == 45
    assert summary["m.inner"]["max_ns"] == 30
    assert summary["m.leaf"]["self_ns"] == 5


def test_wrappers_record_calls_and_keep_generators_lazy():
    tracer = Tracer()
    produced = []

    def numbers(k):
        for i in range(k):
            produced.append(i)
            yield i

    def total(k):
        return sum(gen(k))

    gen = tracer.wrap("m.numbers", numbers)
    top = tracer.wrap("m.total", total)
    tracer.start()
    assert top(3) == 3
    it = gen(10)
    assert next(it) == 0 and produced[-1] == 0  # one item at a time
    tracer.stop()
    assert produced == [0, 1, 2, 0]
    summary = tracer.summary()
    assert summary["m.total"]["calls"] == 1
    assert summary["m.numbers"]["calls"] == 2
    # three items and the final StopIteration, then one more next()
    assert summary["m.numbers"]["spans"] == 5
    # every numbers() span of the sum is a child of total()
    parents = [tracer.span_parent[i] for i, fid in enumerate(tracer.span_fn) if fid == 0]
    assert parents == [0, 0, 0, 0, -1]
    self_ns = tracer.self_times()
    assert summary["m.total"]["self_ns"] == self_ns[0]


def test_speed_probe_normalization():
    probe = SpeedProbe()
    probe.samples = [PROBE_REF_S, 2 * PROBE_REF_S, 3 * PROBE_REF_S, PROBE_REF_S]
    probing, slowdown = probe.span(1, 3)
    assert math.isclose(probing, 5 * PROBE_REF_S)
    assert math.isclose(slowdown, 2.5)
    assert probe.span(4, 4) == (0, 1.0)  # no sample inside: the latest one
    probe._probe(None, None)
    assert len(probe.samples) == 5 and probe.samples[-1] > 0


def test_every_alias_of_every_traced_function_is_wrapped():
    probe = (
        "import json, sys\n"
        f"sys.path.insert(0, {HERE!r})\n"
        "from tracer import Tracer, install, unwrapped_aliases, package_modules\n"
        "import cliquebound.counting as counting, cliquebound.enumeration as enumeration\n"
        "originals = install(Tracer())\n"
        "aliases = 0\n"
        "for _, mod in package_modules():\n"
        "    for attr, obj in vars(mod).items():\n"
        "        if getattr(obj, '__wrapped__', None) in originals.values():\n"
        "            aliases += 1\n"
        "print(json.dumps({'missed': unwrapped_aliases(originals), 'traced': len(originals),\n"
        "    'aliases': aliases,\n"
        "    'same': enumeration.clique_vector is counting.clique_vector}))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=run.child_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["missed"] == []
    assert report["same"] is True
    assert report["traced"] > 60
    assert report["aliases"] > report["traced"]  # re-exports and imports were rebound too


def test_traced_sweep_counts_are_exact_and_repeat():
    counts = []
    for index in range(2):
        unit = run.run_unit("sweep", 0, True, index)
        assert unit["check_failures"] == []
        counts.append({k: v for k, v in unit["layers"].items() if isinstance(v, int)})
    first, second = counts
    assert first["counting.clique_vector.calls"] == 26128
    assert first["structure.derive.calls"] == 15575
    assert first["graphs.Graph.calls"] == 60446
    assert first["canon.canonical_form_raw.calls"] == 0  # classes come from set-up
    assert first == second


def test_refuses_to_run_without_the_package_source():
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120,
        )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
