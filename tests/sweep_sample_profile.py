"""Time and profile one sweep chunk of a seeded sample of the (9, 8) classes.

Run from anywhere, with no options:

    python tests/sweep_sample_profile.py

It draws ``random.Random(9).sample(class_keys(9, 8), 8000)``, runs
``enumeration._sweep_chunk`` on those keys three times, and prints the
least CPU time, the sha256 of the chunk's output, and the eight functions
with the most own time in one more run under cProfile.  Generating the
(9, 8) classes comes first and is not timed.  The file's name keeps pytest
from collecting it.
"""

import cProfile
import hashlib
import json
import pstats
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cliquebound.enumeration import _sweep_chunk, class_keys

SAMPLE = 8000
RUNS = 3
TOP = 8


def main() -> None:
    args = (random.Random(9).sample(class_keys(9, 8), SAMPLE), (9, 8))
    times = []
    for _ in range(RUNS):
        start = time.process_time()
        out = _sweep_chunk(args)
        times.append(time.process_time() - start)
    digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
    print(f"_sweep_chunk, {SAMPLE} (9, 8) classes: {min(times):.3f} s CPU, least of {RUNS}")
    print(f"output sha256 {digest}")
    profile = cProfile.Profile()
    profile.runcall(_sweep_chunk, args)
    stats = pstats.Stats(profile).stats
    total = sum(own for _, _, own, _, _ in stats.values())
    print(f"cProfile, {total:.3f} s own time in all; the top {TOP}:")
    print(f"{'own s':>8} {'cum s':>8} {'calls':>9}  function")
    leaders = sorted(stats.items(), key=lambda item: item[1][2], reverse=True)
    for (path, line, name), (_, calls, own, cumulative, _) in leaders[:TOP]:
        print(f"{own:8.3f} {cumulative:8.3f} {calls:9d}  {Path(path).name}:{line}({name})")


if __name__ == "__main__":
    main()
