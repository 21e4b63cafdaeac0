"""Command-line front door: counting, verification, rewriting, generation.

Every invocation emits one self-describing document (JSON by default,
``--format table`` for a human-readable view).  Exit codes:

* 0 — success, nothing falsified, no parse errors
* 1 — a verified bound was violated (this would falsify the underlying claim),
  or a ``verify --sweep`` predicate failed outside ``FAILING_BY_DESIGN``
* 2 — usage error, capacity cap exceeded, bad arguments, or a checkpoint
  line that is not a finished-unit record (bytes not UTF-8 or failure sides
  not integers included); for ``count``, a line over the 64-vertex capacity
  or, with ``--tight``, one whose maximum degree exceeds ``-r`` (such a line
  carries an ``error``, and the other lines are still counted)
* 3 — at least one malformed graph6 input line (remaining lines processed);
  this wins over a line over the capacity or the cap in the same input
* 4 — internal fault: two computations of one quantity disagreed, or
  generation produced a class twice (a bug in this package, not a verdict)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from typing import List, Optional

from . import __version__, graph6
from .counting import clique_vector, independent_vector
from .enumeration import (
    SWEEP_MAX_VERTICES,
    class_keys,
    consistency_sweep,
    generate_regular,
    verify_main,
)
from .errors import CapacityError, Graph6ParseError, InternalConsistencyError
from .graphs import bit_list, mask_of
from .structure import clusters_among, derive, tight_structures
from .transform import RewriteReport, apply_fill, hill_climb

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INTERNAL = 4

# Sweep predicates that fail by design (README, "Consistency sweep and
# checkpoints"): the as-printed profitability threshold, and the cluster
# predicates evaluated where their lemmas' hypotheses do not hold.  A
# failure of any other predicate makes ``verify --sweep`` exit 1.
FAILING_BY_DESIGN = frozenset(
    {"fill_threshold_literal", "cluster_large_loss", "cluster_large_loss_size1",
     "associated_low_weight"}
)


def _document(command: str, parameters: dict, results, t0: float) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "results": results,
        "version": __version__,
        "wall_time_seconds": round(time.monotonic() - t0, 6),
    }


def _emit(doc: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(doc, sort_keys=True, indent=2)
    else:
        text = _render_table(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _render_table(doc: dict) -> str:
    lines = [f"# {doc['command']} (v{doc['version']}, {doc['wall_time_seconds']}s)"]
    results = doc["results"]
    if doc["command"] == "count":
        for rec in results["graphs"]:
            if "error" in rec:
                lines.append(f"line {rec['line']}: ERROR {rec['error']}")
                continue
            lines.append(
                f"line {rec['line']}: {rec['graph6']} n={rec['n']} "
                f"k={rec['k']} i={rec['i']} deg=[{rec['min_degree']},{rec['max_degree']}] "
                f"k-vector={rec['clique_vector']}"
            )
            if "tight_cliques" in rec:
                lines.append(
                    f"  tight={rec['tight_cliques']} clusters={rec['clusters']}"
                )
    elif doc["command"] == "verify":
        for rec in results.get("verifications", []):
            lines.append(
                f"n={rec['n']} r={rec['r']}: classes={rec['graph_count']} "
                f"max_k={rec['max_k']} bound={rec['bound']} "
                f"characterization={'ok' if rec['equality_matches_characterization'] else 'MISMATCH'}"
            )
        consistency = results.get("consistency")
        if consistency:
            lines.append("predicate tallies (applicable/passed/failed):")
            for pred, (a, p, f) in consistency["tallies"].items():
                lines.append(f"  {pred}: {a}/{p}/{f}")
            lines.append(f"failures: {len(consistency['failures'])}")
    elif doc["command"] == "transform":
        for step in results["trace"]:
            lines.append(
                f"{step['move']} T={step['tight']}: k {step['k_before']} -> {step['k_after']} "
                f"(proven >= {step['k_before'] + step['gain_lower_bound']})"
            )
        lines.append(f"final: {results['final_graph6']} k={results['final_k']}")
    else:
        lines.append(json.dumps(results, sort_keys=True))
    return "\n".join(lines)


def _read_graph6_lines(path: Optional[str]) -> List[str]:
    """The nonblank lines of the file at ``path``, or of stdin for None or
    "-".  Bytes that are not UTF-8 read as U+FFFD, which graph6 rejects, so
    each line holding them is a parse error of its own."""
    if path is None or path == "-":
        # the bytes under a text stdin; a stream with none is read as text
        data = getattr(sys.stdin, "buffer", sys.stdin).read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    return [line.strip() for line in data.splitlines() if line.strip()]


def cmd_count(args) -> int:
    t0 = time.monotonic()
    records = []
    malformed = over_cap = False
    for i, line in enumerate(_read_graph6_lines(args.input), start=1):
        try:
            g = graph6.decode(line)
        except (Graph6ParseError, CapacityError) as exc:
            malformed |= isinstance(exc, Graph6ParseError)
            over_cap |= isinstance(exc, CapacityError)
            records.append({"line": i, "graph6": line, "error": str(exc)})
            continue
        kvec = clique_vector(g)
        ivec = independent_vector(g)
        rec = {
            "line": i,
            "graph6": line,
            "n": g.n,
            "clique_vector": list(kvec),
            "independent_vector": list(ivec),
            "k": kvec.total,
            "i": ivec.total,
            "max_degree": g.max_degree(),
            "min_degree": g.min_degree(),
        }
        if args.tight:
            if g.max_degree() > args.r:
                rec["error"] = f"max degree {g.max_degree()} exceeds r={args.r}"
                over_cap = True
            else:
                tights = tight_structures(g, args.r)
                rec["tight_cliques"] = [bit_list(ts.T) for ts in tights]
                rec["clusters"] = [
                    bit_list(cl.T) for cl in clusters_among(g, args.r, tights)
                ]
        records.append(rec)
    parameters = {"input": args.input or "-", "tight": args.tight}
    if args.tight:
        parameters["r"] = args.r
    _emit(_document("count", parameters, {"graphs": records}, t0), args)
    if malformed:
        return EXIT_PARSE
    return EXIT_USAGE if over_cap else EXIT_OK


def _verification_jsonable(rep) -> dict:
    return {
        **asdict(rep),
        "bound_holds": rep.bound_holds,
        "runtime_seconds": round(rep.runtime_seconds, 6),
    }


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    results: dict = {}
    if args.sweep:
        n_max, r_max = args.sweep
        reports = []
        for n in range(1, n_max + 1):
            caps = range(1, max(min(r_max, n - 1), 1) + 1)
            reports += verify_main(n, caps, workers=args.workers)
        sweep = consistency_sweep(n_max, r_max, workers=args.workers, checkpoint=args.checkpoint)
        falsified = any(
            failed and pred not in FAILING_BY_DESIGN
            for pred, (_, _, failed) in sweep.tallies.items()
        )
        results["consistency"] = sweep.to_jsonable()
        parameters = {"sweep": True, "n_max": n_max, "r_max": r_max}
    else:
        reports = verify_main(args.n, [args.r], workers=args.workers)
        falsified = False
        parameters = {"sweep": False, "n": args.n, "r": args.r}
    results["verifications"] = [_verification_jsonable(rep) for rep in reports]
    falsified |= not all(rep.bound_holds for rep in reports)
    parameters["workers"] = args.workers
    _emit(_document("verify", parameters, results, t0), args)
    return EXIT_FALSIFIED if falsified else EXIT_OK


def _step_jsonable(step: RewriteReport) -> dict:
    return {
        "move": step.move,
        "tight": bit_list(step.tight_structure.T),
        "k_before": step.k_before,
        "k_after": step.k_after,
        "gain": step.gain,
        "gain_lower_bound": step.gain_lower_bound,
        "after_graph6": graph6.encode(step.after),
    }


def cmd_transform(args) -> int:
    t0 = time.monotonic()
    lines = _read_graph6_lines(args.input)
    if not lines:
        raise ValueError("transform needs one graph6 input line")
    if len(lines) > 1:
        raise ValueError(f"transform takes one graph6 input line, got {len(lines)}")
    try:
        g = graph6.decode(lines[0])
    except Graph6ParseError as exc:
        print(f"graph6 parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if g.max_degree() > args.r:
        raise ValueError(f"max degree {g.max_degree()} exceeds r={args.r}")
    if args.move is not None:
        vertices = [int(v) for v in args.move.split(",")]
        if not all(0 <= v < g.n for v in vertices):
            raise ValueError(f"--move vertices must lie in 0..{g.n - 1}")
        ts = derive(g, args.r, mask_of(vertices))
        trace = [apply_fill(g, ts, clique_vector(g).total)]
    else:
        trace = hill_climb(g, args.r)
    results = {
        "trace": [_step_jsonable(step) for step in trace],
        "final_graph6": graph6.encode(trace[-1].after if trace else g),
        "final_k": trace[-1].k_after if trace else clique_vector(g).total,
    }
    parameters = {"input": args.input or "-", "r": args.r,
                  "greedy": args.greedy, "move": args.move}
    _emit(_document("transform", parameters, results, t0), args)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.regular is None:
        # each stored key packs straight to its class's canonical graph6
        lines = (graph6.pack(args.n, key) for key in class_keys(args.n, args.r, args.workers))
    elif args.r < 0:
        raise ValueError("n and r must be nonnegative")
    elif args.regular > args.r:
        lines = iter(())  # a D-regular graph has maximum degree D > R
    else:
        lines = map(graph6.encode, generate_regular(args.n, args.regular, workers=args.workers))
    out = sys.stdout if not args.out else open(args.out, "w", encoding="utf-8")
    try:
        for line in lines:
            out.write(line + "\n")
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquebound",
        description="Count cliques/independent sets in degree-bounded graphs "
        "and verify the extremal bounds exhaustively on small graphs.",
    )
    parser.add_argument("--workers", type=int, default=1, metavar="WORKERS",
                        choices=range(1, (os.cpu_count() or 1) + 1),
                        help="worker processes, 1 up to the CPU count")
    parser.add_argument("--format", choices=["json", "table"], default="json")
    parser.add_argument("--checkpoint", help="checkpoint file of verify --sweep")
    parser.add_argument("--out", help="write the report to a file instead of stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("count", help="clique/independent-set statistics per graph6 line")
    p.add_argument("input", nargs="?", help="graph6 file ('-' or omitted: stdin)")
    p.add_argument("--tight", action="store_true", help="also list tight cliques and clusters")
    p.add_argument("-r", type=int, help="degree cap used by --tight")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="exhaustive bound verification")
    p.add_argument("n", type=int, nargs="?")
    p.add_argument("r", type=int, nargs="?")
    p.add_argument("--sweep", type=int, nargs=2, metavar=("N_MAX", "R_MAX"),
                   help="verify all n <= N_MAX, r <= R_MAX and run every consistency predicate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("transform", help="apply clique-increasing rewrites")
    p.add_argument("input", nargs="?", help="graph6 file ('-' or omitted: stdin)")
    p.add_argument("-r", type=int, required=True, help="degree cap")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--greedy", action="store_true", help="hill-climb to a local maximum")
    group.add_argument("--move", help="fill one tight clique, given as comma-separated vertices")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("gen", help="emit one graph6 line per isomorphism class")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--regular", type=int, metavar="D", help="restrict to exactly-D-regular graphs")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "verify" and args.sweep:
        if args.n is not None or min(args.sweep) < 1 or args.sweep[0] > SWEEP_MAX_VERTICES:
            parser.error(f"verify --sweep takes 1 <= N_MAX <= {SWEEP_MAX_VERTICES}, "
                         "R_MAX >= 1, and no n r")
    elif args.subcommand == "verify" and (args.n is None or args.r is None):
        parser.error("verify needs n and r, or --sweep N_MAX R_MAX")
    if args.subcommand == "count" and args.tight and args.r is None:
        parser.error("--tight requires -r")
    if args.subcommand == "count" and args.r is not None and not args.tight:
        parser.error("-r applies only to count --tight")
    if args.checkpoint is not None and not (args.subcommand == "verify" and args.sweep):
        parser.error("--checkpoint applies only to verify --sweep")
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
