"""Command-line front door: counting, verification, rewriting, generation.

Every invocation emits one self-describing document (JSON by default,
``--format table`` for a human-readable view).  Exit codes:

* 0 — success, nothing falsified, no parse errors
* 1 — a verified bound was violated (this would falsify the underlying claim)
* 2 — usage error, capacity cap exceeded, or bad arguments
* 3 — at least one malformed graph6 input line (remaining lines processed)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from . import __version__, graph6
from .counting import clique_vector, independent_vector
from .enumeration import consistency_sweep, generate, generate_regular, verify_main
from .errors import CapacityError, Graph6ParseError
from .graphs import bit_list, mask_of
from .structure import clusters_among, derive, tight_cliques
from .transform import RewriteReport, apply_fill, hill_climb

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3


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
    if path is None or path == "-":
        data = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            data = fh.read()
    return [line.strip() for line in data.splitlines() if line.strip()]


def cmd_count(args) -> int:
    t0 = time.monotonic()
    records = []
    had_error = False
    for i, line in enumerate(_read_graph6_lines(args.input), start=1):
        try:
            g = graph6.decode(line)
        except Graph6ParseError as exc:
            had_error = True
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
                had_error = True
            else:
                tights = [derive(g, args.r, t) for t in tight_cliques(g, args.r, 1)]
                rec["tight_cliques"] = [bit_list(ts.T) for ts in tights]
                rec["clusters"] = [
                    bit_list(cl.T) for cl in clusters_among(g, args.r, tights)
                ]
        records.append(rec)
    doc = _document(
        "count",
        {"input": args.input or "-", "tight": args.tight, "r": args.r},
        {"graphs": records},
        t0,
    )
    _emit(doc, args)
    return EXIT_PARSE if had_error else EXIT_OK


def _verification_jsonable(rep) -> dict:
    return {
        "n": rep.n,
        "r": rep.r,
        "graph_count": rep.graph_count,
        "max_k": rep.max_k,
        "bound": rep.bound,
        "extremal": list(rep.extremal),
        "equality_matches_characterization": rep.equality_matches_characterization,
        "bound_holds": rep.bound_holds,
        "runtime_seconds": round(rep.runtime_seconds, 6),
    }


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    falsified = False
    results: dict = {}
    if args.sweep:
        n_max, r_max = args.sweep
        verifications = []
        for n in range(1, n_max + 1):
            # widest cap first, so every narrower cap filters the cached classes
            for r in range(max(min(r_max, n - 1), 1), 0, -1):
                rep = verify_main(n, r, workers=args.workers)
                verifications.append(_verification_jsonable(rep))
                falsified |= not rep.bound_holds
        verifications.sort(key=lambda v: (v["n"], v["r"]))
        sweep = consistency_sweep(
            n_max, r_max, workers=args.workers, checkpoint=args.checkpoint
        )
        falsified |= sweep.tallies.get("extremal_bound", [0, 0, 0])[2] > 0
        results["verifications"] = verifications
        results["consistency"] = sweep.to_jsonable()
        parameters = {"sweep": True, "n_max": n_max, "r_max": r_max}
    else:
        rep = verify_main(args.n, args.r, workers=args.workers)
        falsified = not rep.bound_holds
        results["verifications"] = [_verification_jsonable(rep)]
        parameters = {"sweep": False, "n": args.n, "r": args.r}
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
    if args.regular is not None:
        stream = generate_regular(args.n, args.regular, workers=args.workers)
    else:
        stream = generate(args.n, args.r, workers=args.workers)
    out = sys.stdout if not args.out else open(args.out, "w", encoding="utf-8")
    try:
        for g in stream:
            out.write(graph6.encode(g) + "\n")
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
    parser.add_argument("--workers", type=int, default=1, help="worker processes")
    parser.add_argument("--format", choices=["json", "table"], default="json")
    parser.add_argument("--checkpoint", help="sweep checkpoint file")
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
    if args.subcommand == "verify" and not args.sweep and (args.n is None or args.r is None):
        parser.error("verify needs n and r, or --sweep N_MAX R_MAX")
    if args.subcommand == "count" and args.tight and args.r is None:
        parser.error("--tight requires -r")
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
