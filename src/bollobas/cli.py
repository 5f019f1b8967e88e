"""Command-line interface.

Subcommands: verify, sum, construct, search, simulate, certify, bounds.
Every report is a single JSON object on stdout with stable key order, so an
identical invocation (same args, same --seed) is byte-identical; wall-clock
time goes to stderr only.  Exit code 0 means pass / within bound, 1 means a
violation was found, 2 means usage or parse errors.

All randomness flows from the single --seed flag; each stage derives its own
child seed by labeled hashing, so adding a stage never perturbs another.

`verify`, `sum` and `simulate` read their input with `families.family_from_text`,
and so does `certify` when its input is a set family (a "tuples" document).

`main` parses with one parser per process, built on its first call, so
repeated in-process calls do not pay to build it again.

`main` runs each command, the subcommand and the writing of its report, with
the cyclic garbage collector paused, and turns it back on afterwards if it
was on when `main` was called.  Decoding a family document makes a JSON list
per part and per tuple (12,556 at the layered n = 9 family), and each
allocation burst sets off collector passes that walk containers which cannot
form a cycle.  A command's own cyclic garbage does not grow with its input
(a few dozen objects, from the closures of the indent=2 JSON encoder and of
the search's node expansion), and reference counting still frees everything
else as the command goes, so the pause holds back only that handful until
the collector runs again.  Library functions never touch the collector; only
a `main` call pauses it.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import constructions, events, search, sums
from .certificates import DEFAULT_MAX_RETRIES, check_size, derive_seed
from .certificates import certify as run_certify
from .errors import BollobasError, FormatError, SizeError
from .families import bollobas_violation, family_from_text, family_to_json, skew_violation
from .spaces import lift_to_spaces, subspace_family_from_json, subspace_family_to_json
from .wire import decode, fields


def _read_input(path: str | None) -> tuple[str, str]:
    """Return the input text and the sha256 digest of it."""
    if path is None:
        raise FormatError("this subcommand needs --input <path|->")
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        # stdin may decode invalid bytes to lone surrogates, which encode() rejects
        data = text.encode()
    except UnicodeError as exc:
        raise FormatError(f"input is not UTF-8 text: {exc}") from exc
    return text, "sha256:" + hashlib.sha256(data).hexdigest()


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise FormatError(f"bad type {text!r}; expected comma-separated integers") from exc
    return sizes


#: The most values of n `bounds` tabulates; the table is built and printed
#: whole.  A row costs microseconds at small d and about 20 ms at the arity
#: limit of `sums.recursive_bound` for n up to 64.
MAX_BOUND_ROWS = 1000


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError as exc:
        raise FormatError(f"bad range {text!r}") from exc
    if lo > hi:
        raise FormatError(f"bad range {text!r}: {lo} > {hi}")
    if hi - lo >= MAX_BOUND_ROWS:
        raise SizeError(f"range {text!r} holds more than {MAX_BOUND_ROWS} values of n")
    return range(lo, hi + 1)


def _too_large(exc: ValueError) -> SizeError:
    """The error for a number past the digit limit of int-to-str conversion."""
    return SizeError(f"result too large to print: {exc}")


def _exact(x: Fraction) -> str:
    """An exact rational as "p/q" text, the one JSON form of a Fraction in a report."""
    if not isinstance(x, Fraction):
        raise TypeError(f"{type(x).__name__} is not JSON serializable")
    try:
        return str(x)
    except ValueError as exc:
        raise _too_large(exc) from exc


def _emit(report: dict, output: str | None) -> None:
    try:
        text = json.dumps(report, indent=2, sort_keys=True, default=_exact) + "\n"
    except ValueError as exc:  # an int in the report past the digit limit
        raise _too_large(exc) from exc
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (args, input digest, results, exit code).

Outcome = tuple[dict, str | None, dict, int]


def _cmd_verify(ns) -> Outcome:
    text, digest = _read_input(ns.input)
    fam = family_from_text(text)
    violation = bollobas_violation(fam) if ns.mode == "bollobas" else skew_violation(fam)
    results = {
        "mode": ns.mode,
        "valid": violation is None,
        "violation": list(violation) if violation else None,
        "m": len(fam),
        "n": fam.n,
        "d": fam.d,
    }
    return {"mode": ns.mode}, digest, results, 0 if violation is None else 1


def _cmd_sum(ns) -> Outcome:
    text, digest = _read_input(ns.input)
    fam = family_from_text(text)
    if ns.which == "conjecture":
        value = sums.bollobas_sum(fam)
        bound = sums.recursive_bound(fam.n, fam.d)
    elif ns.which == "skew":
        value = sums.skew_sum(fam)
        bound = Fraction(1)
    else:
        value = sums.pair_weighted_sum(fam)
        bound = Fraction(1)
    results = {
        "which": ns.which,
        "value": value,
        "bound": bound,
        "within_bound": value <= bound,
        "m": len(fam),
        "n": fam.n,
        "d": fam.d,
    }
    return {"which": ns.which}, digest, results, 0 if value <= bound else 1


#: The most coordinates `construct` prints: s elements for each of its m
#: tuples of size s, and with --lift s basis rows of n coordinates more.  A
#: coordinate takes 23 to 40 bytes of output and 2 to 6 us to build and print
#: (2-vCPU Xeon VM, Python 3.11), so an admitted run takes well under a
#: second: `construct layered-triples --n 10` (89,530 coordinates) is
#: admitted and `--n 11` (282,183) is refused.
MAX_OUTPUT_COORDINATES = 100_000


def _checked_output(m: int, s: int, n: int, lift: bool) -> None:
    """Refuse to construct m tuples of size s on [n] past MAX_OUTPUT_COORDINATES."""
    coordinates = m * s * (1 + n) if lift else m * s
    constructions._checked_count(coordinates, MAX_OUTPUT_COORDINATES, "output coordinates")


def _cmd_construct(ns) -> Outcome:
    kind = ns.kind
    if kind == "complete-uniform":
        if ns.sizes is None:
            raise FormatError("construct complete-uniform needs --sizes")
        sizes = _parse_sizes(ns.sizes)
        _checked_output(constructions.complete_family_size(sizes), sum(sizes), sum(sizes), ns.lift)
        fam = constructions.complete_family(sizes)
        args = {"kind": kind, "sizes": list(sizes)}
    elif kind == "layered-triples":
        if ns.n is None:
            raise FormatError("construct layered-triples needs --n")
        _checked_output(constructions.layered_family_size(ns.n), ns.n, ns.n, ns.lift)
        fam = constructions.layered_triple_family(ns.n)
        args = {"kind": kind, "n": ns.n}
    else:
        if ns.n is None or ns.d is None:
            raise FormatError(f"construct {kind} needs --n and --d")
        sizes = _parse_sizes(ns.sizes) if ns.sizes else None
        _checked_output(ns.count, sum(sizes) if sizes else ns.n, ns.n, ns.lift)
        child = derive_seed(ns.seed, "construct")
        maker = (
            constructions.random_skew_family
            if kind == "random-skew"
            else constructions.random_bollobas_family
        )
        fam = maker(ns.n, ns.d, sizes, seed=child, target=ns.count)
        args = {
            "kind": kind,
            "n": ns.n,
            "d": ns.d,
            "sizes": list(sizes) if sizes else None,
            "count": ns.count,
        }
    results = {"m": len(fam), "family": family_to_json(fam)}
    if ns.lift:
        results["subspace_family"] = subspace_family_to_json(lift_to_spaces(fam))
    return args, None, results, 0


def _cmd_search(ns) -> Outcome:
    sizes = _parse_sizes(ns.type)
    fn = search.max_bollobas_uniform if ns.mode == "bollobas" else search.max_skew_uniform
    result = fn(ns.n, sizes, node_budget=ns.node_budget)
    results = {
        "mode": ns.mode,
        "n": ns.n,
        "type": list(sizes),
        "max_size": result.max_size,
        "bound": result.bound,
        "nodes_explored": result.nodes_explored,
        "witness": family_to_json(result.witness),
    }
    return {"mode": ns.mode, "n": ns.n, "type": list(sizes)}, None, results, 0


def _cmd_simulate(ns) -> Outcome:
    text, digest = _read_input(ns.input)
    fam = family_from_text(text)
    child = derive_seed(ns.seed, "simulate")
    rep = events.monte_carlo(fam, ns.mode, ns.trials, child)
    results = {
        "mode": rep.mode,
        "trials": rep.trials,
        "hits": list(rep.hits),
        "estimates": rep.estimates,
        "estimates_decimal": [f"{float(e):.9f}" for e in rep.estimates],
        "formula_values": rep.formula_values,
        "max_simultaneous_hits": rep.max_simultaneous_hits,
        "events_disjoint": rep.max_simultaneous_hits <= 1,
    }
    code = 0 if rep.max_simultaneous_hits <= 1 else 1
    return {"mode": ns.mode, "trials": ns.trials}, digest, results, code


def _cmd_certify(ns) -> Outcome:
    text, digest = _read_input(ns.input)
    obj = decode(text)
    if not isinstance(obj, dict):
        raise FormatError("certify input JSON must be an object")
    # the limits that need only m and d are checked before any subspace is built
    if "tuples" in obj:
        sets = family_from_text(text)
        check_size(len(sets), sets.d)
        fam = lift_to_spaces(sets)
    elif "entries" in obj:
        _, d, entries = fields(obj, "subspace family", ("n", "d"), "entries")
        check_size(len(entries), d)
        fam = subspace_family_from_json(obj)
    else:
        raise FormatError("input is neither a set family (tuples) nor a subspace family (entries)")
    child = derive_seed(ns.seed, "certify")
    cert = run_certify(fam, seed=child, max_retries=ns.max_retries)
    results = {
        "m": cert.m,
        "sizes": list(cert.sizes),
        "size_bound": cert.size_bound,
        "verdict": "pass" if cert.verdict else "fail",
        "skew_ok": cert.skew_ok,
        "skew_violation": list(cert.skew_violation) if cert.skew_violation else None,
        "violations": [list(v) for v in cert.violations],
        "retries": list(cert.retries),
        # as text up front: the indent=2 encoder would call `default` per cell
        "evaluation": [[_exact(x) for x in row] for row in cert.evaluation],
    }
    return {"max_retries": ns.max_retries}, digest, results, 0 if cert.verdict else 1


def _cmd_bounds(ns) -> Outcome:
    rows = [{"n": n, "bound": sums.recursive_bound(n, ns.d)} for n in _parse_range(ns.n)]
    return {"n": ns.n, "d": ns.d}, None, {"d": ns.d, "rows": rows}, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bollobas",
        description="Exact toolkit for cross-intersecting d-tuple systems.",
    )
    parser.add_argument("--input", help="input JSON path, or - for stdin")
    parser.add_argument("--output", help="output path, or - for stdout (default)")
    parser.add_argument("--seed", type=int, default=0, help="root seed for all randomness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the (skew) cross condition of a family")
    p.add_argument("--mode", choices=["bollobas", "skew"], default="bollobas")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sum", help="evaluate a weighted sum and compare to its bound")
    p.add_argument("--which", choices=["conjecture", "skew", "pair_weighted"], required=True)
    p.set_defaults(fn=_cmd_sum)

    p = sub.add_parser("construct", help="emit a generated family as JSON")
    p.add_argument("kind", choices=["complete-uniform", "layered-triples", "random-skew", "random-bollobas"])
    p.add_argument("--sizes", help="comma-separated part sizes, e.g. 1,1,2")
    p.add_argument("--n", type=int, help="ground set size")
    p.add_argument("--d", type=int, help="arity for random kinds")
    p.add_argument("--count", type=int, default=10, help="target size for random kinds")
    p.add_argument("--lift", action="store_true", help="also emit the coordinate-subspace lift")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("search", help="exhaustive maximum uniform system")
    p.add_argument("--mode", choices=["bollobas", "skew"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--type", required=True, help="comma-separated part sizes")
    p.add_argument("--node-budget", type=int, default=None)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("simulate", help="Monte Carlo delimiter-event statistics")
    p.add_argument("--mode", choices=list(events.MODES), required=True)
    p.add_argument("--trials", type=int, required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("certify", help="size-bound certificate for a uniform skew family")
    p.add_argument("--max-retries", type=int, default=DEFAULT_MAX_RETRIES)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("bounds", help="tabulate the exact sum bound over n")
    p.add_argument("--n", required=True, help="single value or range lo..hi")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(fn=_cmd_bounds)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` reuses for every call in a process, built on first use.

    Sharing is safe: parsing only reads the parser, its defaults are
    immutable values and module-level functions, and each call gets a fresh
    Namespace.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    ns = _shared_parser().parse_args(argv)
    started = time.perf_counter()
    collecting = gc.isenabled()
    gc.disable()  # for the command only; see the module docstring
    try:
        args, digest, results, code = ns.fn(ns)
        report = dict(command=ns.command, args=args, input_digest=digest, seed=ns.seed, results=results)
        _emit(report, ns.output)
    except (BollobasError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"elapsed_ms={elapsed_ms:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
