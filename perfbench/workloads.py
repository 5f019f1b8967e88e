"""Seeded inputs, job lists and output checks for the three workloads.

Set-up makes every input from the run's seed with the package's own
constructions and writes it as JSON into the run's work directory; the jobs
hand only those files, or sizes on the command line, to the program.  The
checks recompute each expected answer from closed forms with ``math`` and
``fractions``, never with the package under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable


@dataclass
class Job:
    name: str
    run: Callable[[], tuple[int, str]]  # exit code and stdout
    check: Callable[[int, str], str | None]  # what is wrong with the output, or None
    count: Callable[[str], dict[str, float]]  # work counters derived from the output
    cli: bool = True


def multinomial(sizes) -> int:
    out = math.factorial(sum(sizes))
    for a in sizes:
        out //= math.factorial(a)
    return out


def event_variants(sizes, mode: str) -> int:
    """Distinct delimiter patterns of one tuple: skew has one; d3 and general
    put a delimiter in every gap but one, and patterns can coincide when a
    part is empty."""
    if mode == "skew":
        return 1
    d = len(sizes)
    patterns = set()
    for skipped in range(1, d):
        seq: list[int] = []
        for g, a in enumerate(sizes):
            if g and g != skipped:
                seq.append(0)
            seq.extend([g + 1] * a)
        patterns.add(tuple(seq))
    return len(patterns)


def event_probability(sizes, mode: str) -> Fraction:
    """Closed form of one event variant: 1 / (C(s + g, g) * multinomial), g delimiters
    (d - 1 in skew mode, d - 2 in d3 and general mode)."""
    s, d = sum(sizes), len(sizes)
    gaps = d - 1 if mode == "skew" else d - 2
    return Fraction(1, math.comb(s + gaps, gaps) * multinomial(sizes))


def pairs_checked(mode: str, m: int, violation) -> int:
    """Pairs a lexicographic scan visits up to and including the reported violation."""
    if mode == "bollobas":
        if violation is None:
            return m * (m - 1)
        i, j = violation
        return (i - 1) * (m - 1) + (j if j < i else j - 1)
    if violation is None:
        return m * (m - 1) // 2
    i, j = violation
    return (i - 1) * m - (i - 1) * i // 2 + (j - i)


def _problem(ok: bool, message: str) -> str | None:
    return None if ok else message


class Builder:
    """Collects one workload's jobs; set-up calls the package through it."""

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.seed = seed
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.jobs: list[Job] = []

    def write(self, name: str, obj) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def scrambled(self, fam):
        """Relabel the ground set and shuffle the tuple order; two-sided validity is unchanged."""
        F = self.pkg.families
        perm = list(range(1, fam.n + 1))
        self.rng.shuffle(perm)
        tuples = list(F.relabel(fam, perm).tuples)
        self.rng.shuffle(tuples)
        return F.Family(fam.n, fam.d, tuple(tuples))

    def single(self, n: int, sizes):
        """One-tuple family of the given type on seed-drawn elements of [n]."""
        F = self.pkg.families
        elems = self.rng.sample(range(1, n + 1), sum(sizes))
        parts, at = [], 0
        for a in sizes:
            parts.append(elems[at : at + a])
            at += a
        return F.Family.build(n, [parts])

    def cli(self, name: str, argv: list[str], code: int, check, count=None) -> None:
        """A job that runs the CLI in process; check gets the report's results."""
        module = self.pkg.cli
        argv = ["--seed", str(self.seed)] + argv

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    got = module.main(argv)
                except SystemExit as exc:
                    got = exc.code
            return got, out.getvalue()

        def checked(got, out):
            if got != code:
                return f"exit code {got}, expected {code}"
            return check(json.loads(out)["results"])

        def counted(out):
            return count(json.loads(out)["results"]) if count else {}

        self.jobs.append(Job(name, run, checked, counted))


# ---------------------------------------------------------------------------
# scan: pair scans in families and the adjacency build in search.


def _verify_check(m: int, violation):
    def check(res):
        return _problem(
            res["valid"] is (violation is None) and res["violation"] == violation and res["m"] == m,
            f"verify reported {res['violation']}, expected {violation} on m = {m}",
        )

    return check


def _verify_count(mode: str, m: int):
    return lambda res: {"families.pairs_checked": pairs_checked(mode, m, res["violation"])}


def scan(b: Builder) -> None:
    F = b.pkg.families
    # A full scan at n = 9 takes several seconds and one at n = 8 about one,
    # so n = 9 is only scanned where the violation is found early and n = 8
    # is fully scanned only in skew mode with the late violation; a pass then
    # takes about two seconds, and a run repeats every job a dozen times.
    # The list has 35 jobs, and 0.5 * 35 and 0.9 * 35 both end in .5.  The
    # 50th percentile rank falls inside the four jobs of 13 to 17 ms (the
    # early exits at n = 8 and the skew scans of n = 6), and the 90th in the
    # middle of the copies of the fourth dearest job, a scan at n = 7.
    kinds = {
        5: ("early", "valid", "late", "conjecture", "skew"),
        6: ("early", "valid", "late", "conjecture", "skew"),
        7: ("early", "valid", "late", "conjecture", "skew"),
        8: ("early", "late", "conjecture"),
        9: ("early", "conjecture"),
    }
    for n, wanted in kinds.items():
        fam = b.scrambled(b.pkg.constructions.layered_triple_family(n))
        ts, m = fam.tuples, len(fam)
        valid = b.write(f"layered{n}.json", F.family_to_json(fam))
        # the two copies of one tuple are the only pair that fails, at the front or the back
        planted = {
            "early": (F.Family(n, 3, (ts[0],) + ts), [1, 2]),
            "late": (F.Family(n, 3, ts + (ts[-1],)), [m, m + 1]),
        }
        for kind in ("early", "valid", "late"):
            if kind not in wanted:
                continue
            path, size, violation = valid, m, None
            if kind in planted:
                path = b.write(f"layered{n}-{kind}.json", F.family_to_json(planted[kind][0]))
                size, violation = m + 1, planted[kind][1]
            for mode in ("bollobas", "skew"):
                if (n, kind, mode) == (8, "late", "bollobas"):
                    continue
                b.cli(f"verify-{mode}-n{n}-{kind}", ["--input", path, "verify", "--mode", mode],
                      0 if violation is None else 1, _verify_check(size, violation),
                      _verify_count(mode, size))
        layers = n // 2 + 1
        sums = {
            "conjecture": (Fraction(layers), Fraction(n + 3, 2)),
            "skew": (Fraction(layers, math.comb(n + 2, 2)), Fraction(1)),
        }
        for which, (value, bound) in sums.items():
            if which not in wanted:
                continue
            b.cli(f"sum-{which}-n{n}", ["--input", valid, "sum", "--which", which], 0,
                  lambda res, value=value, bound=bound: _problem(
                      Fraction(res["value"]) == value and Fraction(res["bound"]) == bound
                      and res["within_bound"] is True,
                      f"sum {res['value']} / bound {res['bound']}, expected {value} / {bound}"))
    for n, sizes in ((7, (2, 1, 1)), (6, (1, 1, 1, 1))):
        want = multinomial(sizes)
        for mode in ("bollobas", "skew"):
            b.cli(f"search-{mode}-n{n}-{''.join(map(str, sizes))}",
                  ["search", "--mode", mode, "--n", str(n), "--type", ",".join(map(str, sizes))], 0,
                  lambda res, want=want: _problem(
                      res["max_size"] == res["bound"] == want == len(res["witness"]["tuples"]),
                      f"search found {res['max_size']} / bound {res['bound']}, expected {want}"),
                  lambda res: {"search.nodes_explored": res["nodes_explored"],
                               "search.max_size": res["max_size"]})


# ---------------------------------------------------------------------------
# simulate: delimiter events in events, Monte Carlo and the exact oracle.


def _simulate_check(types, mode: str, trials: int):
    expected = [event_variants(s, mode) * event_probability(s, mode) for s in types]
    total = sum(expected)

    def check(res):
        if res["max_simultaneous_hits"] > 1 or res["events_disjoint"] is not True:
            return f"{res['max_simultaneous_hits']} events met in one trial"
        if [Fraction(x) for x in res["formula_values"]] != expected:
            return "formula values differ from the closed forms"
        if res["trials"] != trials or len(res["hits"]) != len(types):
            return "wrong trial or tuple count"
        hits = sum(res["hits"])
        sd = math.sqrt(trials * total * (1 - total))
        return _problem(abs(hits - trials * total) <= 6 * sd,
                        f"{hits} hits, expected {float(trials * total):.1f} +- {sd:.1f}")

    return check


def simulate(b: Builder) -> None:
    F, C = b.pkg.families, b.pkg.constructions
    # Trials put most jobs near one cost and the general-mode jobs of five
    # families near four times that, so the median and the 90th percentile
    # each fall inside a group of jobs of about the same cost.  A pass takes
    # a few seconds, so a run repeats every job several times.
    runs = [
        ("layered6", b.scrambled(C.layered_triple_family(6)), {"skew": 210, "d3": 500, "general": 480}),
        ("layered5", b.scrambled(C.layered_triple_family(5)), {"skew": 720, "d3": 1320, "general": 1080}),
        ("layered4", b.scrambled(C.layered_triple_family(4)), {"skew": 1560, "d3": 3240, "general": 3000}),
        ("complete1111", b.scrambled(C.complete_family((1, 1, 1, 1))), {"skew": 1200, "general": 1620}),
        ("complete111", b.scrambled(C.complete_family((1, 1, 1))), {"skew": 5220, "d3": 6960, "general": 2280}),
        ("single222", b.single(8, (2, 2, 2)), {"skew": 11100, "d3": 15000, "general": 28800}),
        ("single3021", b.single(9, (3, 0, 2, 1)), {"skew": 10800, "general": 7200}),
    ]
    for label, fam, trials_by_mode in runs:
        path = b.write(f"{label}.json", F.family_to_json(fam))
        types = [t.type() for t in fam.tuples]
        for mode, trials in trials_by_mode.items():
            checks = trials * sum(event_variants(s, mode) for s in types)
            b.cli(f"simulate-{mode}-{label}",
                  ["--input", path, "simulate", "--mode", mode, "--trials", str(trials)], 0,
                  _simulate_check(types, mode, trials),
                  lambda res, checks=checks: {"events.trials": res["trials"], "events.tuple_checks": checks})
    # relevant elements r = s + delimiters: 8, 9 and 10 in skew mode, 8 and 9
    # in general mode, 9 in d3 mode; general mode at r = 10 is too slow for one job
    oracle = [("skew", (2, 2, 2)), ("skew", (3, 2, 2)), ("skew", (3, 3, 2)),
              ("general", (2, 2, 1, 1)), ("general", (3, 3, 2)), ("d3", (3, 3, 2))]
    events = b.pkg.events
    for mode, sizes in oracle:
        sizes = tuple(b.rng.sample(sizes, len(sizes)))
        path = Path(b.write(f"exact-{mode}-{''.join(map(str, sizes))}.json",
                            F.family_to_json(b.single(10, sizes))))
        want = event_probability(sizes, mode)
        r = sum(sizes) + (len(sizes) - 1 if mode == "skew" else len(sizes) - 2)

        def run(path=path, mode=mode):
            fam = F.family_from_json(json.loads(path.read_text(encoding="utf-8")))
            return 0, str(events.exact_event_probability(fam, 1, mode))

        job = Job(f"exact-{mode}-r{r}", run,
                  lambda code, out, want=want: _problem(Fraction(out) == want, f"{out}, expected {want}"),
                  lambda out, r=r: {"events.exact_orderings": math.factorial(r)}, cli=False)
        b.jobs.append(job)


# ---------------------------------------------------------------------------
# certify: elimination in exterior and the projections in certificates.


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """Row-permuted product of random unit lower and upper triangular 0/+-1 matrices (det +-1)."""
    lower = [[1 if i == j else rng.choice((-1, 0, 1)) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.choice((-1, 0, 1)) if j > i else 0 for j in range(n)] for i in range(n)]
    out = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    rng.shuffle(out)
    return out


def _rotated(fam, rng: random.Random) -> dict:
    """Subspace-family JSON: each element e becomes row e of a seed-drawn unimodular matrix,
    so every dimension and intersection of the lift is kept but no basis is coordinate."""
    u = _unimodular(rng, fam.n)
    entries = [[[[str(x) for x in u[e - 1]] for e in part] for part in t.parts()] for t in fam.tuples]
    return {"n": fam.n, "d": fam.d, "entries": entries}


def _certify_count(d: int):
    def count(res):
        m = res["m"]
        return {
            "certificates.constraints": sum(m + m * m * k * k for k in range(2, d + 1)),
            "certificates.draws": sum(r + 1 for r in res["retries"]),
            "certificates.accepted": len(res["retries"]),
        }

    return count


def _certify_check(m: int, sizes):
    bound = multinomial(sizes)

    def check(res):
        return _problem(
            res["verdict"] == "pass" and res["skew_ok"] is True and res["m"] == m
            and res["size_bound"] == bound and m <= bound and res["violations"] == [],
            f"certify gave {res['verdict']} with m = {res['m']}, bound {res['size_bound']}",
        )

    return check


def certify(b: Builder) -> None:
    F, C = b.pkg.families, b.pkg.constructions
    # (type, m, also rotated); all of complete (1,1,1,1), m = 24, is too slow
    # for one job, so it is cut to m = 6 and 3, and only m = 3 is rotated,
    # so that a pass takes a few seconds and a run repeats every job.  The
    # three dearest jobs each run once in the list of 25, so the 90th
    # percentile rank, 22.5 of 25, falls in the middle of the copies of the
    # third dearest, lifted (2,1,1) with m = 6.
    cases = [
        ((1, 1, 1, 1), 6, False),
        ((1, 1, 1, 1), 3, True),
        ((2, 1, 1), 12, False),
        ((2, 1, 1), 6, False),
        ((2, 1, 1), 3, False),
        ((1, 1, 1), 6, True),
        ((1, 1, 1), 4, True),
        ((2, 2), 6, True),
        ((2, 2), 4, True),
        ((3, 1), 4, True),
        ((1, 3), 4, True),
        ((2, 1), 3, True),
        ((1, 2), 3, True),
        ((1, 1), 2, True),
    ]
    for sizes, m, rotate in cases:
        label = "".join(map(str, sizes))
        full = C.complete_family(sizes)
        # any subset of a two-sided system, in any order, is a skew system
        fam = b.scrambled(F.Family(full.n, full.d, full.tuples[:m]))
        path = b.write(f"lifted{label}-m{m}.json", F.family_to_json(fam))
        b.cli(f"certify-lifted-{label}-m{m}", ["--input", path, "certify"], 0,
              _certify_check(m, sizes), _certify_count(len(sizes)))
        if rotate:
            path = b.write(f"rotated{label}-m{m}.json", _rotated(fam, b.rng))
            b.cli(f"certify-rotated-{label}-m{m}", ["--input", path, "certify"], 0,
                  _certify_check(m, sizes), _certify_count(len(sizes)))
    # a duplicated tuple makes the family non-skew: the report path for a failing family
    fam = b.scrambled(C.complete_family((1, 1, 1)))
    planted = F.Family(fam.n, fam.d, fam.tuples + fam.tuples[:1])
    path = b.write("planted111.json", F.family_to_json(planted))
    pair = [1, len(planted)]
    b.cli("certify-planted-111", ["--input", path, "certify"], 1,
          lambda res: _problem(res["verdict"] == "fail" and res["skew_ok"] is False
                               and res["skew_violation"] == pair,
                               f"planted family gave {res['verdict']}, skew violation {res['skew_violation']}"),
          _certify_count(3))


WORKLOADS = {"scan": scan, "simulate": simulate, "certify": certify}


def build(name: str, pkg, seed: int, workdir: Path) -> list[Job]:
    b = Builder(pkg, seed, workdir)
    WORKLOADS[name](b)
    return b.jobs
