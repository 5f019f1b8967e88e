"""Reference implementations of the delimiter events, kept as test oracles.

`monte_carlo` is the per-tuple loop: every trial runs one membership closure
per tuple and variant, with a separate predicate for each event shape.
`exact_event_probability` enumerates all r! orderings of the relevant labels.
Both are the straightforward versions of what `bollobas.events` computes
with column bitsets and distinct label arrangements.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from bollobas.errors import ArityError, DomainError, SizeError
from bollobas.events import EXACT_ENUMERATION_LIMIT, EventReport


def _multinomial(sizes):
    out = math.factorial(sum(sizes))
    for a in sizes:
        out //= math.factorial(a)
    return out


def event_probability(sizes):
    s, d = sum(sizes), len(sizes)
    return Fraction(1, math.comb(s + d - 1, d - 1) * _multinomial(sizes))


def d3_event_probability(sizes):
    return Fraction(1, (sum(sizes) + 1) * _multinomial(sizes))


def general_event_probability(sizes):
    s, d = sum(sizes), len(sizes)
    return Fraction(1, math.comb(s + d - 2, d - 2) * _multinomial(sizes))


def _skew_hit(img, parts, n, d):
    delims = sorted(img[e - 1] for e in range(n + 1, n + d))
    top = len(img) + 1
    lo = 0
    for k, part in enumerate(parts):
        hi = delims[k] if k < d - 1 else top
        for a in part:
            if not lo < img[a - 1] < hi:
                return False
        lo = hi
    return True


def _d3_hit(img, parts, n, variant):
    p = img[n]
    a1, a2, a3 = parts
    for a in a1:
        if img[a - 1] > p:
            return False
    for c in a3:
        if img[c - 1] < p:
            return False
    if variant == "E":
        for b in a2:
            if img[b - 1] < p:
                return False
        pre, post = a2, a3
    else:  # "F"
        for b in a2:
            if img[b - 1] > p:
                return False
        pre, post = a1, a2
    if pre and post and max(img[x - 1] for x in pre) > min(img[y - 1] for y in post):
        return False
    return True


def _general_hit(img, parts, n, d, k):
    delims = sorted(img[e - 1] for e in range(n + 1, n + d - 1))
    top = len(img) + 1
    for l in range(1, d + 1):
        iv = l - 1 if l <= k else l - 2
        lo = delims[iv - 1] if iv >= 1 else 0
        hi = delims[iv] if iv <= d - 3 else top
        for a in parts[l - 1]:
            if not lo < img[a - 1] < hi:
                return False
    left, right = parts[k - 1], parts[k]
    if left and right and max(img[a - 1] for a in left) > min(img[b - 1] for b in right):
        return False
    return True


def _pattern(sizes, skipped):
    """Label sequence with a delimiter (0) before every part but the first and part `skipped` + 1."""
    seq = []
    for g, a in enumerate(sizes):
        if g and g != skipped:
            seq.append(0)
        seq.extend([g + 1] * a)
    return tuple(seq)


def _distinct_gaps(sizes):
    reps, seen = [], set()
    for k in range(1, len(sizes)):
        sig = _pattern(sizes, k)
        if sig not in seen:
            seen.add(sig)
            reps.append(k)
    return reps


def _signatures(sizes, mode):
    if mode == "skew":
        return [_pattern(sizes, 0)]
    if mode == "d3":
        if len(sizes) != 3:
            raise ArityError(f"d3 mode needs arity 3, got {len(sizes)}")
        e, f = _pattern(sizes, 2), _pattern(sizes, 1)
        return [e] if e == f else [e, f]
    if mode == "general":
        return [_pattern(sizes, k) for k in _distinct_gaps(sizes)]
    raise DomainError(f"unknown mode {mode!r}")


def _delimiter_count(d, mode):
    if mode == "skew":
        return d - 1
    if mode == "d3":
        if d != 3:
            raise ArityError(f"d3 mode needs d = 3, got {d}")
        return 1
    if mode == "general":
        return d - 2
    raise DomainError(f"unknown mode {mode!r}")


def _tuple_checks(t, mode):
    parts = t.parts()
    n, d = t.n, t.d
    sizes = t.type()
    checks = []
    if mode == "skew":
        checks.append(lambda img: _skew_hit(img, parts, n, d))
        prob = event_probability(sizes)
    elif mode == "d3":
        if d != 3:
            raise ArityError(f"d3 mode needs d = 3, got {d}")
        checks.append(lambda img: _d3_hit(img, parts, n, "E"))
        if sizes[1] > 0:
            checks.append(lambda img: _d3_hit(img, parts, n, "F"))
        prob = len(checks) * d3_event_probability(sizes)
    elif mode == "general":
        for k in _distinct_gaps(sizes):
            checks.append(lambda img, kk=k: _general_hit(img, parts, n, d, kk))
        prob = len(checks) * general_event_probability(sizes)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return checks, prob


def monte_carlo(f, mode, trials, seed):
    """Per-tuple Monte Carlo with the same RNG stream as `bollobas.events.monte_carlo`."""
    if trials < 0:
        raise DomainError(f"negative trials {trials}")
    size = f.n + _delimiter_count(f.d, mode)
    per_tuple = [_tuple_checks(t, mode) for t in f.tuples]
    checks = [c for c, _ in per_tuple]
    rng = random.Random(seed)
    img = list(range(1, size + 1))
    hits = [0] * len(f.tuples)
    max_sim = 0
    for _ in range(trials):
        rng.shuffle(img)
        sim = 0
        for ti, chks in enumerate(checks):
            for chk in chks:
                if chk(img):
                    hits[ti] += 1
                    sim += 1
        max_sim = max(max_sim, sim)
    return EventReport(
        mode=mode,
        trials=trials,
        seed=seed,
        hits=tuple(hits),
        estimates=tuple(Fraction(h, trials) if trials else Fraction(0) for h in hits),
        formula_values=tuple(p for _, p in per_tuple),
        max_simultaneous_hits=max_sim,
    )


def exact_event_probability(f, index, mode="skew"):
    """Event probability of tuple `index` (1-based) over all r! orderings of its labels."""
    t = f.tuples[index - 1]
    sizes = t.type()
    delta = _delimiter_count(t.d, mode)
    r = sum(sizes) + delta
    if r > EXACT_ENUMERATION_LIMIT:
        raise SizeError(f"{r} relevant elements exceed the enumeration limit")
    labels = [k for k, a in enumerate(sizes, start=1) for _ in range(a)] + [0] * delta
    targets = _signatures(sizes, mode)
    counts = [0] * len(targets)
    for perm in itertools.permutations(labels):
        for ix, target in enumerate(targets):
            if perm == target:
                counts[ix] += 1
    values = {Fraction(c, math.factorial(r)) for c in counts}
    if len(values) != 1:
        raise DomainError(f"event variants disagree: {sorted(values)}")
    return values.pop()
