"""Exact combinatorial weights and the weighted sums attached to d-tuple systems.

Everything here is integer or rational arithmetic (`int` / `fractions.Fraction`),
never floating point, so inequality checks are decisive.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .errors import ArityError, DomainError, SizeError
from .families import Family, TupleType

#: The largest d for which `recursive_bound` is computed.  B(n, d) >= (d - 2)!,
#: which from d = 1,561 on has more than the 4,300 digits Python prints of an
#: int, so no bound above this d could be printed.
MAX_BOUND_ARITY = 1560


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise DomainError(f"factorial of negative {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k < 0 or k > n."""
    if n < 0:
        raise DomainError(f"binomial with negative n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(n: int, ks: Sequence[int]) -> int:
    """n! / (k_1! ... k_t! (n - sum)!): ordered partitions with a remainder bucket."""
    if n < 0:
        raise DomainError(f"multinomial with negative n={n}")
    total = 0
    for k in ks:
        if k < 0:
            raise DomainError(f"multinomial with negative part {k}")
        total += k
    if total > n:
        raise DomainError(f"multinomial parts sum to {total} > n={n}")
    out = 1
    remaining = n
    for k in ks:
        out *= math.comb(remaining, k)
        remaining -= k
    return out


def tuple_weight(sizes: Sequence[int]) -> int:
    """multinomial(sum(sizes), sizes): the number of tuples sharing this type on a tight ground set."""
    return multinomial(sum(sizes), sizes)


def _type_counts(f: Family) -> Counter[TupleType]:
    """How many tuples of f have each type.

    The popcounts of every part mask of the family are taken in one pass and
    regrouped d at a time into types, instead of one `DTuple.type` per tuple.
    """
    sizes = map(int.bit_count, chain.from_iterable(f.masks))
    return Counter(zip(*[sizes] * f.d))


def bollobas_sum(f: Family) -> Fraction:
    """Sum over tuples of the inverse multinomial weight of their type.

    The conjectured (and refuted) upper bound for Bollobás systems was 1; the
    proven bound for d = 3 is (n + 3) / 2, see :func:`recursive_bound`.
    """
    types = _type_counts(f)
    return sum((Fraction(c, tuple_weight(sizes)) for sizes, c in types.items()), Fraction(0))


def skew_sum(f: Family) -> Fraction:
    """Sum of (C(s_i + d - 1, d - 1) * multinomial(s_i, type_i))^-1 over tuples.

    At most 1 for every skew Bollobás system; each term is the probability of
    the tuple's delimiter event (see the events module).  The d - 1
    delimiters are one more part of the multinomial, so each denominator is
    `tuple_weight((*type_i, d - 1))`.
    """
    types = _type_counts(f)
    return sum((Fraction(c, tuple_weight((*sizes, f.d - 1))) for sizes, c in types.items()), Fraction(0))


def pair_weighted_sum(f: Family) -> Fraction:
    """Sum of ((1 + |A_i| + |B_i|) * C(|A_i| + |B_i|, |A_i|))^-1 for a pair family.

    Defined for d = 2 only, where it is :func:`skew_sum` because
    C(s + 1, 1) = s + 1.
    """
    if f.d != 2:
        raise ArityError(f"pair_weighted_sum needs d = 2, got d = {f.d}")
    return skew_sum(f)


def _too_long_to_print(n: int, d: int) -> bool:
    """True if B(n, d) has, by a lower bound, more digits than Python prints.

    B(n, d) >= C(n+d-2, d-2)/(d-1) >= a^k/(d-1) > 2^E with k = d - 2,
    a = floor((n+d-2)/k) and E = k*(len(a) - 1) - len(d - 1), where len is
    the bit length.  The numerator of B is at least B, so it cannot be
    printed once 2^E >= 10^L, for Python's limit of L digits; as
    2^(10/3) > 10, that holds when 3E >= 10L.
    """
    limit = sys.get_int_max_str_digits()
    if d == 2 or not limit:
        return False
    k = d - 2
    e = k * (((n + k) // k).bit_length() - 1) - (d - 1).bit_length()
    return 3 * e >= 10 * limit


def recursive_bound(n: int, d: int) -> Fraction:
    """Exact upper bound for bollobas_sum of a d-tuple Bollobás system on [n].

    B(n, 2) = 1 and B(n, d) = C(n+d-2, d-2)/(d-1) + (d-2) * B(n, d-1).
    For d = 3 this is (n + 3) / 2.  The recursion splits a system into the
    tuples with all middle parts nonempty (delimiter-event counting) and, for
    each middle position, the sub-system of tuples empty there.  Unrolled,

        B(n, d) = [(d-1)! + sum_{j=3..d} C(n+j-2, j-2) (d-1)!/(j-1)!] / (d-1),

    whose integer numerator is summed by Horner's rule (acc -> acc * (j-1) +
    C(n+j-2, j-2)) with each binomial updated from the last, and divided
    once at the end.
    """
    if n < 1:
        raise DomainError(f"recursive_bound needs n >= 1, got {n}")
    if d < 2:
        raise ArityError(f"recursive_bound needs d >= 2, got {d}")
    if d > MAX_BOUND_ARITY:
        raise SizeError(f"d = {d} exceeds the limit {MAX_BOUND_ARITY} of the exact bound")
    if _too_long_to_print(n, d):
        raise SizeError(
            f"the bound at d = {d} and this n has more than {sys.get_int_max_str_digits()} digits,"
            " more than Python prints"
        )
    acc, c = 1, n + 1  # c = C(n+j-2, j-2), from j = 3
    for j in range(3, d + 1):
        acc = acc * (j - 1) + c
        c = c * (n + j - 1) // (j - 1)
    return Fraction(acc, d - 1)
