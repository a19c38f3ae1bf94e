"""Compositions of k, the pull-back expansion coefficients, and the
one-step derivation operator on formal sums of compositions.

Compositions are tuples of positive integers; formal sums are plain dicts
mapping composition -> integer coefficient with no zero entries.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import compare

if TYPE_CHECKING:
    from fractions import Fraction


def validate_composition(parts: Sequence[int]) -> None:
    for j, part in enumerate(parts, start=1):
        if not isinstance(part, int) or part < 1:
            raise ValueError(f"not a composition: part {j} = {part!r} is not a positive integer")


def enumerate_compositions(k: int) -> Iterator[tuple[int, ...]]:
    """Yield the 2^(k-1) compositions of k (just () for k = 0), lexicographically."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in enumerate_compositions(k - first):
            yield (first,) + rest


def coeff_clambda(parts: Sequence[int]) -> int:
    """|lambda|! / prod_j [(lambda_j - 1)! * |lambda|_j], an exact integer.

    Computed as prod_j C(S_j - 1, lambda_j - 1) over the partial sums S_j,
    whose ratios telescope to the quotient above, so no |lambda|! is built.
    """
    validate_composition(parts)
    value = 1
    partial = 0
    for part in parts:
        partial += part
        value *= math.comb(partial - 1, part - 1)
    return value


def successors(parts: Sequence[int]) -> list[tuple[int, ...]]:
    """The compositions reachable in one derivation step: each part raised by
    one, plus a new leading part 1."""
    validate_composition(parts)
    lam = tuple(parts)
    out = [lam[:j] + (lam[j] + 1,) + lam[j + 1:] for j in range(len(lam))]
    out.append((1,) + lam)
    return out


def derive_step(s: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """Linear extension of lambda -> sum of its successors."""
    out: dict[tuple[int, ...], int] = {}
    for lam, coeff in s.items():
        if coeff == 0:
            continue
        for nxt in successors(lam):
            new = out.get(nxt, 0) + coeff
            if new:
                out[nxt] = new
            else:
                out.pop(nxt, None)
    return out


def pullback_coefficients(k: int, check: bool = True) -> dict[tuple[int, ...], int]:
    """Coefficients of the k-th derivation power applied to the empty composition.

    With check=True (the default) every coefficient is verified against the
    closed formula and against the count of set partitions of that shape,
    and the total is verified to be the k-th Bell number.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    state: dict[tuple[int, ...], int] = {(): 1}
    for _ in range(k):
        state = derive_step(state)
    if check:
        from . import partitions

        compare("pullback formula", state, {lam: coeff_clambda(lam) for lam in enumerate_compositions(k)})
        compare("pullback partition census", state, partitions.shape_census(k))
        compare("pullback Bell total", {k: sum(state.values())}, {k: partitions.bell(k)})
    return state


def pullback_threeway(k: int, coeffs: dict[tuple[int, ...], int]) -> list[tuple[tuple[int, ...], int, int, int]]:
    """Rows (lambda, iterated, formula, partitions) over the compositions of k:
    coeffs[lambda] from pullback_coefficients(k), coeff_clambda(lambda), and
    the number of set partitions of [k] with shape lambda.  All three agree."""
    from . import partitions

    census = partitions.shape_census(k)
    return [(lam, coeffs.get(lam, 0), coeff_clambda(lam), census.get(lam, 0))
            for lam in enumerate_compositions(k)]


def enumerate_paths(k: int) -> Iterator[list[tuple[int, ...]]]:
    """All derivation paths () -> ... -> lambda of length k, one per partition
    of [k]; the number ending at lambda is its pull-back coefficient."""
    if k < 0:
        raise ValueError("k must be >= 0")
    path: list[tuple[int, ...]] = [()]

    def rec(depth: int) -> Iterator[list[tuple[int, ...]]]:
        if depth == k:
            yield list(path)
            return
        for nxt in successors(path[-1]):
            path.append(nxt)
            yield from rec(depth + 1)
            path.pop()

    yield from rec(0)


def verify_key_identity(parts: Sequence[int]) -> tuple[bool, int, Fraction]:
    """Check sum_s L_s = sum_s (L_s - 1) * prod_{j>=s} S_j / (S_j - 1) exactly.

    S_j denotes the j-th partial sum.  The s = 1 term is evaluated with the
    factor (L_1 - 1)/(S_1 - 1) cancelled (both equal L_1 - 1), so it reads
    L_1 * prod_{j>=2} S_j / (S_j - 1); this makes the identity total, in
    particular when L_1 = 1.  Terms with L_s = 1, s >= 2 vanish with their
    numerator.  The sum is kept over one running integer denominator, the
    product of the S_j - 1 so far, and compared with lhs by
    cross-multiplication.  Returns (equal, lhs, rhs), rhs as a Fraction.
    """
    from fractions import Fraction

    validate_composition(parts)
    lam = tuple(parts)
    lhs = partial = sum(lam)  # S_n, then S_{n-1}, ... as s falls
    num, den, suffix = 0, 1, 1  # rhs = num/den, prod_{j>=s} S_j / (S_j - 1) = suffix/den
    for part in reversed(lam[1:]):
        num *= partial - 1
        den *= partial - 1
        suffix *= partial
        num += (part - 1) * suffix
        partial -= part
    num += (lam[0] if lam else 0) * suffix  # the s = 1 term, its cancelled factor left out
    return num == lhs * den, lhs, Fraction(num, den)
