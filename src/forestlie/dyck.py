"""Dyck vectors, their deficit profiles, the product coefficient, and the
encoding as lattice paths below the diagonal.

A Dyck vector of length k is a sequence (p_1, ..., p_k) of nonnegative
integers whose prefix sums never exceed the index: sum(p_1..p_j) <= j for
every j.  Vectors are plain tuples of ints throughout.
"""

from __future__ import annotations

import math
from itertools import chain, compress, count, islice
from operator import ne, sub
from typing import Iterator, Sequence

from .errors import SelfCheckError

EAST, NORTH = 0, 1
DEPTH = 4  # entries in each block of the table that enumerate_dyck and walk join


def binom(m: int, n: int) -> int:
    """Binomial coefficient as a total function: 0 whenever n not in 0..m."""
    if n < 0 or n > m:
        return 0
    return math.comb(m, n)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def validate_dyck(p: Sequence[int]) -> None:
    """Raise ValueError naming the first offending index if p is not a Dyck vector."""
    total = 0
    for j, entry in enumerate(p, start=1):
        if not isinstance(entry, int) or entry < 0:
            raise ValueError(f"not a Dyck vector: entry p_{j} = {entry!r} is not a nonnegative integer")
        total += entry
        if total > j:
            raise ValueError(f"not a Dyck vector: prefix sum {total} exceeds index {j}")


def is_dyck(p: Sequence[int]) -> bool:
    try:
        validate_dyck(p)
    except ValueError:
        return False
    return True


def enumerate_dyck(k: int) -> Iterator[tuple[int, ...]]:
    """Every Dyck vector of length k exactly once, in lexicographic order.

    There are catalan(k+1) of them.  One table per call (_tails) builds the
    prefixes of the first k - DEPTH entries four entries at a time
    (_prefixes) and is joined to each of them in one block: every tail of
    the last DEPTH entries that its deficit allows.  Lazy: a negative k
    raises ValueError on the first next().
    """
    return chain.from_iterable(_dyck_blocks(k))


def _dyck_blocks(k: int) -> Iterator[Iterator[tuple[int, ...]]]:
    if k < 0:
        raise ValueError("k must be >= 0")
    depth = min(k, DEPTH)
    levels = _tails(depth, k - depth)
    tails = {d: [row[0] for row in rows] for d, rows in levels[depth].items()}
    for p, d, _, _, _ in _prefixes(k - depth, levels):
        yield map(p.__add__, tails[d])


def count_dyck(k: int) -> int:
    """Count Dyck vectors of length k without enumerating them.

    Dynamic programming over the running deficit j - sum(p_1..p_j); this is
    independent of the closed-form Catalan expression it is checked against.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    # counts[d] = number of length-j prefixes with deficit d
    counts = [1]
    for _ in range(k):
        nxt = [0] * (len(counts) + 1)
        for d, c in enumerate(counts):
            # p_{j+1} = d + 1 - d' maps deficit d to any d' in 0..d+1
            for d2 in range(d + 2):
                nxt[d2] += c
        counts = nxt
    return sum(counts)


def deficit_profile(p: Sequence[int]) -> tuple[int, ...]:
    """The deficits D_0..D_k with D_j = j - sum(p_1..p_j); all >= 0, D_0 = 0."""
    validate_dyck(p)
    out = [0]
    total = 0
    for j, entry in enumerate(p, start=1):
        total += entry
        out.append(j - total)
    return tuple(out)


def coeff_cp(p: Sequence[int]) -> int:
    """The coefficient attached to a Dyck vector.

    Computed as prod_j [2*binom(D_{j-1}, p_j - 1) + binom(D_{j-1}, p_j)] and
    cross-checked against the restricted rational product
    prod_{p_j != 0} (2 + D_j/p_j) * binom(D_{j-1}, p_j - 1), in integers:
    the coefficient times prod_{p_j != 0} p_j must equal
    prod_{p_j != 0} (2*p_j + D_j) * binom(D_{j-1}, p_j - 1).
    """
    d = deficit_profile(p)
    result = num = den = 1
    for j, entry in enumerate(p, start=1):
        below = binom(d[j - 1], entry - 1)
        result *= 2 * below + binom(d[j - 1], entry)
        if entry:
            num *= (2 * entry + d[j]) * below
            den *= entry
    if result * den != num:
        from fractions import Fraction

        raise SelfCheckError(f"coefficient formulas disagree for {tuple(p)}: {result} vs {Fraction(num, den)}")
    return result


def _rational_factor(d_prev: int, entry: int) -> tuple[int, int]:
    """Numerator and denominator of (2 + D_j/p_j) * binom(D_{j-1}, p_j - 1),
    the factor of a nonzero entry p_j in the restricted rational product."""
    d = d_prev - entry + 1
    return (2 * entry + d) * binom(d_prev, entry - 1), entry


def _factors(d_prev: int, entry: int) -> tuple[int, int, int]:
    """The factors of entry p_j after deficit D_{j-1} in the binomial product
    of coeff_cp and in the numerator and denominator of its rational product;
    a zero entry multiplies each by 1."""
    if not entry:
        return 1, 1, 1
    return (2 * binom(d_prev, entry - 1) + binom(d_prev, entry), *_rational_factor(d_prev, entry))


def _tails(depth: int, top: int) -> list[dict[int, list[tuple[tuple[int, ...], int, int, int, int]]]]:
    """Levels 0..depth of one call's table: level t maps each deficit
    0..top + depth - t to every way to continue a Dyck vector from that
    deficit by t more entries, in lexicographic order, as (entries, final
    deficit, binomial product, rational numerator, denominator)."""
    levels = [{d: [((), d, 1, 1, 1)] for d in range(top + depth + 1)}]
    for t in range(1, depth + 1):
        levels.append({d: [((e, *tail), final, c * tc, n * tn, m * tm)
                           for e in range(d + 2)
                           for c, n, m in [_factors(d, e)]
                           for tail, final, tc, tn, tm in levels[t - 1][d + 1 - e]]
                       for d in range(top + depth - t + 1)})
    return levels


def _prefixes(m: int, levels: list[dict]) -> Iterator[tuple[tuple[int, ...], int, int, int, int]]:
    """(p, D_m, binomial product, rational numerator, denominator) for every
    Dyck vector p of length m, in lexicographic order, lazily: a first block
    of m % DEPTH entries from levels[m % DEPTH][0] of _tails, then m // DEPTH
    blocks from levels[DEPTH] at the deficit the one before ends at."""
    rows = iter(levels[m % DEPTH][0])
    for _ in range(m // DEPTH):
        rows = ((p + q, qd, c * qc, n * qn, r * qr)
                for p, d, c, n, r in rows for q, qd, qc, qn, qr in levels[DEPTH][d])
    return rows


def walk(k: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """(p, D_k, C_P) for every Dyck vector p of length k, in the order of
    enumerate_dyck, streamed block by block; lazy like enumerate_dyck.

    The one per-call table builds the prefixes four entries at a time and is
    joined to each of them in one block, as in enumerate_dyck.  The prefix
    and each tail carry the binomial product of coeff_cp and the numerator
    and denominator of its restricted rational product, and a vector's
    products are its prefix's times its tail's.  The two products are
    compared exactly at every vector, and SelfCheckError names the first
    vector where they disagree, after the vectors before it.
    """
    return chain.from_iterable(_walk_blocks(k))


def _walk_blocks(k: int) -> Iterator[Iterator[tuple[tuple[int, ...], int, int]]]:
    if k < 0:
        raise ValueError("k must be >= 0")
    depth = min(k, DEPTH)
    levels = _tails(depth, k - depth)
    # per deficit: tails, final deficits, binomial products, and for the check
    # binomial * denominator and numerator
    columns = {d: tuple(zip(*[(tail, final, c, c * m, n) for tail, final, c, n, m in rows]))
               for d, rows in levels[depth].items()}
    for p, d, c, n, m in _prefixes(k - depth, levels):
        tails, finals, coeffs, left, right = columns[d]
        rows = zip(map(p.__add__, tails), finals, map(c.__mul__, coeffs))
        bad = next(compress(count(), map(ne, map((c * m).__mul__, left), map(n.__mul__, right))), None)
        if bad is None:
            yield rows
            continue
        yield islice(rows, bad)
        tail, _, tc, tn, tm = levels[depth][d][bad]
        from fractions import Fraction

        raise SelfCheckError(f"coefficient formulas disagree for {p + tail}: "
                             f"{c * tc} vs {Fraction(n * tn, m * tm)}")


def coefficient_table(k: int) -> dict[tuple[int, ...], int]:
    """All (vector, coefficient) pairs for length k, in lexicographic order."""
    return {p: c for p, _, c in walk(k)}


def validate_path(steps: Sequence[int]) -> list[int]:
    """Check a 0/1 step sequence is a balanced path staying weakly below the
    diagonal, and return the number of North steps before each East step."""
    north = 0
    heights: list[int] = []
    for i, s in enumerate(steps, start=1):
        if s == EAST:
            heights.append(north)
        elif s == NORTH:
            north += 1
            if north > len(heights):  # only a North step can break the prefix condition
                raise ValueError(f"malformed path: prefix violation at step {i} (North steps exceed East steps)")
        else:
            raise ValueError(f"malformed path: step {i} = {s!r} is not 0 (East) or 1 (North)")
    if len(heights) != north:
        raise ValueError(f"malformed path: {len(heights)} East steps vs {north} North steps")
    return heights


def vector_to_path(p: Sequence[int]) -> tuple[int, ...]:
    """Encode a Dyck vector of length k as a path with k+1 East and k+1 North steps.

    Entry p_j becomes the vertical run after the j-th East step; the final
    East step is followed by the run D_k + 1 that closes the path on the
    diagonal.  The empty vector maps to the empty path.
    """
    validate_dyck(p)
    if len(p) == 0:
        return ()
    steps: list[int] = []
    for entry in p:
        steps.append(EAST)
        steps.extend([NORTH] * entry)
    steps.append(EAST)
    steps.extend([NORTH] * (len(p) + 1 - sum(p)))
    return tuple(steps)


def path_to_vector(steps: Sequence[int]) -> tuple[int, ...]:
    """Decode a path to its Dyck vector: vertical run lengths, omitting the last.

    Inverse of vector_to_path; a path with m East steps yields a vector of
    length m - 1, and the empty path yields the empty vector.  The run after
    an East step is the rise in the North count up to the next East step.
    """
    heights = validate_path(steps)
    return tuple(map(sub, heights[1:], heights[:-1]))
