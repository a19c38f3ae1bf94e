"""Sparse integer polynomials in the variables X_1..X_k and B, and the two
independent computations of the weighted forest sum they must reconcile.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from . import dyck, forests
from .errors import first_difference

TermKey = tuple[int, tuple[int, ...]]  # (power of B, exponent vector)


class MultiPoly:
    """Integer-coefficient sum of terms c * B^d * X^p with a fixed variable count.

    Terms live in a dict keyed by (d, p); zero coefficients are never stored
    and iteration is in the canonical order (d ascending, p lexicographic).
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[TermKey, int] | None = None):
        self.nvars = nvars
        self.terms: dict[TermKey, int] = {}
        if terms:
            for (bdeg, expo), coeff in terms.items():
                self.add_term(coeff, bdeg, expo)

    def add_term(self, coeff: int, bdeg: int, expo: Sequence[int]) -> None:
        expo = tuple(expo)
        if len(expo) != self.nvars:
            raise ValueError(f"exponent vector {expo} has {len(expo)} entries, expected {self.nvars}")
        if bdeg < 0 or any(e < 0 for e in expo):
            raise ValueError("negative exponents are not allowed")
        if coeff == 0:
            return
        key = (bdeg, expo)
        new = self.terms.get(key, 0) + coeff
        if new:
            self.terms[key] = new
        else:
            del self.terms[key]

    def items(self) -> Iterator[tuple[TermKey, int]]:
        return iter(sorted(self.terms.items()))

    def specialize_ones(self) -> int:
        """The value at B = X_1 = ... = X_k = 1, i.e. the coefficient sum."""
        return sum(self.terms.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (bdeg, expo), coeff in self.items():
            factors = []
            if coeff != 1:
                factors.append(str(coeff))
            if bdeg == 1:
                factors.append("B")
            elif bdeg > 1:
                factors.append(f"B^{bdeg}")
            if self.nvars:
                factors.append("X^(" + ",".join(str(e) for e in expo) + ")")
            if not factors:
                factors.append("1")
            parts.append(" ".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {dict(sorted(self.terms.items()))!r})"

    def to_json_terms(self) -> list[dict]:
        return [{"b": bdeg, "p": list(expo), "c": coeff} for (bdeg, expo), coeff in self.items()]


def sigma_formula(k: int) -> MultiPoly:
    """Sum over Dyck vectors of coeff * B^(final deficit) * X^p."""
    out = MultiPoly(k)
    for p, final_deficit, coeff in dyck.walk(k):
        out.add_term(coeff, final_deficit, p)
    return out


def sigma_bruteforce(k: int) -> MultiPoly:
    """Sum over all (k+1)! forests of 2^(trees-1) * B^(root children) * X^(exponents)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    terms: dict[TermKey, int] = {}
    for fa in forests._father_arrays(k):
        expo, tree_count, root_children = forests._monomial(fa)
        key = (root_children, expo)
        terms[key] = terms.get(key, 0) + (1 << (tree_count - 1))
    return MultiPoly(k, terms)


def poly_equal(a: MultiPoly, b: MultiPoly) -> tuple[bool, tuple[TermKey, int, int] | None]:
    """Exact equality; on failure also return (term key, coeff in a, coeff in b)
    for the canonically first differing term."""
    witness = first_difference(a.terms, b.terms)
    if witness is not None:
        return False, witness
    if a.nvars != b.nvars:  # same terms but different declared variable counts
        return False, ((0, ()), a.nvars, b.nvars)
    return True, None
