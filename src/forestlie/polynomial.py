"""Sparse integer polynomials in the variables X_1..X_k and B, and the two
independent computations of the weighted forest sum they must reconcile.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from . import dyck

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

    @classmethod
    def _built(cls, nvars: int, terms: dict[TermKey, int]) -> "MultiPoly":
        """The polynomial that owns these terms, whose keys a builder made:
        distinct (d, p) with d >= 0 and p a tuple of nvars nonnegative ints,
        each with a nonzero coefficient; nothing is checked or copied."""
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

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
    return MultiPoly._built(k, {(final_deficit, p): coeff for p, final_deficit, coeff in dyck.walk(k)})


def sigma_bruteforce(k: int) -> MultiPoly:
    """Sum over all (k+1)! forests of 2^(trees-1) * B^(root children) * X^(exponents).

    Each label picks its father independently, so the sum is the product over
    labels j of (2*X_j + X_{j+1} + ... + X_k + B), collected label by label
    for j = k down to 1 without listing any forest.  A monomial is one int
    code with w bits per field: field i is the exponent of label i, field
    k+1 the empty root's children.  Label i adds one to the field of each
    father it may take, or with weight 2, as a root, one to its own field.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    w = (k + 1).bit_length()  # no field exceeds k
    counts = {0: 1}
    for i in range(k, 0, -1):
        nxt = {code + (1 << w * i): 2 * n for code, n in counts.items()}
        for f in range(i + 1, k + 2):
            step = 1 << w * f
            for code, n in counts.items():
                nxt[code + step] = nxt.get(code + step, 0) + n
        counts = nxt
    mask = (1 << w) - 1
    return MultiPoly._built(k, {(code >> w * (k + 1), tuple([code >> w * i & mask for i in range(1, k + 1)])): n
                                for code, n in counts.items()})


def poly_equal(a: MultiPoly, b: MultiPoly) -> tuple[bool, tuple[TermKey, int | None, int | None] | None]:
    """Exact equality, as ``==``: the same terms and the same variable count.
    On failure also return (term key, coeff in a, coeff in b) for the
    canonically first term that differs, None for a side that lacks it."""
    if a.terms != b.terms:
        key = min(key for key in a.terms.keys() | b.terms.keys() if a.terms.get(key) != b.terms.get(key))
        return False, (key, a.terms.get(key), b.terms.get(key))
    if a.nvars != b.nvars:  # same terms but different declared variable counts
        return False, ((0, ()), a.nvars, b.nvars)
    return True, None
