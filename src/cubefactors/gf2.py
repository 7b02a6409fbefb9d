"""GF(2) linear algebra on int bit-vectors: spans, complements, coset labels.

Vectors over F_2^k are plain Python ints; bit i of the int is coordinate i.
Addition is XOR.  A Subspace keeps its basis in reduced form with the pivot
of each basis vector at its highest set bit, so membership tests are a short
chain of XORs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Subspace",
    "Decomposition",
    "span_basis",
    "decompose",
]


def _pivot(b: int) -> int:
    return 1 << (b.bit_length() - 1)


def _reduce(v: int, basis: Sequence[int]) -> int:
    # Valid only for a reduced basis: each pivot, b's top bit, is in one vector.
    for b in basis:
        if v >> (b.bit_length() - 1) & 1:
            v ^= b
    return v


@dataclass(frozen=True)
class Subspace:
    """Span of some vectors in F_2^width, basis held in reduced echelon form.

    ``spanning_input`` records which of the original input vectors were kept
    as an independent spanning subset, in input order.
    """

    width: int
    basis: tuple[int, ...]
    spanning_input: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: int) -> int:
        """Residual of v after eliminating all basis pivots."""
        return _reduce(v, self.basis)

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def elements(self) -> Iterator[int]:
        """All 2^dim elements; guarded against accidental huge spans."""
        if self.dim > 24:
            raise ValueError(f"refusing to enumerate 2^{self.dim} elements")
        for mask in range(1 << self.dim):
            acc = 0
            m = mask
            while m:
                low = m & -m
                acc ^= self.basis[low.bit_length() - 1]
                m ^= low
            yield acc


def span_basis(vectors: Iterable[int], width: int) -> Subspace:
    """Reduced basis of the span of ``vectors``.

    Pivots sit at the highest set bit of each basis vector; ties between input
    vectors are broken by input order, and the independent input vectors that
    were kept are reported via ``spanning_input``.
    """
    basis: list[int] = []
    chosen: list[int] = []
    for raw in vectors:
        if raw < 0 or raw >> width:
            raise ValueError(f"vector {raw} does not fit in width {width}")
        v = _reduce(raw, basis)
        if v == 0:
            continue
        piv = _pivot(v)
        for i, b in enumerate(basis):
            if b & piv:
                basis[i] = b ^ v
        basis.append(v)
        chosen.append(raw)
    # The pivots are distinct top bits, so sorting by value sorts by pivot.
    basis.sort()
    return Subspace(width, tuple(basis), tuple(chosen))


@dataclass(frozen=True)
class Decomposition:
    """Direct-sum decomposition F_2^width = W (+) complement.

    The complement is spanned by the unit vectors at the positions that are
    no pivot of W's reduced basis: the same vectors that greedily extend W
    lowest index first.  Reducing x by W leaves its complement component, and
    the coset label packs that component's bits at the free positions in
    increasing order, so two inputs get equal labels exactly when they lie
    in the same coset of W, and every element of W gets label 0.
    """

    width: int
    subspace: Subspace
    complement: Subspace

    @property
    def ell(self) -> int:
        return self.subspace.dim

    @property
    def label_width(self) -> int:
        return self.width - self.subspace.dim

    def proj_subspace(self, x: int) -> int:
        """Component of x lying in W."""
        return x ^ self.proj_complement(x)

    def proj_complement(self, x: int) -> int:
        """Component of x lying in the complement."""
        if x < 0 or x >> self.width:
            raise ValueError(f"vector {x} does not fit in width {self.width}")
        return self.subspace.reduce(x)

    def coset_label(self, x: int) -> int:
        """Label of the coset x + W, as coefficients over the complement basis."""
        c = self.proj_complement(x)
        return sum(1 << j for j, e in enumerate(self.complement.basis) if c & e)

    def coset_rep(self, label: int) -> int:
        """The complement element carrying the given label."""
        if label < 0 or label >> self.label_width:
            raise ValueError(f"label {label} does not fit in {self.label_width} bits")
        return sum(e for j, e in enumerate(self.complement.basis) if label >> j & 1)


def decompose(subspace: Subspace) -> Decomposition:
    """Complement W by the unit vectors at the non-pivot positions."""
    k = subspace.width
    pivots = 0
    for b in subspace.basis:
        pivots |= _pivot(b)
    free = [1 << i for i in range(k) if not pivots >> i & 1]
    return Decomposition(k, subspace, Subspace(k, tuple(free), tuple(free)))
