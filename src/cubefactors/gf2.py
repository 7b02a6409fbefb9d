"""GF(2) linear algebra on int bit-vectors: spans, complements, coset labels.

Vectors over F_2^k are plain Python ints; bit i of the int is coordinate i.
Addition is XOR.  A Subspace keeps its basis in reduced form with the pivot
of each basis vector at its lowest set bit, so membership tests are a short
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


def _reduce(v: int, basis: Sequence[int]) -> int:
    # Valid only for a reduced basis: each pivot bit occurs in one vector.
    for b in basis:
        if v & (b & -b):
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

    Pivots sit at the lowest set bit of each basis vector; ties between input
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
        piv = v & -v
        for i, b in enumerate(basis):
            if b & piv:
                basis[i] = b ^ v
        basis.append(v)
        chosen.append(raw)
    basis.sort(key=lambda b: b & -b)
    return Subspace(width, tuple(basis), tuple(chosen))


# Rows carry (reduced vector, part in W, part in complement, complement coeffs)
# so one elimination pass yields both projections and the coset label.
_Row = tuple[int, int, int, int]


@dataclass(frozen=True)
class Decomposition:
    """Direct-sum decomposition F_2^width = W (+) complement.

    The complement is built by extending the reduced basis of W with standard
    unit vectors, lowest index first.  Coset labels are coefficient vectors
    over the complement basis, so two inputs get equal labels exactly when
    they lie in the same coset of W, and every element of W gets label 0.
    """

    width: int
    subspace: Subspace
    complement: Subspace
    _rows: tuple[_Row, ...]

    @property
    def ell(self) -> int:
        return self.subspace.dim

    @property
    def label_width(self) -> int:
        return self.width - self.subspace.dim

    def _split(self, x: int) -> tuple[int, int, int]:
        if x < 0 or x >> self.width:
            raise ValueError(f"vector {x} does not fit in width {self.width}")
        w = c = cc = 0
        for vec, rw, rc, rcc in self._rows:
            if x & (vec & -vec):
                x ^= vec
                w ^= rw
                c ^= rc
                cc ^= rcc
        assert x == 0
        return w, c, cc

    def proj_subspace(self, x: int) -> int:
        """Component of x lying in W."""
        return self._split(x)[0]

    def proj_complement(self, x: int) -> int:
        """Component of x lying in the complement."""
        return self._split(x)[1]

    def coset_label(self, x: int) -> int:
        """Label of the coset x + W, as coefficients over the complement basis."""
        return self._split(x)[2]

    def coset_rep(self, label: int) -> int:
        """The complement element carrying the given label."""
        if label < 0 or label >> self.label_width:
            raise ValueError(f"label {label} does not fit in {self.label_width} bits")
        acc = 0
        for j, c in enumerate(self.complement.basis):
            if label >> j & 1:
                acc ^= c
        return acc


def decompose(subspace: Subspace) -> Decomposition:
    """Extend W to all of F_2^width by greedily adding unit vectors."""
    k = subspace.width
    work = list(subspace.basis)
    comp: list[int] = []
    for i in range(k):
        e = 1 << i
        r = _reduce(e, work)
        if r == 0:
            continue
        piv = r & -r
        for j, b in enumerate(work):
            if b & piv:
                work[j] = b ^ r
        work.append(r)
        comp.append(e)
    complement = span_basis(comp, k)

    rows: list[_Row] = []
    pending: list[_Row] = [(b, b, 0, 0) for b in subspace.basis]
    pending += [(c, 0, c, 1 << j) for j, c in enumerate(complement.basis)]
    for vec, w, c, cc in pending:
        for rv, rw, rc, rcc in rows:
            if vec & (rv & -rv):
                vec ^= rv
                w ^= rw
                c ^= rc
                cc ^= rcc
        assert vec != 0
        piv = vec & -vec
        rows = [
            (rv ^ vec, rw ^ w, rc ^ c, rcc ^ cc) if rv & piv else (rv, rw, rc, rcc)
            for (rv, rw, rc, rcc) in rows
        ]
        rows.append((vec, w, c, cc))
    rows.sort(key=lambda row: row[0] & -row[0])
    return Decomposition(k, subspace, complement, tuple(rows))
