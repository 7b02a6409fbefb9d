"""Hypercube geometry over an ordered direction set.

A vertex of the d-dimensional cube is a d-bit int; bit i is the coordinate
in the i-th direction.  Directions themselves are small ints (labels from
F_2^k) and are kept sorted by integer value, so a direction's bit position
is its rank in that order.  Text form of a vertex is its d-digit binary
string, e.g. flipping direction index 2 of the origin at d=7 gives 0000100.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

__all__ = [
    "CubeSpace",
    "Edge",
    "make_space",
    "basis_vertex",
    "flip",
    "hamming_distance",
    "direction_mask",
    "small_cube_id",
    "ball",
    "vertices",
    "vertex_text",
    "parse_vertex",
    "edge_at",
    "explicit_cap",
]

MAX_ENUM_D = 28
DEFAULT_EXPLICIT_CAP = 22
_CAP_ENV = "CUBEFACTORS_MAX_EXPLICIT_D"


def explicit_cap() -> int:
    """Largest d for which whole-cube tables may be materialised."""
    raw = os.environ.get(_CAP_ENV, str(DEFAULT_EXPLICIT_CAP))
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{_CAP_ENV} must be an integer, got {raw!r}") from None


def check_explicit(d: int) -> None:
    cap = explicit_cap()
    if d > cap:
        raise ValueError(
            f"d={d} exceeds the explicit-mode cap {cap} "
            f"(override with {_CAP_ENV})"
        )


@dataclass(frozen=True)
class CubeSpace:
    """The cube Q_X for an ordered tuple of distinct direction labels."""

    d: int
    directions: tuple[int, ...]
    index: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.d != len(self.directions):
            raise ValueError("d must equal the number of directions")
        if len(set(self.directions)) != self.d:
            raise ValueError("directions must be distinct")
        if any(x <= 0 for x in self.directions):
            raise ValueError("directions must be nonzero positive ints")
        if tuple(sorted(self.directions)) != self.directions:
            raise ValueError("directions must be sorted ascending")
        object.__setattr__(self, "index", {x: i for i, x in enumerate(self.directions)})

    @property
    def n_vertices(self) -> int:
        return 1 << self.d

    def bit_of(self, x: int) -> int:
        """Coordinate bit mask of direction x."""
        try:
            return 1 << self.index[x]
        except KeyError:
            raise ValueError(f"direction {x} not in X") from None


def make_space(directions: Iterable[int]) -> CubeSpace:
    dirs = tuple(sorted(directions))
    return CubeSpace(len(dirs), dirs)


def basis_vertex(space: CubeSpace, x: int) -> int:
    """Vertex with a single 1 in direction x."""
    return space.bit_of(x)


def flip(space: CubeSpace, u: int, x: int) -> int:
    """Neighbour of u across direction x."""
    return u ^ space.bit_of(x)


def hamming_distance(u: int, v: int) -> int:
    return (u ^ v).bit_count()


def _xor_table(images: Sequence[int]) -> np.ndarray:
    """The uint32 table whose entry u is the XOR of ``images[i]`` over the set
    bits i of u.  Built by doubling: the entries with top bit i are those
    below 2^i, each XORed with ``images[i]``."""
    table = np.zeros(1 << len(images), np.uint32)
    for i, x in enumerate(images):
        np.bitwise_xor(table[:1 << i], x, out=table[1 << i:2 << i])
    return table


def direction_mask(space: CubeSpace, dirs: Iterable[int]) -> int:
    """Coordinate mask covering the given directions."""
    mask = 0
    for x in dirs:
        mask |= space.bit_of(x)
    return mask


def small_cube_id(space: CubeSpace, u: int, dirs: Iterable[int]) -> int:
    """Identifier of the sub-cube through u spanned by ``dirs``.

    Two vertices get the same id exactly when they agree on every coordinate
    outside ``dirs``; there are 2^(d-|dirs|) distinct ids.
    """
    return u & ~direction_mask(space, dirs)


def ball(space: CubeSpace, u: int, radius: int) -> Iterator[int]:
    """All vertices at Hamming distance <= radius from u."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    r = min(radius, space.d)
    for size in range(r + 1):
        for positions in combinations(range(space.d), size):
            w = u
            for i in positions:
                w ^= 1 << i
            yield w


def vertices(space: CubeSpace) -> Iterator[int]:
    """All 2^d vertices; refuses above the enumeration guard."""
    if space.d > MAX_ENUM_D:
        raise ValueError(f"refusing to enumerate 2^{space.d} vertices (d > {MAX_ENUM_D})")
    return iter(range(space.n_vertices))


def vertex_text(space: CubeSpace, u: int) -> str:
    """d-digit binary string of a vertex; direction index 0 is the rightmost digit."""
    if u < 0 or u >> space.d:
        raise ValueError(f"vertex {u} does not fit in d={space.d} bits")
    return format(u, f"0{space.d}b")


# The eight binary digits of every byte value, as ASCII in text order, one
# uint64 per value so that a whole byte's digits are gathered in one step.
_BYTE_DIGITS = (
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1) + ord("0")
).view(np.uint64).ravel()


def _binary_digits(d: int, v: np.ndarray) -> np.ndarray:
    """(len(v), d) ASCII digits of ``vertex_text`` for every vertex in v."""
    nb = (d + 7) // 8
    words = np.empty((len(v), nb), np.uint64)
    for k in range(nb):
        words[:, k] = _BYTE_DIGITS[(v >> (8 * (nb - 1 - k))) & 0xFF]
    return words.view(np.uint8)[:, 8 * nb - d:]


def _binary_values(digits: np.ndarray) -> np.ndarray:
    """The numbers whose binary digits, most significant first, are the rows
    of a (n, d) uint8 array, d at most 32 (ASCII "0" and "1" give 0 and 1;
    only the low bit of a digit is read), as uint32."""
    n, d = digits.shape
    bits = np.zeros((n, 32), np.uint8)
    np.bitwise_and(digits, 1, out=bits[:, 32 - d:])
    return np.packbits(bits, axis=1).view(">u4").ravel().astype(np.uint32)


def _items(a: np.ndarray) -> np.ndarray:
    """The rows of a 2-D uint8 array whose rows are contiguous, as one void
    item each, so that a copy moves each row in one step."""
    return a.view(f"V{a.shape[-1]}")[..., 0]


def _text_rows(d: int, parts: Sequence[Union[bytes, np.ndarray]]) -> np.ndarray:
    """ASCII rows, one per entry of the vertex arrays among ``parts``.

    A bytes part repeats on every row and a vertex array becomes the d
    digits of ``vertex_text``; the parts are laid side by side in order,
    each copied into the rows as one item per row.  ``export`` formats whole
    factors with this instead of calling ``vertex_text`` per edge.
    """
    n = next(len(p) for p in parts if not isinstance(p, bytes))
    cols = [
        np.frombuffer(p, np.uint8)[None] if isinstance(p, bytes) else _binary_digits(d, p)
        for p in parts
    ]
    rows = np.empty((n, sum(c.shape[1] for c in cols)), np.uint8)
    at = 0
    for c in cols:
        _items(rows[:, at:at + c.shape[1]])[...] = _items(c)
        at += c.shape[1]
    return rows


def parse_vertex(space: CubeSpace, text: str) -> int:
    if len(text) != space.d or set(text) - {"0", "1"}:
        raise ValueError(f"expected a {space.d}-digit binary string, got {text!r}")
    return int(text, 2)


@dataclass(frozen=True, order=True)
class Edge:
    """Canonical cube edge: ``lo`` has coordinate 0 in ``direction``."""

    lo: int
    direction: int

    def endpoints(self, space: CubeSpace) -> tuple[int, int]:
        return self.lo, self.lo ^ space.bit_of(self.direction)


def edge_at(space: CubeSpace, u: int, x: int) -> Edge:
    """The edge incident to u in direction x, in canonical form."""
    bit = space.bit_of(x)
    return Edge(u & ~bit, x)
