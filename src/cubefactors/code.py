"""Hamming-style code over the cube's direction set.

For d >= 3 let k = ceil(log2(d+1)).  The direction set X consists of all
odd-weight nonzero elements of F_2^k plus, if needed, the smallest
even-weight nonzero elements in integer order, until |X| = d.  The syndrome
of a vertex u is phi(u), the XOR over set coordinates of their direction
labels, and the code C is the kernel of phi.  Any two codewords are at
Hamming distance >= 3, so a vertex has at most one codeword neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterator, Optional

import numpy as np

from .cube import CubeSpace, _xor_table, check_explicit, make_space

__all__ = [
    "CodeContext",
    "build_context",
    "phi",
    "in_code",
    "adjacent_codeword",
    "enumerate_code",
    "codewords_in_ball",
    "code_size",
    "phi_table",
]

DEFAULT_BALL_COST = 10**9
_MATERIALIZE_LIMIT = 1 << 20
# One node of the ball enumeration (a Python generator step, 0.4-0.5 us)
# costs about as much as filtering 500 words of the code array (about 1 ns
# a word at 2^13..2^20 codewords), measured on a 2-core x86-64 machine.
_NODE_WORDS = 500


@dataclass(frozen=True)
class CodeContext:
    """Direction set X in F_2^k together with the cube Q_X it spans."""

    d: int
    k: int
    space: CubeSpace

    @cached_property
    def _pivot_positions(self) -> tuple[int, ...]:
        # Unit vectors are odd weight, hence always directions.
        return tuple(self.space.index[1 << j] for j in range(self.k))

    @cached_property
    def _free_positions(self) -> tuple[int, ...]:
        pivots = set(self._pivot_positions)
        return tuple(i for i in range(self.d) if i not in pivots)

    @cached_property
    def _codeword_array(self) -> np.ndarray:
        """All codewords as a sorted read-only uint32 array.

        Same words as ``enumerate_code``, built in numpy and without its
        explicit-mode cap: it holds the 2^(d-k) codewords, never 2^d vertices.
        Each setting of the free coordinates gets the pivots of its syndrome.
        """
        free = self._free_positions
        syn = _xor_table([self.space.directions[pos] for pos in free])
        pivots = _xor_table([1 << pos for pos in self._pivot_positions])
        words = _xor_table([1 << pos for pos in free]) | pivots[syn]
        words.sort()
        words.flags.writeable = False
        return words

    @cached_property
    def _codeword_bytes(self) -> tuple[bytes, ...]:
        """``_vertex_bytes`` of every codeword, in the order of ``_codeword_array``.

        Made on first use, like the array, and kept for the tape's batch
        draws over the whole code.
        """
        return tuple(map(_vertex_bytes, self._codeword_array.tolist()))

    @cached_property
    def _phi_array(self) -> np.ndarray:
        check_explicit(self.d)
        table = _xor_table(self.space.directions)
        table.flags.writeable = False
        return table

    @cached_property
    def _vertex_array(self) -> np.ndarray:
        """Every vertex, 0 to 2^d - 1, as a read-only uint32 array."""
        idx = np.arange(1 << self.d, dtype=np.uint32)
        idx.flags.writeable = False
        return idx


def _vertex_bytes(vertex: int) -> bytes:
    """Big-endian bytes of a vertex, as few as hold it (one for vertex 0).

    The vertex part of every ``RandomTape`` message.
    """
    return vertex.to_bytes((vertex.bit_length() + 7) // 8 or 1, "big")


def build_context(d: int) -> CodeContext:
    """Direction set and code for dimension d (requires d >= 3)."""
    if d < 3:
        raise ValueError("need d >= 3")
    k = d.bit_length()
    odd = [v for v in range(1, 1 << k) if v.bit_count() % 2 == 1]
    even = [v for v in range(1, 1 << k) if v.bit_count() % 2 == 0]
    dirs = odd + even[: d - len(odd)]
    return CodeContext(d, k, make_space(dirs))


def phi(ctx: CodeContext, u: int) -> int:
    """Syndrome of a vertex: XOR of direction labels at its set coordinates."""
    if u < 0 or u >> ctx.d:
        raise ValueError(f"vertex {u} does not fit in d={ctx.d} bits")
    s = 0
    dirs = ctx.space.directions
    while u:
        low = u & -u
        s ^= dirs[low.bit_length() - 1]
        u ^= low
    return s


def in_code(ctx: CodeContext, u: int) -> bool:
    return phi(ctx, u) == 0


def adjacent_codeword(ctx: CodeContext, u: int) -> Optional[tuple[int, int]]:
    """The unique codeword neighbour of u and the direction to it, if any."""
    s = phi(ctx, u)
    if s == 0:
        return None
    i = ctx.space.index.get(s)
    if i is None:
        return None
    return u ^ (1 << i), s


def code_size(ctx: CodeContext) -> int:
    return 1 << (ctx.d - ctx.k)


def enumerate_code(ctx: CodeContext) -> Iterator[int]:
    """All codewords: free coordinates range, pivot coordinates solve phi = 0."""
    check_explicit(ctx.d)
    dirs = ctx.space.directions
    free = ctx._free_positions
    pivots = ctx._pivot_positions
    for m in range(1 << len(free)):
        u = 0
        s = 0
        mm = m
        while mm:
            low = mm & -mm
            pos = free[low.bit_length() - 1]
            u |= 1 << pos
            s ^= dirs[pos]
            mm ^= low
        for j in range(ctx.k):
            if s >> j & 1:
                u |= 1 << pivots[j]
        yield u


def _ball_cost(d: int, radius: int) -> int:
    """C(d, <= radius), summed only until it passes ``DEFAULT_BALL_COST``."""
    cost = 0
    for i in range(min(radius, d) + 1):
        cost += comb(d, i)
        if cost > DEFAULT_BALL_COST:
            break
    return cost


def codewords_in_ball(ctx: CodeContext, u: int, radius: int) -> Iterator[int]:
    """Codewords at Hamming distance <= radius from u.

    Enumerates coordinate subsets of size <= radius with syndrome pruning;
    cost grows like d^radius, so the feasibility guard refuses runaway radii.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if _ball_cost(ctx.d, radius) > DEFAULT_BALL_COST:
        raise ValueError(
            f"radius {radius} exceeds feasible bound at d={ctx.d} "
            f"(ball cost > {DEFAULT_BALL_COST})"
        )
    target = phi(ctx, u)
    dirs = ctx.space.directions
    index = ctx.space.index

    def rec(start: int, left: int, syn: int, acc: int) -> Iterator[int]:
        if syn == target:
            yield u ^ acc
        if left == 0:
            return
        if left == 1:
            t = syn ^ target
            i = index.get(t)
            if i is not None and i >= start:
                yield u ^ acc ^ (1 << i)
            return
        for i in range(start, ctx.d):
            yield from rec(i + 1, left - 1, syn ^ dirs[i], acc | (1 << i))

    return rec(0, min(radius, ctx.d), 0, 0)


def codewords_near(ctx: CodeContext, u: int, radius: int) -> list[int]:
    """Same set as ``codewords_in_ball``, in increasing order.

    While the code is materialised (up to 2^20 codewords) this takes the
    cheaper of two paths: one vectorised popcount filter over the cached
    array, or the recursive ball enumeration, whose cost is its
    C(d, <= radius - 1) inner nodes.  Past that it always enumerates.
    """
    if u < 0 or u >> ctx.d:
        raise ValueError(f"vertex {u} does not fit in d={ctx.d} bits")
    n = code_size(ctx)
    if n > _MATERIALIZE_LIMIT or _ball_cost(ctx.d, radius - 1) * _NODE_WORDS < n:
        return sorted(codewords_in_ball(ctx, u, radius))
    words = ctx._codeword_array
    return words[np.bitwise_count(words ^ np.uint32(u)) <= radius].tolist()


def _near_feasible(d: int, radius: int) -> bool:
    """Whether ``codewords_near`` answers at this radius in dimension d: while
    the code array exists, or past it while the ball costs at most
    ``DEFAULT_BALL_COST``.  2^(d-k) is compared by exponent: d may be huge."""
    in_array = d - d.bit_length() < _MATERIALIZE_LIMIT.bit_length()
    return in_array or _ball_cost(d, radius) <= DEFAULT_BALL_COST


def phi_table(ctx: CodeContext) -> np.ndarray:
    """Vectorised syndromes for all 2^d vertices (explicit-mode cap applies)."""
    return ctx._phi_array
