"""Randomised edge-swap factorisations of the cube Q_X.

The starting point is the directional factorisation: factor x holds exactly
the direction-x edges.  It is then perturbed by two kinds of local swaps,
driven by a keyed deterministic tape so that the explicit axis array and
implicit (query-time) evaluation agree bit for bit:

* every codeword is independently marked G' with probability pg; codewords
  with another G' point within distance rg are dropped (both of a close pair),
  leaving G; codewords within distance rh of any G' point are dropped from
  the code to leave H;
* each u in H draws an ordered pair of distinct directions (p, q) and, unless
  the conflict rule below vetoes it, the four edges of the square
  {u, u+p, u+q, u+p+q} are exchanged between factors p and q;
* each v in G draws cube_dim distinct directions r_1..r_m and, inside the
  small cube through v spanned by them, the direction-r_i edges move from
  factor r_i to factor r_(i+1), indices cyclic.

Conflict rule: if the far corner u+p+q has a codeword neighbour w and w's own
far corner w+p_w+q_w is adjacent to u, neither square is swapped.  Applying
a plan is transactional: any two swap sites that try to rewrite the same
(vertex, factor) slot raise OverlapError instead of producing a broken
factorisation.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import cached_property, partial
from hashlib import blake2b
from itertools import compress
from operator import itemgetter
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from . import code as code_mod
from .code import DEFAULT_BALL_COST, CodeContext, _near_feasible, _vertex_bytes, codewords_near
from .cube import (
    CubeSpace,
    Edge,
    _binary_values,
    _text_rows,
    _xor_table,
    check_explicit,
    direction_mask,
    explicit_cap,
    vertex_text,
)

__all__ = [
    "ConstructionParams",
    "RandomTape",
    "SwapPlan",
    "Factorisation",
    "OverlapError",
    "directional",
    "sample_plan",
    "apply_explicit",
    "build_explicit",
    "KINDS",
    "build_factorisation",
    "implicit_factorisation",
    "random_greedy_factorisation",
    "touched_edge_count",
    "plan_summary",
    "save_factorisation",
    "load_factorisation",
]

_WORD_MAX = 1 << 64
_TAG_GPRIME, _TAG_PQ, _TAG_R6, _TAG_DERIVE = 0, 1, 2, 3

MIN_CONSTRUCTION_D = 7
_BLOCK_ENTRIES = 1 << 20


class OverlapError(RuntimeError):
    """Two swap sites tried to rewrite the same (vertex, factor) slot."""


@dataclass(frozen=True)
class ConstructionParams:
    """Knobs of the swap construction; pg=None means the default 2^(-d/10)."""

    pg: Optional[float] = None
    rg: int = 14
    rh: int = 10
    cube_dim: int = 6
    conflict_check: bool = True

    def __post_init__(self) -> None:
        # bool is an int subclass, and a float would reach the draws as a count.
        for name, value in (("rg", self.rg), ("rh", self.rh), ("cube_dim", self.cube_dim)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.pg, bool) or not isinstance(self.pg, (int, float, type(None))):
            raise ValueError(f"pg must be a number or null, got {self.pg!r}")
        if not isinstance(self.conflict_check, bool):
            raise ValueError(f"conflict_check must be true or false, got {self.conflict_check!r}")
        if self.pg is not None and not 0.0 <= self.pg <= 1.0:
            raise ValueError("pg must lie in [0, 1]")
        if not self.rg >= self.rh >= 0:
            raise ValueError("need rg >= rh >= 0")
        if self.cube_dim < 1:
            raise ValueError("cube_dim must be >= 1")

    def pg_value(self, d: int) -> float:
        return 2.0 ** (-d / 10.0) if self.pg is None else self.pg

    def coin_threshold(self, d: int) -> int:
        return int(self.pg_value(d) * float(_WORD_MAX))

    def as_dict(self, d: int) -> dict:
        return {**asdict(self), "pg": self.pg_value(d)}

    @classmethod
    def from_dict(cls, data: dict) -> "ConstructionParams":
        return cls(**{f.name: data[f.name] for f in fields(cls)})


def _uniform_limit(n: int) -> int:
    """Largest multiple of n not above 2^64: words below it are uniform mod n."""
    return _WORD_MAX - _WORD_MAX % n


class RandomTape:
    """Deterministic keyed randomness.

    Every draw is a pure function of (seed, tag, vertex), so the explicit
    bulk construction and implicit query-time replay see identical bits no
    matter in which order vertices are visited.  A word is the 8-byte BLAKE2b
    digest, keyed by the seed, of ``tag | counter | vertex bytes``.  The
    hash of each ``tag | counter`` prefix is kept once made and copied before
    each vertex, which gives the digest of a hash keyed afresh.
    """

    def __init__(self, seed: int):
        self.seed = seed & (_WORD_MAX - 1)
        self._keyed = blake2b(key=self.seed.to_bytes(8, "big"), digest_size=8)
        # The hash of each (tag, counter) prefix, made on first use.
        self._heads: dict[tuple[int, int], blake2b] = {}

    def _head(self, tag: int, counter: int) -> blake2b:
        head = self._heads.get((tag, counter))
        if head is None:
            head = self._heads[tag, counter] = self._keyed.copy()
            head.update(bytes([tag]) + counter.to_bytes(4, "big"))
        return head

    @staticmethod
    def _digest(head: blake2b, msg: bytes) -> int:
        h = head.copy()
        h.update(msg)
        return int.from_bytes(h.digest(), "big")

    def _word(self, tag: int, vertex: int, counter: int) -> int:
        return self._digest(self._head(tag, counter), _vertex_bytes(vertex))

    def _first_words(self, tag: int, vertex_bytes: Iterable[bytes]) -> np.ndarray:
        """``_word(tag, v, 0)`` of many vertices, given as ``_vertex_bytes``,
        as a 1-D uint64 array in their order."""
        head = self._head(tag, 0)
        digests = []
        for vb in vertex_bytes:
            h = head.copy()
            h.update(vb)
            digests.append(h.digest())
        return np.frombuffer(b"".join(digests), ">u8").astype(np.uint64)

    def _below(self, tag: int, vertex: int, n: int, counter: int) -> tuple[int, int]:
        # Rejection sampling keeps the draw exactly uniform on range(n).
        limit = _uniform_limit(n)
        while True:
            w = self._word(tag, vertex, counter)
            counter += 1
            if w < limit:
                return w % n, counter

    def coin(self, vertex: int, threshold: int) -> bool:
        return self._word(_TAG_GPRIME, vertex, 0) < threshold

    def pair_positions(self, vertex: int, d: int) -> tuple[int, int]:
        """Uniform ordered pair of distinct positions in range(d)."""
        idx, _ = self._below(_TAG_PQ, vertex, d * (d - 1), 0)
        i, j = divmod(idx, d - 1)
        if j >= i:
            j += 1
        return i, j

    def tuple_positions(self, vertex: int, d: int, m: int) -> tuple[int, ...]:
        """Uniform ordered m-tuple of distinct positions in range(d)."""
        avail = list(range(d))
        out = []
        counter = 0
        for t in range(m):
            r, counter = self._below(_TAG_R6, vertex, d - t, counter)
            out.append(avail.pop(r))
        return tuple(out)

    def derive_seed(self, label: str) -> int:
        return self._digest(self._keyed, bytes([_TAG_DERIVE]) + label.encode())


@dataclass(frozen=True, eq=False)
class SwapPlan:
    """Sampled swap sites: membership sets, direction draws, surviving squares.

    ``pairs`` has one row per codeword, in the order of ``ctx._codeword_array``,
    and is made read-only here.  A drawn row holds the codeword's (p, q) draw
    as two direction positions; a row of -1s is a codeword whose draw was
    never made.  Every active square must have a drawn row, and so must the
    conflict partner of each when ``params.conflict_check`` is on: those are
    the draws that ``apply_explicit`` writes and that decided the squares.
    """

    ctx: CodeContext
    params: ConstructionParams
    seed: int
    gprime: tuple[int, ...]
    g: tuple[int, ...]
    h: tuple[int, ...]
    pairs: np.ndarray
    r6: dict[int, tuple[int, ...]]
    active_squares: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.pairs.shape != (len(self.ctx._codeword_array), 2):
            raise ValueError("pairs must hold one row of two positions per codeword")
        self.pairs.flags.writeable = False
        at = self._active_at
        if (self.pairs[at, 0] < 0).any():
            raise ValueError("every active square needs a drawn (p, q) row")
        if self.params.conflict_check:
            _, wi = _conflict_partners(self.ctx, self.pairs, at)
            if (self.pairs[wi, 0] < 0).any():
                raise ValueError("every active square's conflict partner needs a drawn (p, q) row")

    @cached_property
    def _active_at(self) -> np.ndarray:
        """The row of each active square in ``pairs``."""
        cw = self.ctx._codeword_array
        u = np.array(self.active_squares, dtype=np.int64)
        at = np.searchsorted(cw, u)
        if not np.array_equal(cw.take(at, mode="clip"), u):
            raise ValueError("every active square must be at a codeword")
        return at

    @cached_property
    def pq(self) -> Mapping[int, tuple[int, int]]:
        """Read-only map from each drawn codeword to its (p, q) draw as
        direction labels, derived from ``pairs`` on first use."""
        drawn = np.flatnonzero(self.pairs[:, 0] >= 0)
        labels = np.array(self.ctx.space.directions)[self.pairs[drawn]].tolist()
        words = self.ctx._codeword_array[drawn].tolist()
        return MappingProxyType(dict(zip(words, map(tuple, labels))))


def _draw_pq(ctx: CodeContext, tape: RandomTape, u: int) -> tuple[int, int]:
    i, j = tape.pair_positions(u, ctx.d)
    dirs = ctx.space.directions
    return dirs[i], dirs[j]


def _draw_r6(ctx: CodeContext, tape: RandomTape, v: int, m: int) -> tuple[int, ...]:
    dirs = ctx.space.directions
    return tuple(dirs[i] for i in tape.tuple_positions(v, ctx.d, m))


def _conflict_partner(ctx: CodeContext, u: int, p: int, q: int) -> Optional[int]:
    """Codeword adjacent to the far corner u+p+q, if one exists."""
    s = p ^ q
    i = ctx.space.index.get(s)
    if i is None:
        return None
    return u ^ ctx.space.bit_of(p) ^ ctx.space.bit_of(q) ^ (1 << i)


def _squares_conflict(
    ctx: CodeContext, u: int, w: int, pw: int, qw: int
) -> bool:
    far_w = w ^ ctx.space.bit_of(pw) ^ ctx.space.bit_of(qw)
    return (far_w ^ u).bit_count() == 1


def _check_construction_dims(ctx: CodeContext, params: ConstructionParams) -> None:
    if ctx.d < MIN_CONSTRUCTION_D:
        raise ValueError(f"full construction requires d >= {MIN_CONSTRUCTION_D}")
    if params.cube_dim > ctx.d:
        raise ValueError("cube_dim must not exceed d")


def _near_any(words: np.ndarray, centres: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Mask of the words at Hamming distance lo..hi from at least one centre.

    Centres are compared in doubling blocks against the words still
    unmatched, capped at about _BLOCK_ENTRIES distances: a dense centre set
    settles most words within its first few centres, as a short-circuiting
    scan would, and memory stays bounded at any |C|.
    """
    near = np.zeros(len(words), dtype=bool)
    todo = np.arange(len(words))
    start, step = 0, 4
    while start < len(centres) and todo.size:
        stop = start + max(1, min(step, _BLOCK_ENTRIES // todo.size))
        dist = np.bitwise_count(words[todo, None] ^ centres[None, start:stop])
        hit = ((dist >= lo) & (dist <= hi)).any(axis=1)
        near[todo[hit]] = True
        todo = todo[~hit]
        start, step = stop, 2 * step
    return near


def _near_code(ctx: CodeContext, centres: np.ndarray, radius: int) -> np.ndarray:
    """Mask of the codewords within distance ``radius`` of at least one centre,
    each centre a codeword.

    C is linear, so w lies within the radius of a centre g exactly when
    w ^ g is a codeword of weight at most the radius.  While the centres
    times those low-weight codewords are no more entries than the code,
    every g ^ e is marked in the sorted code array; past that, a dense
    centre set settles most words early in ``_near_any``.
    """
    cw = ctx._codeword_array
    low = cw[np.bitwise_count(cw) <= radius]
    if len(centres) * len(low) > len(cw):
        return _near_any(cw, centres, 0, radius)
    near = np.zeros(len(cw), dtype=bool)
    near[np.searchsorted(cw, (centres[:, None] ^ low).ravel())] = True
    return near


def sample_plan(ctx: CodeContext, params: ConstructionParams, tape: RandomTape) -> SwapPlan:
    """Draw all swap sites for an explicit build, in bulk over the code array.

    The draws are the implicit queries' per-codeword draws.  One pass of
    keyed hashes over the code gives every coin; (p, q) words are then
    hashed only for the codewords of H and, with the conflict check, for
    the conflict partners of their squares, which the conflict rule reads.
    Every other row of ``pairs`` is left undrawn, so with the default
    parameters, where H is empty, no (p, q) word is hashed at all.  The
    conflict rule runs as array operations over H.
    """
    check_explicit(ctx.d)
    _check_construction_dims(ctx, params)
    d = ctx.d
    cw = ctx._codeword_array
    thr = params.coin_threshold(d)

    if thr < _WORD_MAX:
        coins = tape._first_words(_TAG_GPRIME, ctx._codeword_bytes) < np.uint64(thr)
    else:
        coins = np.ones(len(cw), dtype=bool)
    gp = cw[coins]
    # Distinct codewords differ, so distance >= 1 leaves out only v itself.
    gprime = tuple(gp.tolist())
    g = tuple(gp[~_near_any(gp, gp, 1, params.rg)].tolist())
    in_h = ~_near_code(ctx, gp, params.rh)
    h_at = np.flatnonzero(in_h)
    pairs = np.full((len(cw), 2), -1, dtype=np.int64)
    _draw_pairs(ctx, tape, pairs, in_h)
    r6 = {v: _draw_r6(ctx, tape, v, params.cube_dim) for v in g}

    active = h_at
    if params.conflict_check:
        has, wi = _conflict_partners(ctx, pairs, h_at)
        todo = np.zeros(len(cw), dtype=bool)
        todo[wi] = True
        _draw_pairs(ctx, tape, pairs, todo & ~in_h)
        active = h_at[~_vetoed(ctx, pairs, h_at, has, wi)]
    return SwapPlan(
        ctx, params, tape.seed, gprime, g, tuple(cw[h_at].tolist()), pairs, r6,
        tuple(cw[active].tolist()),
    )


def _draw_pairs(ctx: CodeContext, tape: RandomTape, pairs: np.ndarray, mask: np.ndarray) -> None:
    """Write ``tape.pair_positions(u, d)`` of every codeword u under ``mask``
    into its row of ``pairs``.

    Only those codewords' first (p, q) words are hashed.  Their bytes are
    picked out of ``ctx._codeword_bytes`` by ``compress``, in C.
    """
    at = np.flatnonzero(mask)
    if not at.size:
        return
    d = ctx.d
    first = tape._first_words(_TAG_PQ, compress(ctx._codeword_bytes, mask.view(np.uint8).tobytes()))
    n = d * (d - 1)
    i, j = np.divmod((first % np.uint64(n)).astype(np.int64), d - 1)
    j += j >= i
    # A first word at or above the limit was rejected; redraw exactly.
    for k in np.flatnonzero(first >= np.uint64(_uniform_limit(n))).tolist():
        i[k], j[k] = tape.pair_positions(int(ctx._codeword_array[at[k]]), d)
    pairs[at, 0], pairs[at, 1] = i, j


def _conflict_partners(ctx: CodeContext, pairs: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, ...]:
    """Array form of ``_conflict_partner`` for the squares of the codewords
    ``cw[at]``: the positions in ``at`` of the squares that have a partner,
    and each partner's row in the code array.

    u's far corner u+p+q has syndrome p^q, so its codeword neighbour w,
    when there is one, lies across the direction labelled p^q and is found
    in the sorted code array.
    """
    cw = ctx._codeword_array
    dirs = np.array(ctx.space.directions)
    pos_of = np.full(1 << ctx.k, -1)
    pos_of[dirs] = np.arange(ctx.d)
    u, (p, q) = cw[at].astype(np.int64), pairs[at].T
    s = pos_of[dirs[p] ^ dirs[q]]
    has = np.flatnonzero(s >= 0)
    w = u[has] ^ (1 << p[has]) ^ (1 << q[has]) ^ (1 << s[has])
    return has, np.searchsorted(cw, w)


def _vetoed(
    ctx: CodeContext, pairs: np.ndarray, at: np.ndarray, has: np.ndarray, wi: np.ndarray
) -> np.ndarray:
    """The conflict rule (``_squares_conflict``) for the squares of the
    codewords ``cw[at]``, given their partners from ``_conflict_partners``."""
    cw = ctx._codeword_array
    u = cw[at[has]].astype(np.int64)
    far_w = cw[wi].astype(np.int64) ^ (1 << pairs[wi, 0]) ^ (1 << pairs[wi, 1])
    vetoed = np.zeros(len(at), dtype=bool)
    vetoed[has] = np.bitwise_count(far_w ^ u) == 1
    return vetoed


class Factorisation:
    """Assignment of every cube edge to one of d factors, labelled by X.

    Explicit mode holds one read-only (d, 2^d) uint8 axis array.  Row i is
    the factor labelled ``directions[i]``: it matches u across the axis at
    position ``axes[i, u]``, which is below d, and ``table(directions[i])``
    derives its partners.  See ``analyze.validate`` for when that is a
    factorisation.  Implicit mode holds only the context, parameters and
    tape, and answers partner queries by replaying the swap rules for the
    few codewords near the query.
    """

    def __init__(
        self,
        ctx: CodeContext,
        kind: str,
        mode: str,
        axes: Optional[np.ndarray] = None,
        params: Optional[ConstructionParams] = None,
        tape: Optional[RandomTape] = None,
        plan: Optional[SwapPlan] = None,
    ):
        if mode not in ("explicit", "implicit"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "explicit":
            if axes is None:
                raise ValueError("explicit mode needs an axis array")
            if axes.shape != (ctx.d, 1 << ctx.d) or axes.dtype != np.uint8:
                raise ValueError("axis array must be uint8 of shape (d, 2^d)")
            if axes.max() >= ctx.d:
                i, u = np.argwhere(axes >= ctx.d)[0]
                at = f"direction {ctx.space.directions[i]} at vertex {vertex_text(ctx.space, u)}"
                raise ValueError(f"slot of {at} names axis {axes[i, u]}, not below d={ctx.d}")
            axes.flags.writeable = False
        if mode == "implicit" and (params is None or tape is None):
            raise ValueError("implicit mode needs params and a tape")
        self.ctx = ctx
        self.kind = kind
        self.mode = mode
        self.params = params
        self.tape = tape
        self.plan = plan
        self._axes = axes
        # Implicit mode's per-codeword draws and swap-rule facts.  None of
        # them refers back to self, so a factorisation is freed as soon as
        # it is dropped, axis array and all.
        thr = params.coin_threshold(ctx.d) if mode == "implicit" else None
        self._coin = coin = _Memo(lambda w: tape.coin(w, thr))
        self._pq = pq = _Memo(lambda w: _draw_pq(ctx, tape, w))
        self._r6 = _Memo(lambda v: _draw_r6(ctx, tape, v, params.cube_dim))
        self._in_g = _Memo(partial(_isolated, ctx, params, coin))
        self._active = _Memo(partial(_square_survives, ctx, params, coin, pq))
        # What ``cached`` keeps, by the function that made it.
        self._cached: dict[Callable[["Factorisation"], Any], Any] = {}

    @property
    def d(self) -> int:
        return self.ctx.d

    @property
    def directions(self) -> tuple[int, ...]:
        return self.ctx.space.directions

    @property
    def seed(self) -> Optional[int]:
        return self.tape.seed if self.tape is not None else None

    @property
    def axes(self) -> np.ndarray:
        """The (d, 2^d) axis array, one row per direction position."""
        if self._axes is None:
            raise ValueError(
                f"no axis array in implicit mode (d={self.d}); call "
                f"materialize() first, which builds the explicit twin while "
                f"d <= the explicit-mode cap {explicit_cap()}"
            )
        return self._axes

    def _position(self, x: int) -> int:
        """The direction position of the factor labelled x.

        Refused unless x is an int label of X, as in a file: a bool or a
        float would find the int label it equals.
        """
        i = self.ctx.space.index.get(x) if type(x) is int else None
        if i is None:
            raise ValueError(f"unknown factor {x}")
        return i

    def table(self, x: int) -> np.ndarray:
        """Factor x's partner of every vertex, derived from its row of axes."""
        shift = np.left_shift(1, self.axes[self._position(x)], dtype=np.uint32)
        return np.bitwise_xor(shift, self.ctx._vertex_array, out=shift)

    @property
    def moved(self) -> np.ndarray:
        """U: the vertices holding a slot off its own axis, sorted and read-only.

        A slot of row i is *moved* when it names another axis than i; outside
        U every row holds its own axis.  One byte pass per row finds U on the
        first use, and it is kept: the axis array is read-only.
        """
        return self.cached(_moved_vertices)

    def cached(self, make: Callable[["Factorisation"], Any]) -> Any:
        """``make(self)``, made on the first call with ``make`` and kept with
        the factorisation.

        For facts of the axis array, which is read-only, so that a kept value
        never goes stale.  A call that raises keeps nothing.
        """
        if make not in self._cached:
            self._cached[make] = make(self)
        return self._cached[make]

    def partner(self, u: int, x: int) -> int:
        """The vertex matched to u by factor x."""
        if u < 0 or u >> self.d:
            raise ValueError(f"vertex {u} does not fit in d={self.d} bits")
        i = self._position(x)
        if self.mode == "explicit":
            return u ^ 1 << int(self.axes[i, u])
        return self._implicit_partner(u, x)

    def untouched(self, e: Edge) -> bool:
        """True when edge e still sits in the factor of its own direction."""
        return self.partner(e.lo, e.direction) == e.lo ^ self.ctx.space.bit_of(e.direction)

    def factor_of(self, e: Edge) -> int:
        lo, hi = e.endpoints(self.ctx.space)
        for x in self.directions:
            if self.partner(lo, x) == hi:
                return x
        raise ValueError(f"edge {e} is in no factor; factorisation is broken")

    def materialize(self) -> "Factorisation":
        """Explicit twin of this factorisation (same seed and parameters)."""
        if self.mode == "explicit":
            return self
        assert self.params is not None and self.tape is not None
        return build_explicit(self.ctx, self.params, self.tape)

    # -- implicit machinery -------------------------------------------------
    #
    # Every per-codeword draw and swap-rule fact is a pure function of (seed,
    # codeword), so each is computed at most once per factorisation.  A query
    # reads a nearby site's draws only when the site's reach covers the slot,
    # and tests the geometry of its directions before the site's membership,
    # which needs a whole ball of coins.

    def _implicit_partner(self, u: int, x: int) -> int:
        ctx = self.ctx
        bit_of = ctx.space.bit_of
        bx = bit_of(x)
        claims: list[int] = []

        # A swap claims (u, x) only if its directions span both x and the
        # offset from its site to u: at most 2 of them for a square, m for
        # a cube.  A site whose (u ^ site) | bit(x) has more bits is skipped
        # before any of its draws.
        for w in codewords_near(ctx, u, 2):
            if ((u ^ w) | bx).bit_count() > 2:
                continue
            p, q = self._pq[w]
            if x != p and x != q:
                continue
            if (u ^ w) & ~(bit_of(p) | bit_of(q)):
                continue
            if self._active[w]:
                claims.append(u ^ bit_of(q if x == p else p))

        m = self.params.cube_dim
        for v in codewords_near(ctx, u, m):
            if ((u ^ v) | bx).bit_count() > m or not self._coin[v]:
                continue
            r = self._r6[v]
            if x not in r or (u ^ v) & ~direction_mask(ctx.space, r):
                continue
            if self._in_g[v]:
                claims.append(u ^ bit_of(r[r.index(x) - 1]))

        if len(claims) > 1:
            raise OverlapError("overlapping swap regions at queried edge")
        return claims[0] if claims else u ^ bit_of(x)


def _isolated(ctx: CodeContext, params: ConstructionParams, coin: "_Memo", v: int) -> bool:
    """v is in G: a G' point with no other G' point within distance rg."""
    return coin[v] and not any(
        coin[w] for w in codewords_near(ctx, v, params.rg) if w != v
    )


def _square_survives(
    ctx: CodeContext, params: ConstructionParams, coin: "_Memo", pq: "_Memo", w: int
) -> bool:
    """w's square is swapped: w is in H and no conflicting square vetoes it."""
    if any(coin[w2] for w2 in codewords_near(ctx, w, params.rh)):
        return False
    if not params.conflict_check:
        return True
    w2 = _conflict_partner(ctx, w, *pq[w])
    return w2 is None or not _squares_conflict(ctx, w, w2, *pq[w2])


def _moved_vertices(fac: Factorisation) -> np.ndarray:
    """The vertices where some row of fac's axis array names another axis
    than its own, from one byte pass per row."""
    axes = fac.axes
    moved = np.zeros(axes.shape[1], dtype=bool)
    off = np.empty_like(moved)
    for i, row in enumerate(axes):
        moved |= np.not_equal(row, i, out=off)
    us = np.flatnonzero(moved)
    us.flags.writeable = False
    return us


class _Memo(dict):
    """Per-codeword cache: a missing key is computed once, then stored."""

    def __init__(self, compute: Callable[[int], Any]):
        super().__init__()
        self._compute = compute

    def __missing__(self, w: int) -> Any:
        got = self[w] = self._compute(w)
        return got


def _directional_axes(d: int) -> np.ndarray:
    """Axis array of the directional factorisation: row i is all i."""
    return np.repeat(np.arange(d, dtype=np.uint8), 1 << d).reshape(d, 1 << d)


def directional(ctx: CodeContext) -> Factorisation:
    """The baseline factorisation: factor x holds exactly the direction-x edges."""
    check_explicit(ctx.d)
    return Factorisation(ctx, "directional", "explicit", _directional_axes(ctx.d))


def apply_explicit(ctx: CodeContext, plan: SwapPlan) -> Factorisation:
    """Apply a swap plan to the directional axes, rejecting any overlap.

    Each site claims the (vertex, factor) slots it rewrites, the squares in
    plan order and then the cube swaps.  A slot claimed by two sites raises
    OverlapError naming the first claim, in that order, of a slot that
    another site already holds.
    """
    check_explicit(ctx.d)
    d = ctx.d
    claims = [_square_claims(ctx, plan)]
    claims += [_cube_claims(ctx, v, plan.r6[v]) for v in plan.g]
    vertex, dir_pos, axis = (np.concatenate(col) for col in zip(*claims))

    # The flat index of each claimed slot in the (d, 2^d) axis array.
    slot = dir_pos << d | vertex
    ordered = np.sort(slot)
    if (ordered[1:] == ordered[:-1]).any():
        # Some slot is claimed twice.  A stable sort keeps each slot's claims
        # in claim order, and site numbers grow along it, so a slot's first
        # claim by a second site is where its site number changes.
        per_site = [8] * len(plan.active_squares) + [len(c[0]) for c in claims[1:]]
        sites = np.repeat(np.arange(len(per_site)), per_site)
        order = np.argsort(slot, kind="stable")
        k, s = slot[order], sites[order]
        clash = (k[1:] == k[:-1]) & (s[1:] != s[:-1])
        if clash.any():
            first = int(order[1:][clash].min())
            raise OverlapError(
                f"overlapping swap regions: factor slot (vertex={vertex[first]}, "
                f"direction index {dir_pos[first]}) written twice"
            )
    axes = _directional_axes(d)
    axes.reshape(-1)[slot] = axis

    tape = RandomTape(plan.seed)
    return Factorisation(
        ctx, "construction", "explicit", axes, params=plan.params, tape=tape, plan=plan
    )


def _square_claims(ctx: CodeContext, plan: SwapPlan) -> tuple[np.ndarray, ...]:
    """(vertex, dir_pos, axis) of the active squares' claims, 8 per square.

    Square u claims, corner by corner for u, u+p, u+q, u+p+q, its slot in
    factor p (axis q) and then in factor q (axis p).  Its (p, q) positions
    are u's row of ``plan.pairs``.
    """
    at = plan._active_at
    u = ctx._codeword_array[at].astype(np.int64)
    pos = plan.pairs[at]
    bp, bq = 1 << pos[:, :1], 1 << pos[:, 1:]
    corners = u[:, None] ^ np.hstack([np.zeros_like(bp), bp, bq, bp | bq])
    axis = np.tile(pos[:, ::-1], 4)
    return np.repeat(corners, 2, axis=1).ravel(), np.tile(pos, 4).ravel(), axis.ravel()


def _cube_claims(ctx: CodeContext, v: int, r: Sequence[int]) -> tuple[np.ndarray, ...]:
    """(vertex, dir_pos, axis) of one cube swap's 2^m * m claims.

    For each vertex w of the small cube, in the order of the subsets of r as
    binary numbers, w's slot in factor r_j gets the axis r_(j-1).
    """
    pos = np.array([ctx.space.index[x] for x in r], dtype=np.int64)
    w = (_xor_table([1 << p for p in pos.tolist()]) ^ v)[:, None]
    shape = (w.size, len(r))
    return (
        np.broadcast_to(w, shape).ravel(),
        np.broadcast_to(pos, shape).ravel(),
        np.broadcast_to(np.roll(pos, 1), shape).ravel(),
    )


def build_explicit(
    ctx: CodeContext, params: ConstructionParams, tape: RandomTape
) -> Factorisation:
    return apply_explicit(ctx, sample_plan(ctx, params, tape))


def implicit_factorisation(
    ctx: CodeContext, params: ConstructionParams, tape: RandomTape
) -> Factorisation:
    """Query-time factorisation; no whole-cube axis array is ever built."""
    _check_construction_dims(ctx, params)
    _check_query_radius(ctx.d, params)
    return Factorisation(ctx, "construction", "implicit", params=params, tape=tape)


def _check_query_radius(d: int, params: ConstructionParams) -> None:
    """Refuse the largest query radius, of rg (never below rh), cube_dim and 2
    (squares), if its ball past the code array costs over ``DEFAULT_BALL_COST``."""
    radius, name = max(
        (params.rg, "rg"), (params.cube_dim, "cube_dim"), (2, "squares"), key=itemgetter(0)
    )
    if not _near_feasible(d, radius):
        raise ValueError(
            f"implicit queries at d={d} would enumerate Hamming balls of "
            f"radius {radius} ({name}), past the feasible bound "
            f"(ball cost > {DEFAULT_BALL_COST})"
        )


def random_greedy_factorisation(ctx: CodeContext, tape: RandomTape) -> Factorisation:
    """Repeatedly strip a random perfect matching from the remaining graph.

    The remaining graph stays regular and bipartite, so a perfect matching
    always exists.  Matchings come from augmenting paths explored in seeded
    random order; the resulting factorisation is NOT uniform over all
    1-factorisations, it is just a cheap randomised probe.
    """
    check_explicit(ctx.d)
    d, n = ctx.d, 1 << ctx.d
    rng = random.Random(tape.derive_seed("greedy"))
    used = [0] * n
    left = [u for u in range(n) if u.bit_count() % 2 == 0]
    axes = np.empty((d, n), dtype=np.uint8)
    for row in axes:
        pair = _random_perfect_matching(d, n, left, used, rng)
        for u in left:
            v = pair[u]
            i = (u ^ v).bit_length() - 1
            used[u] |= 1 << i
            used[v] |= 1 << i
            # Each vertex's entry turns from its partner into its axis.
            pair[u] = pair[v] = i
        row[:] = pair
    return Factorisation(ctx, "greedy", "explicit", axes, tape=tape)


def _random_perfect_matching(
    d: int, n: int, left: Sequence[int], used: Sequence[int], rng: random.Random
) -> list[int]:
    INF = n + 1
    pair = [-1] * n
    dist = [INF] * n

    def dirs_of(u: int) -> list[int]:
        return [i for i in range(d) if not used[u] >> i & 1]

    def bfs() -> bool:
        from collections import deque

        q = deque()
        for u in left:
            if pair[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        reachable = False
        while q:
            u = q.popleft()
            for i in dirs_of(u):
                w = pair[u ^ (1 << i)]
                if w == -1:
                    reachable = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return reachable

    def frame(u: int) -> list:
        order = dirs_of(u)
        rng.shuffle(order)
        return [u, order, 0]

    def augment(root: int) -> None:
        # Depth-first search along the BFS layers.  An explicit stack of
        # [vertex, shuffled directions, next position] frames replaces
        # recursion, since augmenting paths outgrow the recursion limit.
        stack = [frame(root)]
        while stack:
            top = stack[-1]
            u, order, pos = top
            if pos == len(order):
                dist[u] = INF
                stack.pop()
                continue
            top[2] += 1
            w = pair[u ^ (1 << order[pos])]
            if w == -1:
                for u, order, pos in reversed(stack):
                    v = u ^ (1 << order[pos - 1])
                    pair[u] = v
                    pair[v] = u
                return
            if dist[w] == dist[u] + 1:
                stack.append(frame(w))

    while bfs():
        frees = [u for u in left if pair[u] == -1]
        rng.shuffle(frees)
        for u in frees:
            if pair[u] == -1:
                augment(u)
    if any(pair[u] == -1 for u in left):
        raise RuntimeError("no perfect matching found in a regular bipartite graph")
    return pair


# Factorisation kinds the front ends can build, in the order they list them.
KINDS = ("directional", "construction", "greedy")


def build_factorisation(
    ctx: CodeContext, kind: str, params: ConstructionParams, tape: RandomTape
) -> Factorisation:
    """Explicit factorisation of the named kind.

    ``params`` is read by the construction only and ``tape`` by the
    construction and greedy; only the construction can raise OverlapError.
    """
    if kind == "directional":
        return directional(ctx)
    if kind == "construction":
        return build_explicit(ctx, params, tape)
    if kind == "greedy":
        return random_greedy_factorisation(ctx, tape)
    raise ValueError(f"unknown kind: {kind}")


def touched_edge_count(fac: Factorisation) -> int:
    """Edges whose factor differs from their direction (explicit mode)."""
    us = fac.moved
    return sum(int(np.count_nonzero(row.take(us) != i)) for i, row in enumerate(fac.axes)) // 2


def plan_summary(plan: SwapPlan) -> dict:
    cd = plan.params.cube_dim
    # A cube swap moves each of its cd * 2^(cd-1) edges to the next factor
    # of its cycle; with cd = 1 that is the edge's own factor.
    per_cube = cd * (1 << (cd - 1)) if cd > 1 else 0
    return {
        "gprime": len(plan.gprime),
        "g": len(plan.g),
        "h": len(plan.h),
        "active_squares": len(plan.active_squares),
        "pairs_drawn": int(np.count_nonzero(plan.pairs[:, 0] >= 0)),
        "touched_edges": 4 * len(plan.active_squares) + per_cube * len(plan.g),
    }


# -- file format -------------------------------------------------------------
#
# JSON lines.  Line 1 is a header; explicit factorisations follow with one
# line per factor, in direction order, listing canonical edges as
# [lo_text, direction].  A line lists only the factor's edges off its own
# axis.  Version 1, whose lines listed every edge of the factor, is refused.


def save_factorisation(fac: Factorisation, path: str) -> None:
    ctx = fac.ctx
    header = {
        "type": "factorisation",
        "version": 2,
        "d": ctx.d,
        "k": ctx.k,
        "X": list(ctx.space.directions),
        "kind": fac.kind,
        "mode": fac.mode,
        "seed": fac.seed,
        "params": fac.params.as_dict(ctx.d) if fac.params is not None else None,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        if fac.mode != "explicit":
            return
        # Each direction label's digits, right-aligned in a fixed width; the
        # NUL bytes that pad a shorter label are dropped from the line.
        width = len(str(max(ctx.space.directions)))
        label_text = np.frombuffer(
            b"".join(str(x).rjust(width, "\0").encode() for x in ctx.space.directions), np.uint8
        ).reshape(ctx.d, width)
        us = fac.moved
        for i, (x, row) in enumerate(zip(ctx.space.directions, fac.axes)):
            # A moved edge is listed from its end with a 0 on its axis; only
            # the slots at U are read.
            to = row.take(us)
            off = to != i
            moved, to = us[off], to[off]
            keep = moved >> to & 1 == 0
            edges = ""
            # A baseline file's lines have no edge, and need no formatting.
            if keep.any():
                rows = _text_rows(ctx.d, [b'["', moved[keep], b'",', bytes(width), b"],"])
                rows[:, -2 - width:-2] = label_text[to[keep]]
                text = rows.ravel()
                # The last row's comma is dropped.
                edges = text[text != 0].tobytes()[:-1].decode("ascii")
            fh.write(f'{{"factor":{x},"edges":[{edges}]}}\n')


@contextmanager
def _at_line(n: int) -> Iterator[None]:
    """Report any decoding error raised inside as a parse error at line n."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"parse error at line {n}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"parse error at line {n}: {exc}") from None


def _json_object(line: bytes) -> dict:
    obj = json.loads(line.decode("utf-8"))
    if not isinstance(obj, dict):
        raise ValueError("expected an object")
    return obj


def _read_edges(space: CubeSpace, edges: list) -> tuple[np.ndarray, np.ndarray]:
    """(lo, direction position) of every [lo_text, direction] pair, in bulk."""
    if not isinstance(edges, list):
        raise ValueError("edges must be a list")
    n, d = len(edges), space.d
    if n == 0:
        return np.zeros(0, np.uint32), np.zeros(0, np.uint32)
    try:
        pairs = set(map(len, edges)) == {2}
    except TypeError:
        pairs = False
    if not pairs:
        raise ValueError("every edge must be a [vertex text, direction] pair")
    texts = list(map(itemgetter(0), edges))
    labels = list(map(itemgetter(1), edges))
    try:
        digits = np.frombuffer("".join(texts).encode(), np.uint8)
        # digits | 1 is "1" exactly for the digits "0" and "1".
        valid = set(map(len, texts)) == {d} and not ((digits | 1) != ord("1")).any()
    except TypeError:
        valid = False
    if not valid:
        bad = next(
            s for s in texts if not isinstance(s, str) or len(s) != d or s.strip("01")
        )
        raise ValueError(f"expected a {d}-digit binary string, got {bad!r}")
    lo = _binary_values(digits.reshape(n, d))
    try:
        # A bool or a float would find the int label it equals.
        if set(map(type, labels)) != {int}:
            raise KeyError(next(a for a in labels if type(a) is not int))
        pos = np.fromiter(map(space.index.__getitem__, labels), np.uint32, count=n)
    except KeyError as exc:
        raise ValueError(f"direction {exc} not in X") from None
    return lo, pos


def _set_edges(space: CubeSpace, row: np.ndarray, x: int, lo: np.ndarray, pos: np.ndarray) -> None:
    """Set both ends of every edge (lo, direction position pos) in factor x's row of axes.

    A line is refused if two of its edges share a vertex, while an edge
    listed twice is harmless.
    """
    hi = lo ^ (np.uint32(1) << pos)
    row[lo] = pos
    row[hi] = pos
    clash = np.flatnonzero((row[lo] != pos) | (row[hi] != pos))
    if clash.size:
        k = clash[0]
        v = lo[k] if row[lo[k]] != pos[k] else hi[k]
        raise ValueError(
            f"factor {x} lists two edges at vertex {vertex_text(space, int(v))}"
        )


def _chomp(line: bytes) -> bytes:
    """line without the newline that ends it."""
    return line[:-1] if line.endswith(b"\n") else line


def load_factorisation(path: str) -> Factorisation:
    # Read line by line: a binary file's lines end at b"\n" only, whereas
    # str.splitlines would also split inside a JSON string at U+2028 and
    # shift every later line number.
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first:
            raise ValueError("parse error at line 1: empty file")

        with _at_line(1):
            header = _json_object(_chomp(first))
            if header["type"] != "factorisation":
                raise ValueError(f"type {header['type']!r} is not 'factorisation'")
            version = header["version"]
            # A bool or a float would equal the int 1 or 2.
            if type(version) is not int:
                raise ValueError(f"version must be an integer, got {version!r}")
            if version == 1:
                raise ValueError(
                    "version 1 is no longer read; rebuild the file from its header's kind, "
                    "seed and params with build_factorisation and save_factorisation"
                )
            if version != 2:
                raise ValueError(f"unsupported version {version!r}")
            d = header["d"]
            if type(d) is not int:
                raise ValueError(f"d must be an integer, got {d!r}")
            dirs = tuple(header["X"])
            kind = header["kind"]
            mode = header["mode"]
            if mode not in ("explicit", "implicit"):
                raise ValueError(f"unknown mode {mode!r}")
            seed = header["seed"]
            raw_params = header["params"]
            params = ConstructionParams.from_dict(raw_params) if raw_params else None
            tape = RandomTape(seed) if seed is not None else None
            # A context grows with d: refuse a d the mode cannot answer first.
            if mode == "explicit":
                check_explicit(d)
            elif params is None or tape is None:
                raise ValueError("implicit stub needs params and seed")
            else:
                _check_query_radius(d, params)
            ctx = code_mod.build_context(d)
            if ctx.space.directions != dirs:
                raise ValueError("direction set does not match d")

        if mode == "implicit":
            return implicit_factorisation(ctx, params, tape)

        space = ctx.space
        # Listed edges overwrite the directional baseline, so a file names
        # every factor once: a missing line would read as one with no moved edge.
        axes = _directional_axes(d)
        line_of: dict[int, int] = {}
        n = 1
        for n, line in enumerate(fh, start=2):
            # A blank line, also one ended by "\r\n", is skipped.
            if line[:1] in b"\r\n" and not line.rstrip(b"\r\n"):
                continue
            with _at_line(n):
                obj = _json_object(_chomp(line))
                x = obj["factor"]
                # 1.0 and true would find the label 1.
                if space.index.get(x) is None or type(x) is not int:
                    raise ValueError(f"unknown factor {x}")
                if x in line_of:
                    raise ValueError(f"factor {x} is listed again (first at line {line_of[x]})")
                line_of[x] = n
                lo, pos = _read_edges(space, obj["edges"])
                _set_edges(space, axes[space.index[x]], x, lo, pos)
        if len(line_of) < d:
            x = next(x for x in space.directions if x not in line_of)
            raise ValueError(
                f"parse error at line {n + 1}: the file ends with no line for factor {x}"
            )
    return Factorisation(ctx, kind, "explicit", axes, params=params, tape=tape)
