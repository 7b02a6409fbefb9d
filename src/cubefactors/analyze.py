"""Checks and statistics over factorisations and direction subsets.

Exact identities (component counts of directional unions, code sizes, parity
signatures of small cubes) are asserted by the test-suite; quantities that
are only known asymptotically (connectivity of random unions, disturbed path
counts) are reported as statistics and never asserted here.

Connectivity questions go through one engine, ``_Union``: a factor set N,
grown a factor at a time, that tells whether its union is connected and
labels each vertex with the smallest vertex of its component.
``min_connecting_prefix`` grows one along a chain and asks it after each
factor, ``rmin`` copies its parent's at each node of its search, and the
four subset analyses (``union_components``, ``small_cube_connectivity``,
``tf_connectivity``, ``is_connected``) ask one for a subset's labels.

The engine first reads only U, the vertices with a slot off its own axis
(``Factorisation.moved``): a coset u + span(N) that keeps all the slots of
the factors N inside it is a whole component of their union, and one that
loses few enough edges is still connected inside, so that the graph of the
cosets decides the rest.  ``_CosetView`` alone numbers the cosets, finds
the closed ones and certifies the rest.  These rules need a valid
factorisation and a sparse U, settled once per factorisation
(``_CosetRules``).  Where they leave N open, or do not apply, N is folded:
the first matching labels each vertex with the smaller end of its edge,
and each further one is merged by hooking and pointer jumping (Shiloach
and Vishkin, 1982) over the component roots alone (``_merge``, through
``_hook``).  A folded N carries its labels to its extensions, one merge
each.  The rules are listed, in the order tried, in ``_Union``'s docstring.

The subset analyses share one memo entry per factorisation
(``_labels``, through ``fac.cached``): the sorted distinct
directions of the last subset labelled and its read-only label array,
4·2^d bytes (1 MB at d = 18, 16 MB at d = 22).  ``analyze`` with several
``--op`` asks them about one subset in one process.  A second subset
replaces the entry, and the entry is freed with its factorisation.
``rmin`` and the chains neither read nor write the memo.
``closed_cosets`` counts the closed cosets of one subset, and
``in_closed_coset`` tells whether one vertex's coset is closed.

Every analysis of factor unions, the parallel-path counts too, reads the
axis array or whole partner rows derived from it (``table``), so they take
an explicit factorisation.  An implicit one is refused by
``Factorisation.axes``, whose error says how to build its explicit twin:
build it once and pass it to every analysis.
"""

from __future__ import annotations

import copy
import random
from collections import Counter, deque
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import gf2
from .code import CodeContext, in_code, phi_table
from .construct import Factorisation
from .cube import Edge, _xor_table, direction_mask

__all__ = [
    "ValidationReport",
    "ComponentReport",
    "TfContext",
    "TfLabel",
    "RResult",
    "validate",
    "union_components",
    "bfs_components",
    "small_cube_connectivity",
    "decomposition_of",
    "tf_context",
    "tf_label",
    "tf_class_sizes",
    "tf_connectivity",
    "code_intersections",
    "code_intersection",
    "psi_criterion",
    "untouched_parallel_paths",
    "untouched_path_histogram",
    "rmin",
    "is_connected",
    "closed_cosets",
    "in_closed_coset",
    "min_connecting_prefix",
    "settled_prefixes",
    "connectivity_profile",
]

RMIN_MAX_D = 20


def _dirs(ctx: CodeContext, spec: Iterable[int]) -> tuple[int, ...]:
    """The distinct directions of spec, sorted; refused if empty or not in X."""
    dirs = tuple(sorted(set(spec)))
    if not dirs:
        raise ValueError("direction subset must be nonempty")
    for x in dirs:
        if x not in ctx.space.index:
            raise ValueError(f"direction {x} not in X")
    return dirs


# -- validity -----------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    vertex: Optional[int] = None
    factor: Optional[int] = None
    message: str = ""


# Vertices of U per block of ``validate``'s checks.
_BLOCK = 1 << 12


def _consistent(axes: np.ndarray, blk: np.ndarray) -> bool:
    """Whether every slot at the vertices blk pairs with its partner and
    every column there is a permutation of the axes."""
    a, across = np.empty(blk.size, np.uint8), np.empty(blk.size, np.uint8)
    diff = np.zeros(blk.size, np.uint8)
    # Index-sized, so that ``take`` gathers through it without a converted
    # copy, and ``seen`` too, so that no pass casts.
    word, seen = np.empty(blk.size, np.intp), np.zeros(blk.size, np.intp)
    for row in axes:
        # blk is in range, so "clip" never clips; it spares the copy of
        # ``out`` that the default mode makes.
        row.take(blk, out=a, mode="clip")
        np.left_shift(1, a, out=word, dtype=np.intp)
        seen |= word
        row.take(np.bitwise_xor(word, blk, out=word), out=across, mode="clip")
        diff |= np.bitwise_xor(across, a, out=across)
    return not diff.any() and not np.bitwise_xor(seen, (1 << len(axes)) - 1, out=seen).any()


def _first_fault(axes: np.ndarray, blk: np.ndarray, rows: int) -> Optional[tuple[int, int]]:
    """(row, vertex) of the first fault in the first ``rows`` rows, at a vertex
    of blk or at an own-axis slot beside a moved slot of blk."""
    seen = np.zeros(blk.size, np.uint32)
    for i in range(rows):
        row = axes[i]
        a = row.take(blk)
        bit = np.left_shift(1, a, dtype=np.uint32)
        bad = (row.take(blk ^ bit) != a) | (seen & bit != 0)
        seen |= bit
        # An own-axis slot fails exactly when its partner across i is moved.
        beside = blk[(a != i) & (row.take(blk ^ 1 << i) == i)] ^ 1 << i
        faults = np.concatenate([blk[bad], beside])
        if faults.size:
            return i, int(faults.min())
    return None


def validate(fac: Factorisation) -> ValidationReport:
    """Check that the factors are perfect matchings partitioning all edges.

    Every slot names an axis below d (``Factorisation`` refuses any other),
    so a row is a perfect matching of the cube exactly when
    ``axes[i, u ^ 2^axes[i, u]] == axes[i, u]``; the d rows then partition
    the edges exactly when every vertex sees each axis once.

    A slot of row i is *moved* when it names another axis than i.  Outside
    U, the vertices with a moved slot (``fac.moved``), every column is
    0..d-1, so the checks run on U alone, in blocks of ``_BLOCK``
    of its vertices with the rows inner.  A block passes when every slot at
    its vertices pairs with its partner and every column there is a
    permutation of the axes.  A slot on its own axis i outside U fails only
    beside a moved slot w of row i, and then w's block fails too: either
    w's column is no permutation, or some row j != i puts axis i at w and
    its partner across i is that own-axis vertex, where row j holds j.

    The first faulty vertex of the first faulty row is reported.  It is
    looked for in the failing blocks alone, among their vertices and the
    own-axis slots beside their moved ones, and classified by the scalar
    check below.  The report is kept with the factorisation
    (``fac.cached``), whose axis array is read-only.  Needs an explicit
    factorisation: pass an implicit one's explicit twin.
    """
    return fac.cached(_validate)


def _validate(fac: Factorisation) -> ValidationReport:
    """``validate``'s report, made once per factorisation."""
    axes = fac.axes
    d = fac.d
    us = fac.moved
    first: Optional[tuple[int, int]] = None
    for s in range(0, us.size, _BLOCK):
        blk = us[s : s + _BLOCK]
        if not _consistent(axes, blk):
            fault = _first_fault(axes, blk, d if first is None else first[0] + 1)
            if fault is not None and (first is None or fault < first):
                first = fault
    if first is None:
        return ValidationReport(True)
    i, u = first
    row = axes[i]
    if row[u ^ 1 << int(row[u])] != row[u]:
        message = "factor is not an involution"
    else:
        # The edge sits in the first earlier row with the same axis.
        j = int((axes[:i, u] == row[u]).argmax())
        message = f"edge already assigned to factor {fac.directions[j]}"
    return ValidationReport(False, u, fac.directions[i], message)


# -- connectivity -------------------------------------------------------------


@dataclass(frozen=True)
class ComponentReport:
    """Component count and sorted sizes of a factor union."""

    count: int
    sizes: tuple[int, ...]


def _hook(comp: np.ndarray, roots: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Join the components of ``comp`` joined by the root pairs a > b, in
    place; the roots left.

    ``comp`` points every node at a lower or equal one, and ``roots`` lists
    the nodes that point at themselves.  Each round hooks the larger root of
    every pair onto the smaller one, then jumps the pointers of ``roots``
    alone, each pass over the roots still moving, until every one points at a
    root of the union so far.  Other nodes still point at their old root.
    Roots only ever point lower, so each component keeps its smallest node
    as its root.
    """
    while a.size:
        np.minimum.at(comp, a, b)
        moved, up = roots, comp.take(roots)
        while True:
            jumped = comp.take(up)
            more = np.flatnonzero(jumped != up)
            if not more.size:
                break
            moved, up = moved.take(more), jumped.take(more)
            comp[moved] = up
        a, b = comp.take(a), comp.take(b)
        keep = np.flatnonzero(a != b)
        a, b = a.take(keep), b.take(keep)
        a, b = np.maximum(a, b), np.minimum(a, b)
    return roots.take(np.flatnonzero(comp.take(roots) == roots))


def _merge(
    comp: np.ndarray, roots: np.ndarray, pt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Labels and roots of the union of ``comp``'s components with one more matching.

    ``comp`` labels every vertex with the smallest vertex of its component,
    so ``comp[comp] == comp``, and ``roots`` lists those smallest vertices.
    Each edge between two components is kept once, from its end with the
    larger label, and ``_hook`` joins the roots along them.  Only the roots
    are jumped, so one gather at the end relabels the other vertices, and
    the result keeps the minimum-vertex labelling.
    """
    m = comp.take(pt)
    # Subsets are picked by index (flatnonzero, then take): a boolean mask
    # that is true at random half the places costs about four times more.
    edges = np.flatnonzero(comp > m)
    a, b = comp.take(edges), m.take(edges)
    comp = comp.copy()
    roots = _hook(comp, roots, a, b)
    return comp.take(comp), roots


def _label_memo(fac: Factorisation) -> dict:
    """``_labels``' memo (``fac.cached``): the last subset key and its labels.
    It refers to no factorisation, so it is freed with the one keeping it."""
    return {}


def _labels(fac: Factorisation, dirs: Sequence[int]) -> np.ndarray:
    """Minimum-vertex component label of every vertex in the dirs' union.

    Kept under ``tuple(dirs)`` (callers pass ``_dirs``' sorted distinct
    tuple) for the last subset asked for, so the analyses of one subset
    label it once; every caller of one key gets the same read-only array.
    Reads the axis array, so an implicit factorisation is refused.
    """
    key = tuple(dirs)
    memo = fac.cached(_label_memo)
    if key not in memo:
        # The last subset's labels are dropped before the new ones are made.
        memo.clear()
        memo[key] = _Union(fac, key).labels()
        memo[key].flags.writeable = False
    return memo[key]


def union_components(fac: Factorisation, spec: Iterable[int]) -> ComponentReport:
    """Components of the union of the chosen factors, from their vertex labels."""
    labels = _labels(fac, _dirs(fac.ctx, spec))
    # np.bincount would first copy the uint32 labels to 2^d intp; ufunc.at
    # reads them in place.
    sizes = np.zeros(int(labels.max()) + 1, np.intp)
    np.add.at(sizes, labels, 1)
    sizes = np.sort(sizes[sizes > 0])
    return ComponentReport(len(sizes), tuple(sizes.tolist()))


def bfs_components(fac: Factorisation, spec: Iterable[int]) -> ComponentReport:
    """Independent breadth-first oracle for the same components, in explicit mode."""
    n = 1 << fac.d
    tables = [fac.table(x) for x in _dirs(fac.ctx, spec)]
    seen = bytearray(n)
    sizes = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = 1
        size = 0
        q = deque([start])
        while q:
            u = q.popleft()
            size += 1
            for pt in tables:
                v = int(pt[u])
                if not seen[v]:
                    seen[v] = 1
                    q.append(v)
        sizes.append(size)
    return ComponentReport(len(sizes), tuple(sorted(sizes)))


def _one_component_per_key(keys: np.ndarray, labels: np.ndarray) -> dict[int, bool]:
    """For each key value, in increasing order: do all its vertices share one label?

    One scatter picks a label per key; a key is split when any of its
    vertices carries another label.
    """
    size = int(keys.max()) + 1
    first = np.empty(size, dtype=labels.dtype)
    first[keys] = labels
    split = np.bincount(keys[labels != first.take(keys)], minlength=size)
    present = np.flatnonzero(np.bincount(keys, minlength=size))
    return dict(zip(present.tolist(), (split.take(present) == 0).tolist()))


def small_cube_connectivity(fac: Factorisation, spec: Iterable[int]) -> dict[int, bool]:
    """For each small cube of the subset: do its vertices land in one component?

    Components are taken in the whole union graph, not within the small cube.
    """
    dirs = _dirs(fac.ctx, spec)
    mask = direction_mask(fac.ctx.space, dirs)
    ids = fac.ctx._vertex_array & ~np.uint32(mask)
    return _one_component_per_key(ids, _labels(fac, dirs))


# -- direction-subset algebra ---------------------------------------------------


def decomposition_of(ctx: CodeContext, spec: Iterable[int]) -> gf2.Decomposition:
    """Span W of the subset inside F_2^k, with complement and coset labels."""
    dirs = _dirs(ctx, spec)
    return gf2.decompose(gf2.span_basis(dirs, ctx.k))


@dataclass(frozen=True)
class TfContext:
    """Per-subset data for parity signatures of small cubes.

    ``masks[t-1]`` is the coordinate mask of the active directions in the
    coset with label t.  A mask may be empty when no direction falls in that
    coset; the affected signature bit is then constantly zero.
    """

    ctx: CodeContext
    directions: tuple[int, ...]
    dec: gf2.Decomposition
    masks: tuple[int, ...]

    @property
    def n_labels(self) -> int:
        return (1 << self.dec.label_width) - 1


@dataclass(frozen=True)
class TfLabel:
    """Parity signature f (bit t-1 is f_t) and psi, the label-XOR over set bits."""

    bits: int
    psi: int


def tf_context(ctx: CodeContext, spec: Iterable[int]) -> TfContext:
    dirs = _dirs(ctx, spec)
    dec = decomposition_of(ctx, dirs)
    masks = [0] * ((1 << dec.label_width) - 1)
    for x in ctx.space.directions:
        t = dec.coset_label(x)
        if t:
            masks[t - 1] |= ctx.space.bit_of(x)
    return TfContext(ctx, dirs, dec, tuple(masks))


def tf_label(tfc: TfContext, u: int) -> TfLabel:
    bits = 0
    psi = 0
    for j, m in enumerate(tfc.masks):
        if (u & m).bit_count() & 1:
            bits |= 1 << j
            psi ^= j + 1
    return TfLabel(bits, psi)


def _signature_bits(tfc: TfContext) -> np.ndarray:
    """Parity signature bits of every vertex, as in ``tf_label``: the XOR of
    the signature bits of its set coordinates."""
    return _xor_table([
        sum(1 << j for j, m in enumerate(tfc.masks) if m >> i & 1)
        for i in range(tfc.ctx.d)
    ])


def tf_class_sizes(tfc: TfContext) -> dict[int, int]:
    """Sizes of the realised signature classes over all 2^d vertices."""
    uniq, counts = np.unique(_signature_bits(tfc), return_counts=True)
    return {int(b): int(c) for b, c in zip(uniq, counts)}


def tf_connectivity(fac: Factorisation, spec: Iterable[int]) -> dict[int, bool]:
    """Per signature class: do the class's vertices share one component?"""
    dirs = _dirs(fac.ctx, spec)
    bits = _signature_bits(tf_context(fac.ctx, dirs))
    return _one_component_per_key(bits, _labels(fac, dirs))


def code_intersections(ctx: CodeContext, spec: Iterable[int]) -> dict[int, int]:
    """Codeword count inside every small cube of the subset, by direct counting."""
    dirs = _dirs(ctx, spec)
    mask = direction_mask(ctx.space, dirs)
    ids = ctx._vertex_array & ~np.uint32(mask)
    result = {int(i): 0 for i in np.unique(ids)}
    cw_ids, counts = np.unique(ids[phi_table(ctx) == 0], return_counts=True)
    for i, c in zip(cw_ids, counts):
        result[int(i)] = int(c)
    return result


def code_intersection(ctx: CodeContext, spec: Iterable[int], cube_id: int) -> int:
    """|S ∩ C| for the small cube with the given id."""
    dirs = _dirs(ctx, spec)
    mask = direction_mask(ctx.space, dirs)
    if cube_id & mask or cube_id >> ctx.d:
        raise ValueError("cube_id must be zero on the subset's coordinates")
    bits = [ctx.space.bit_of(x) for x in dirs]
    return sum(
        in_code(ctx, cube_id | sum(b for j, b in enumerate(bits) if m >> j & 1))
        for m in range(1 << len(bits))
    )


def psi_criterion(ctx: CodeContext, spec: Iterable[int], cube_id: int) -> bool:
    """True when the cube's parity signature has psi = 0.

    Equivalent to the cube meeting the code; the equivalence is checked
    against ``code_intersection`` by the test-suite, not assumed here.
    """
    dirs = _dirs(ctx, spec)
    mask = direction_mask(ctx.space, dirs)
    if cube_id & mask or cube_id >> ctx.d:
        raise ValueError("cube_id must be zero on the subset's coordinates")
    return tf_label(tf_context(ctx, dirs), cube_id).psi == 0


# -- parallel paths -------------------------------------------------------------


def _disturbed(fac: Factorisation, words: np.ndarray, js: Iterable[int]) -> Iterator[np.ndarray]:
    """For each position j of js, how many of the d-1 parallel paths around
    the edge (w, w + e_j) are disturbed, for each codeword w of words.  The
    path through position i != j, w -> w + e_i -> v + e_i -> v with
    v = w + e_j, is untouched when slot i at w, slot j at w + e_i and slot i
    at v hold their own axis; the first of them is read once for every j."""
    axes = fac.axes
    own = np.arange(fac.d, dtype=np.uint8)[:, None]
    at_w = words ^ np.left_shift(1, own, dtype=np.uint32)
    own_at_w = axes.take(words, 1) == own
    for j in js:
        kept = axes[j, at_w] == j
        kept &= own_at_w
        kept &= axes.take(words ^ np.uint32(1 << j), 1) == own
        # Row j is the edge itself, not one of its paths.
        kept[j] = True
        yield fac.d - np.count_nonzero(kept, axis=0)


def untouched_parallel_paths(fac: Factorisation, e: Edge) -> int:
    """How many of the d-1 parallel 3-edge paths around e are fully untouched.

    The edge must have an endpoint in the code.  For each direction x other
    than e's own, the path u -> u+x -> v+x -> v is untouched when all three
    of its edges still sit in the factors of their own directions.
    """
    ctx = fac.ctx
    lo, hi = e.endpoints(ctx.space)
    u = lo if in_code(ctx, lo) else hi
    if not in_code(ctx, u):
        raise ValueError("edge has no endpoint in the code")
    j = ctx.space.index[e.direction]
    return fac.d - 1 - int(next(_disturbed(fac, np.array([u], np.uint32), [j]))[0])


def untouched_path_histogram(fac: Factorisation) -> dict[int, int]:
    """Histogram of disturbed-path counts over the d·2^(d-k) code-incident
    edges, read from the axis array one edge direction at a time."""
    counts = _disturbed(fac, fac.ctx._codeword_array, range(fac.d))
    hist = sum(np.bincount(n, minlength=fac.d) for n in counts)
    return {k: int(n) for k, n in enumerate(hist) if n}


# -- minimum connecting subset size ----------------------------------------------


@dataclass(frozen=True)
class RResult:
    """r(M) with its certificate.

    ``witness`` is a largest disconnected factor set, of size r - 1, and
    ``vertex`` the smallest vertex outside vertex 0's component in its union;
    both are None when r = 1.  ``subsets_checked`` counts the unions the
    search labelled.
    """

    r: int
    witness: Optional[tuple[int, ...]]
    vertex: Optional[int]
    subsets_checked: int


def rmin(fac: Factorisation) -> RResult:
    """Smallest r such that every union of r factors is connected.

    A subset of a disconnected set is disconnected, so r is one more than the
    size of a largest disconnected set.  A depth-first search walks the
    subsets of factor positions in increasing order, extending only those
    whose union is disconnected.  Each node is a copy of its parent's
    ``_Union`` grown by one factor, which settles it by the coset rules or
    one more merge of its carried labels; the root is the empty set.  A
    branch is cut when even all the positions left could not beat the
    largest disconnected set found so far.  Needs an explicit factorisation:
    pass an implicit one's explicit twin.
    """
    if fac.d > RMIN_MAX_D:
        raise ValueError(
            f"rmin is guarded to d <= {RMIN_MAX_D} (got d={fac.d}); in the swapping "
            "setting one exact search took about 52 s at d = 19 and 240-254 s at "
            "d = 20, one run each on a 2-core machine, and larger d is not timed"
        )
    best: tuple[int, ...] = ()
    checked = 0

    def extend(chosen: tuple[int, ...], union: _Union) -> None:
        nonlocal best, checked
        for j in range(chosen[-1] + 1 if chosen else 0, fac.d):
            if len(chosen) + fac.d - j <= len(best):
                return
            child = union.child()
            child.add(fac.directions[j])
            checked += 1
            if not child.connected():
                if len(chosen) >= len(best):
                    best = (*chosen, j)
                extend((*chosen, j), child)

    extend((), _Union(fac))
    if len(best) == fac.d:
        raise AssertionError("full factor union must be connected")
    witness = tuple(fac.directions[j] for j in best) if best else None
    # The smallest vertex outside vertex 0's component is its own label.
    vertex = int(np.flatnonzero(_Union(fac, witness).labels())[0]) if witness else None
    return RResult(len(best) + 1, witness, vertex, checked)


def is_connected(fac: Factorisation, spec: Iterable[int]) -> bool:
    """True when the union of the chosen factors is connected."""
    return not _labels(fac, _dirs(fac.ctx, spec)).any()


class _CosetView:
    """A set N of factors, grown a factor at a time, seen from U alone.

    ``mask`` (M) has the bit of each factor's own axis, k factors in all.  At
    the j-th vertex u of U, ``acc[j]`` is the OR of ``1 << axes[f, u]`` over
    the rows f of N.  u is *dirty* when that OR differs from M: a slot of N at
    u leaves the axes of M.  Outside U every slot is on its own axis, so only
    vertices of U can be dirty.  ``coset[j]`` numbers u's coset u + span(M),
    the bits of u off M packed low, so that the 2^(d-k) cosets are numbered
    in the order of their smallest vertices, each the coset's number
    deposited on the bits off M.  A coset with no dirty vertex is *closed*:
    every slot of N there stays inside it.  The numbering is read and
    written by the methods below alone.
    """

    def __init__(self, fac: Factorisation, dirs: Iterable[int] = ()):
        self.axes, self.us, self.index = fac.axes, fac.moved, fac.ctx.space.index
        self.acc = np.zeros(self.us.size, np.uint32)
        self.coset = self.us.astype(np.uint32)
        self.mask = 0
        self.k = 0
        self._dirty: Optional[np.ndarray] = None
        for x in dirs:
            self.add(x)

    @property
    def cosets(self) -> int:
        return 1 << (len(self.axes) - self.k)

    @property
    def off(self) -> list[int]:
        """The axes off M, lowest first: bit r of a coset number is bit
        ``off[r]`` of its vertices."""
        return [p for p in range(len(self.axes)) if not self.mask >> p & 1]

    def add(self, x: int) -> None:
        """Grow N by the factor of direction x."""
        i = self.index[x]
        # A new array, not in place, so that a shallow copy grows apart.
        bits = np.left_shift(1, self.axes[i].take(self.us), dtype=np.uint32)
        self.acc = np.bitwise_or(self.acc, bits, out=bits)
        # Axis i's place among the bits off M, which drops out of the number.
        low = i - (self.mask & ((1 << i) - 1)).bit_count()
        c = self.coset
        self.coset = (c & ((1 << low) - 1)) | (c >> (low + 1) << low)
        self.mask |= 1 << i
        self.k += 1
        self._dirty = None

    def dirty(self) -> np.ndarray:
        """Indices into U of the dirty vertices, found once per N."""
        if self._dirty is None:
            self._dirty = np.flatnonzero(self.acc != self.mask)
        return self._dirty

    def hits(self) -> np.ndarray:
        """The number of dirty vertices in each coset; the closed cosets
        have none."""
        return np.bincount(self.coset.take(self.dirty()), minlength=self.cosets)

    def number(self, u: int) -> int:
        """The number of u's coset."""
        return sum(1 << r for r, p in enumerate(self.off) if u >> p & 1)

    def vertex(self, c: int) -> int:
        """The smallest vertex of coset c."""
        return sum(1 << p for r, p in enumerate(self.off) if c >> r & 1)

    def spread(self, comp: np.ndarray) -> np.ndarray:
        """The 2^d array whose entry u is the smallest vertex of coset
        ``comp[c]``, c the number of u's coset.

        No index is built: the result is seen with one axis per run of bits
        in or off M, from the top bit down, and the smallest vertices, seen
        the same way with length 1 along the runs in M, are broadcast into
        it.
        """
        d = len(self.axes)
        values = _xor_table([1 << p for p in self.off]).take(comp)
        runs = [
            (inside, 1 << len(list(bits)))
            for inside, bits in groupby(range(d - 1, -1, -1), lambda p: self.mask >> p & 1)
        ]
        out = np.empty(1 << d, values.dtype)
        out.reshape([n for _, n in runs])[...] = values.reshape([1 if inside else n for inside, n in runs])
        return out

    def graph(self) -> Optional[np.ndarray]:
        """The smallest coset number in each coset's component of N's union,
        when every coset is certified connected inside; else None.  A valid
        factorisation only.

        Let miss(u) = popcount(M & ~OR(u)), the edges of u's subcube Q_k
        missing from N's union, and R_c half its sum over the coset c, the
        number of missing edges.  c is *certified* when R_c < k, the edge
        connectivity of Q_k (a closed coset has R_c = 0); or when every
        miss < k, the misses of the m_c vertices with miss >= 2 (*multi*)
        sum below 2(k - 1), so that m_c <= k - 2, and R_c < 2^(k-1) - m_c.
        Either way c is connected inside.  For suppose a cut splits c.  By
        the edge-isoperimetric inequality (Harper, 1964) it has all k edges
        at one vertex, which no miss < k allows, or at least 2(k - 1) edges,
        more than the multi vertices miss; so some cut edge, along an axis
        i, has no multi end, and both its ends miss that edge alone.  Across
        any other axis both ends keep their edges, so the parallel i-edge
        there is cut too, unless a multi vertex blocks it.  At most k - 2
        positions of Q_(k-1) are blocked, fewer than its vertex
        connectivity, so every unblocked position, at least 2^(k-1) - m_c of
        them, has its i-edge cut, which R_c rules out.

        When every coset is certified, N's components are unions of cosets
        joined by the coset graph.  Its edges are the slots at dirty
        vertices that leave M, and ``_hook`` joins its 2^(d-k) nodes.  Every
        node is a root there, so the labelling it leaves is flat.
        """
        k, n, m = self.k, self.cosets, np.uint32(self.mask)
        dirty = self.dirty()
        cd = self.coset.take(dirty)
        acc = self.acc.take(dirty)
        miss = np.bitwise_count(~acc & m)
        twice_r = np.bincount(cd, weights=miss, minlength=n)
        ok = twice_r < 2 * k
        if not ok.all():
            multi = np.flatnonzero(miss >= 2)
            cm, mm = cd.take(multi), miss.take(multi)
            ok |= (
                (np.bincount(cm[mm >= k], minlength=n) == 0)
                & (np.bincount(cm, weights=mm, minlength=n) < 2 * (k - 1))
                & (twice_r < 2 * ((1 << (k - 1)) - np.bincount(cm, minlength=n)))
            )
            if not ok.all():
                return None
        comp = np.arange(n, dtype=np.uint32)
        if n == 1:
            return comp
        # One coset-graph edge per slot off M: peel the lowest bit off each
        # OR; the bit's place among the bits off M is the neighbour's.
        off, src, ends, nbrs = acc & ~m, cd, [cd[:0]], [cd[:0]]
        while True:
            has = np.flatnonzero(off)
            if not has.size:
                break
            off, src = off.take(has), src.take(has)
            low = off & (~off + 1)
            ends.append(src)
            nbrs.append(src ^ np.left_shift(1, np.bitwise_count((low - 1) & ~m), dtype=np.uint32))
            off ^= low
        a, b = np.concatenate(ends), np.concatenate(nbrs)
        _hook(comp, np.arange(n), np.maximum(a, b), np.minimum(a, b))
        return comp


def closed_cosets(fac: Factorisation, spec: Iterable[int]) -> tuple[int, int, Optional[int]]:
    """Closed cosets of the chosen factors N: (how many, of how many, and the
    smallest vertex of the first, or None).

    With M the axes of N's own directions and k = |N|, the cosets are the
    2^(d-k) subcubes u + span(M).  A closed one, where every slot of N stays
    on an axis of M, holds all the edges of its subcube, so it is exactly one
    component of N's union in a valid factorisation.  Read from U alone
    (``_CosetView``).
    """
    view = _CosetView(fac, _dirs(fac.ctx, spec))
    closed = np.flatnonzero(view.hits() == 0)
    if not closed.size:
        return 0, view.cosets, None
    return closed.size, view.cosets, view.vertex(int(closed[0]))


def in_closed_coset(fac: Factorisation, spec: Iterable[int], u: int) -> bool:
    """True when u's coset u + span(M) under the chosen factors is closed,
    that is, holds no dirty vertex (see ``closed_cosets``)."""
    dirs = _dirs(fac.ctx, spec)
    if u < 0 or u >> fac.d:
        raise ValueError(f"vertex {u} does not fit in d={fac.d} bits")
    view = _CosetView(fac, dirs)
    return not view.hits()[view.number(u)]


class _CosetRules:
    """Whether the coset rules apply to one factorisation, kept by
    ``fac.cached``; ``_Union`` reads them.

    ``moved`` is U when the rules may run, else None.  They need a valid
    factorisation (``validate``) and a sparse U.  The construction moves
    10-27 % of the vertices at d = 8..20; greedy builds and rotated rows move
    all of them, and there nearly every coset is dirty, the rules seldom
    settle anything, and validating U and trying them cost more than they
    save.  So a factorisation with half its vertices or more in U goes
    straight to the fold.  ``settled`` counts the factor sets each rule has
    settled (``_Union.connected``).
    """

    def __init__(self, fac: Factorisation):
        us = fac.moved
        sparse = 2 * us.size < 1 << fac.d
        self.moved = us if sparse and validate(fac).ok else None
        self.settled: Counter[str] = Counter()


def settled_prefixes(fac: Factorisation) -> dict[str, int]:
    """How many factor sets the engine (``_Union.connected``) has settled on
    fac by each rule, ``closed``, ``certified`` and ``fold``: the chain
    prefixes of ``min_connecting_prefix`` and the subsets ``rmin`` checks
    alike."""
    settled = fac.cached(_CosetRules).settled
    return {rule: settled[rule] for rule in ("closed", "certified", "fold")}


class _Union:
    """A set N of factors, grown a factor at a time, that tells whether its
    union is connected and labels the union's components.

    Where the coset rules apply (``_CosetRules``), N is seen from U
    (``_CosetView``), and ``connected`` settles it, with k = |N|, by the
    first rule that holds:

    * ``closed``: while k < d, if the dirty vertices leave some coset
      untouched, that coset is a whole component, so N is disconnected.
      Fewer dirty vertices than cosets always leave one untouched.
    * ``certified``: when every coset is certified connected inside, N's
      union is connected exactly when the coset graph is
      (``_CosetView.graph``).
    * ``fold``: otherwise N is folded from scratch once, and its labels and
      roots are carried to every extension, one ``_merge`` each, so a chain
      never takes more merges than the fold alone.

    A dense or invalid factorisation is folded from the empty set on.  The
    first matching labels each vertex with the smaller end of its edge, and
    a connected union takes no more merges.  ``labels`` reads the coset
    graph when every coset is certified, else the fold; both give each
    vertex the smallest vertex of its component.  ``settled_prefixes``
    counts the sets each rule settles.
    """

    def __init__(self, fac: Factorisation, dirs: Iterable[int] = ()):
        rules = fac.cached(_CosetRules)
        self.fac, self.settled = fac, rules.settled
        self.view = None if rules.moved is None else _CosetView(fac)
        self.dirs: tuple[int, ...] = ()
        self.folded: Optional[tuple[np.ndarray, np.ndarray]] = None
        for x in dirs:
            self.add(x)

    def child(self) -> _Union:
        """A copy to grow apart from this one."""
        other = copy.copy(self)
        other.view = copy.copy(self.view)
        return other

    def add(self, x: int) -> None:
        """Grow N by the factor of direction x."""
        self.dirs += (x,)
        if self.view is not None:
            self.view.add(x)
        elif self.folded is None:
            idx = self.fac.ctx._vertex_array
            comp = np.minimum(idx, self.fac.table(x))
            self.folded = comp, np.flatnonzero(comp == idx)
        elif self.folded[1].size > 1:
            self.folded = _merge(*self.folded, self.fac.table(x))

    def _cosets(self) -> Optional[np.ndarray]:
        """The coset graph's labels when every coset is certified, else None
        with N folded."""
        if self.view is not None:
            comp = self.view.graph()
            if comp is not None:
                return comp
            dirs, self.view, self.dirs = self.dirs, None, ()
            for x in dirs:
                self.add(x)
        return None

    def connected(self) -> bool:
        """Whether N's union is connected, settled by the first rule that holds."""
        view = self.view
        if view is not None and view.k < len(view.axes) and (
            view.dirty().size < view.cosets or not view.hits().all()
        ):
            rule, answer = "closed", False
        else:
            comp = self._cosets()
            if comp is None:
                rule, answer = "fold", self.folded[1].size == 1
            else:
                rule, answer = "certified", not comp.any()
        self.settled[rule] += 1
        return answer

    def labels(self) -> np.ndarray:
        """The smallest vertex of each vertex's component."""
        comp = self._cosets()
        return self.folded[0] if comp is None else self.view.spread(comp)


def min_connecting_prefix(fac: Factorisation, order: Sequence[int]) -> int:
    """Smallest prefix length of ``order`` whose factor union is connected.

    One ``_Union`` grows along the chain and settles each prefix in turn;
    ``settled_prefixes`` counts them by rule.  Needs an explicit
    factorisation: pass an implicit one's explicit twin.
    """
    dirs = _dirs(fac.ctx, order)
    if len(dirs) != len(tuple(order)) or len(dirs) != fac.d:
        raise ValueError("order must be a permutation of the direction set")
    union = _Union(fac)
    for x in order:
        union.add(x)
        if union.connected():
            return len(union.dirs)
    raise AssertionError("full factor union must be connected")


def connectivity_profile(
    fac: Factorisation, n_chains: int, rng: random.Random
) -> list[int]:
    """Minimum connecting prefix size for n random direction orders.

    Prefixes of one chain are nested, so per-chain connectivity is monotone
    in r by construction and the r-th prefix is a uniform random r-subset.
    Needs an explicit factorisation: pass an implicit one's explicit twin.
    """
    dirs = list(fac.directions)
    out = []
    for _ in range(n_chains):
        order = rng.sample(dirs, len(dirs))
        out.append(min_connecting_prefix(fac, order))
    return out
