"""Abstract engine for concrete finite groups.

A group is handed around as a GroupRealization: an identity element, a
multiply callable over opaque elements, and generators.  Elements only
need to be hashable (permutations are image tuples, tuple groups are
coefficient tuples, table groups are integers, direct products are pairs);
they are never compared by order.  A realization may also code its
elements as the integers range(|G|), the identity as 0, and give a batch
right-multiply, act, over arrays of codes.  The psl2, affine/frob
and xsp families and direct products do (see catalog and direct_product).

Enumeration is a breadth-first closure of the generators, one level at a
time, cached on the realization behind a lock, so repeated
conjugacy/character computations share one element list.  A coded group
of _CODES_FROM elements or more is closed over its codes: a level is one
act call over the front's codes, and dedup is one array of positions by
code plus a first-occurrence pass over the unseen codes.  Otherwise each
product is one multiply call, deduplicated in a dict.  The closure's
discovery order, with the identity at position 0, is the only element
order: its products x·g are kept as index tables over those positions
(IndexTables), so later stages can multiply by generators, and invert,
without multiplying elements again.  The tables are numpy intp arrays,
filled a level at a time in place by a closure over codes; batch work
gathers from them, and the scalar walks over positions (an element's
word, its powers) read memoryviews of them.  The tables hold positions
only: a closure over codes keeps no elements, and enumerate_elements
multiplies them out along its tree.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .errors import CapExceeded, SelfCheckFailed

__all__ = [
    "DEFAULT_ELEMENT_CAP",
    "GroupRealization",
    "IndexTables",
    "enumerate_elements",
    "index_tables",
    "direct_product",
]

DEFAULT_ELEMENT_CAP = 50_000
# Order from which a coded realization is closed over its codes.  A
# breadth-first level over codes costs some 25 numpy calls whatever its
# size, more than multiplying the few products of a smaller group's level.
_CODES_FROM = 64


class GroupRealization:
    """A finite group presented by identity / multiply / generators; the
    engine reads inverses off the closure's index tables.

    A realization with an expected_order may also code its elements as
    the integers range(expected_order), the identity as 0, and pass
    coding(cap), which returns act(codes): codes is a 1-D integer array of
    element codes, and the result is the (k, s) array of the codes of the
    products codes[i]·generators[j].  From _CODES_FROM elements on, the
    closure calls coding once, with its own cap, and is then taken over
    codes without calling multiply; so the tables act reads are built only
    when the group is closed.
    """

    def __init__(
        self,
        identity,
        multiply: Callable,
        generators: Iterable,
        descriptor: str,
        expected_order: int | None = None,
        coding: Callable | None = None,
    ):
        self.identity = identity
        self.multiply = multiply
        self.generators = list(generators)
        if not self.generators:
            self.generators = [identity]
        self.descriptor = descriptor
        self.expected_order = expected_order
        self.coding = coding
        self._tables: IndexTables | None = None
        self._lock = threading.Lock()

    def __repr__(self):
        return f"GroupRealization({self.descriptor!r})"


@dataclass(frozen=True, eq=False)
class IndexTables:
    """Multiplication by generators, over positions in discovery order.

    Positions number the group in the closure's breadth-first discovery
    order, the identity first.  right is an (s, n) intp array over the s
    generators and n positions: right[j, x] is the position of
    elements[x]·generators[j].  For x > 0, elements[x] =
    elements[parent[x]]·generators[via[x]] with parent[x] < x; parent and
    via are intp arrays, parent[0] = via[0] = -1, and parent is
    non-decreasing, so each breadth-first level is a run of positions.
    This discovery order is the only element order the engine uses.
    Batch work gathers from the arrays; the scalar walks (word, powers)
    step through memoryviews of them, cached on first use, which read
    Python ints without numpy's per-item cost.

    elements holds the elements if the closure multiplied them; a closure
    over codes keeps none (see enumerate_elements).  Nothing maps an
    element back to its position.
    """

    right: np.ndarray
    parent: np.ndarray
    via: np.ndarray
    elements: tuple | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.parent)

    @cached_property
    def _rows(self) -> tuple:
        return tuple(map(memoryview, self.right))

    @cached_property
    def _tree(self) -> tuple:
        return memoryview(self.parent), memoryview(self.via)

    def order(self, x: int) -> int:
        """The order of elements[x]."""
        return len(self.powers(x))

    def powers(self, x: int) -> list[int]:
        """The positions of elements[x]^1, ..., ^k = identity, k its order:
        the powers are walked over positions, each a right multiplication
        by elements[x] along its word, until position 0.  Tables whose walk
        takes more than len(self) steps are not a group's."""
        rows = self._rows
        cols = [rows[j] for j in self.word(x)]
        n, y, out = len(self), x, [x]
        while y:
            for col in cols:
                y = col[y]
            out.append(y)
            if len(out) > n:
                raise SelfCheckFailed(f"position {x}: no power is the identity")
        return out

    def word(self, x: int) -> list[int]:
        """The generator indices j_1, ..., j_k of x's path in the closure's
        tree: elements[x] = g_{j_1} ··· g_{j_k}."""
        parent, via = self._tree
        word = []
        while x > 0:
            word.append(via[x])
            x = parent[x]
        return word[::-1]


def _closure(
    identity,
    multiply,
    generators,
    cap: int,
    what: str,
    coding: Callable | None = None,
    order: int = 0,
) -> IndexTables:
    """Breadth-first closure of the generators, one level at a time.

    A level's products x·g are taken in (x, g) order and each unseen one
    takes the next position, so positions, parents and right tables are
    those of multiplying one element by one generator at a time.  With a
    coding the level's products are one act batch over the codes
    range(order), looked up in an array of positions by code; without it
    they are multiply calls, keyed by themselves in a dict.
    """
    gens = list(generators)
    if coding is not None:
        try:
            act = coding(cap)
        except CapExceeded:
            # the tables act reads, such as a product's factors', are no
            # larger than the group, so the group exceeds the cap too
            raise CapExceeded(f"{what}: closure exceeded cap of {cap} elements") from None
        return IndexTables(*_code_levels(act, order, len(gens), cap, what))
    return IndexTables(*_multiply_levels(identity, multiply, gens, cap, what))


def _multiply_levels(identity, multiply, gens, cap, what):
    s = len(gens)
    front = [identity]
    keys = {identity: 0}
    pos: list[int] = []  # pos[x * s + j] = right[j, x]
    found = []  # x * s + j for the product x·g_j that found position 1, 2, ...
    while front:
        new = []
        for k in [multiply(x, g) for x in front for g in gens]:
            p = keys.get(k)
            if p is None:
                p = keys[k] = len(keys)
                new.append(k)
                found.append(len(pos))
            pos.append(p)
        if len(keys) > cap:
            raise CapExceeded(f"{what}: closure exceeded cap of {cap} elements")
        front = new
    right = np.array(pos, dtype=np.intp).reshape(len(keys), s).T.copy()
    parent, via = np.divmod(np.array([-1] + found, dtype=np.intp), s)
    via[0] = -1  # parent[0] = -1 // s = -1 already
    return right, parent, via, tuple(keys)  # a dict keeps insertion order


def _code_levels(act, order, s, cap, what):
    at = np.full(order, -1, dtype=np.intp)  # the position of each code
    at[0] = 0
    # each position has its own code, so there are at most order positions;
    # the tables are filled a level at a time in place, and cut to the
    # positions found if the closure ends short of the order
    size = min(order, cap)
    right = np.empty((s, size), dtype=np.intp)
    parent, via = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp)
    parent[:1] = via[:1] = -1
    front = np.zeros(1, dtype=np.intp)
    done = 0  # positions below the front, whose products are taken
    while front.size:
        prods = act(front).ravel()
        p = at[prods]
        fresh = np.flatnonzero(p < 0)
        if fresh.size:
            # the first occurrence of each unseen code, in (x, g) order: at
            # is scratch space for the least index of each until it is given
            # its position
            codes = prods[fresh]
            at[codes] = len(prods)
            np.minimum.at(at, codes, fresh)
            fresh = fresh[at[codes] == fresh]
        total = done + front.size
        new = slice(total, total + fresh.size)
        if new.stop > cap:
            raise CapExceeded(f"{what}: closure exceeded cap of {cap} elements")
        if fresh.size:
            at[prods[fresh]] = np.arange(new.start, new.stop)
            parent[new], via[new] = np.divmod(fresh, s)
            parent[new] += done
            p = at[prods]
        right[:, done:total] = p.reshape(-1, s).T
        done, front = total, prods[fresh]
    if done < size:
        right, parent, via = right[:, :done].copy(), parent[:done].copy(), via[:done].copy()
    return right, parent, via


def index_tables(group: GroupRealization, cap: int = DEFAULT_ELEMENT_CAP) -> IndexTables:
    """The closure of the generators with its multiplication tables;
    cached after the first call.  It runs over codes if the group has a
    coding and an order of _CODES_FROM or more."""
    with group._lock:
        if group._tables is None:
            coded = group.coding is not None and group.expected_order >= _CODES_FROM
            t = _closure(
                group.identity,
                group.multiply,
                group.generators,
                cap,
                group.descriptor,
                group.coding if coded else None,
                group.expected_order,
            )
            n = len(t)
            if group.expected_order is not None and n != group.expected_order:
                raise SelfCheckFailed(
                    f"{group.descriptor}: realized {n} elements, "
                    f"expected {group.expected_order}"
                )
            group._tables = t
        n = len(group._tables)
        if n > cap:
            raise CapExceeded(f"{group.descriptor}: order {n} exceeds cap {cap}")
        return group._tables


def enumerate_elements(group: GroupRealization, cap: int = DEFAULT_ELEMENT_CAP) -> tuple:
    """All elements of the group in discovery order, the identity first.  A
    closure over codes keeps none, so they are multiplied out along its
    tree."""
    t = index_tables(group, cap)
    if t.elements is not None:
        return t.elements
    mul, gens = group.multiply, group.generators
    out = [group.identity]
    for p, j in zip(t.parent[1:].tolist(), t.via[1:].tolist()):
        out.append(mul(out[p], gens[j]))
    return tuple(out)


def direct_product(g: GroupRealization, h: GroupRealization) -> GroupRealization:
    """External direct product; elements are (a, b) pairs.

    If both factors predict their orders, (a, b) has code pos_g(a) +
    |g|·pos_h(b), where pos is the position in each factor's own closure,
    so the codes are range(|g|·|h|) whatever the factors' families.  act
    gathers from the factors' right tables: a generator of g moves the low
    part, one of h the high part.  The factors are closed, under the
    product's cap, when the product is.
    """
    gmul, hmul = g.multiply, h.multiply

    def mul(x, y):
        return (gmul(x[0], y[0]), hmul(x[1], y[1]))

    def coding(cap):
        low = np.ascontiguousarray(index_tables(g, cap).right.T)  # low[a, j] = a·g_j
        n = len(low)
        high = np.ascontiguousarray(index_tables(h, cap).right.T) * n

        def act(codes):
            hi, lo = np.divmod(codes, n)
            return np.concatenate([low[lo] + (codes - lo)[:, None], high[hi] + lo[:, None]], 1)

        return act

    gens = [(a, h.identity) for a in g.generators]
    gens += [(g.identity, b) for b in h.generators]
    expected = None
    if g.expected_order is not None and h.expected_order is not None:
        expected = g.expected_order * h.expected_order
    return GroupRealization(
        identity=(g.identity, h.identity),
        multiply=mul,
        generators=gens,
        descriptor=f"prod({g.descriptor},{h.descriptor})",
        expected_order=expected,
        coding=coding if expected else None,
    )
