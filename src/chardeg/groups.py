"""Abstract engine for concrete finite groups.

A group is handed around as a GroupRealization: an identity element, a
multiply callable over opaque elements, and generators.  Elements only
need to be hashable (permutations are image tuples, tuple groups are
coefficient tuples, table groups are integers, direct products are pairs);
they are never compared by order.  A permutation group may also give a batch
right-multiply, act, over elements stored as rows of an integer array.

Enumeration is a breadth-first closure of the generators, one level at a
time, cached on the realization behind a lock, so repeated
conjugacy/character computations share one element list.  With act a level
is one gather over the rows and dedup runs on row bytes; without it each
product is one multiply call.  The closure's discovery order, with the
identity at position 0, is the only element order: its products x·g are
kept as index tables over those positions (IndexTables), so later stages
can multiply by generators, and invert, without multiplying elements again.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .errors import CapExceeded, SelfCheckFailed

__all__ = [
    "DEFAULT_ELEMENT_CAP",
    "GroupRealization",
    "GroupData",
    "IndexTables",
    "enumerate_elements",
    "index_tables",
    "element_order",
    "exponent",
    "derived_subgroup_order",
    "direct_product",
    "group_data",
]

DEFAULT_ELEMENT_CAP = 50_000


class GroupRealization:
    """A finite group presented by identity / multiply / generators; the
    engine reads inverses off the closure's index tables.

    A permutation group whose elements are image tuples of range(w) may
    pass act(rows, gens): rows is a (k, w) and gens an (s, w) array of
    elements, and the result is the (k, s, w) array of the products
    rows[i]·gens[j].  Its closure is then taken over rows, without calling
    multiply.
    """

    def __init__(
        self,
        identity,
        multiply: Callable,
        generators: Iterable,
        descriptor: str,
        expected_order: int | None = None,
        act: Callable | None = None,
    ):
        self.identity = identity
        self.multiply = multiply
        self.generators = list(generators)
        if not self.generators:
            self.generators = [identity]
        self.descriptor = descriptor
        self.expected_order = expected_order
        self.act = act
        self._tables: IndexTables | None = None
        self._lock = threading.Lock()

    def __repr__(self):
        return f"GroupRealization({self.descriptor!r})"


@dataclass(frozen=True, eq=False)
class IndexTables:
    """Multiplication by generators, over positions in discovery order.

    Positions number the group in the closure's breadth-first discovery
    order, the identity first.  right[j][x] is the position of
    elements[x]·generators[j].  For x > 0, elements[x] =
    elements[parent[x]]·generators[via[x]] with parent[x] < x; parent[0] is
    -1.  This discovery order is the only element order the engine uses.

    stored holds the elements themselves, or, for a closure run with act,
    the rows of an array, rows[x] being elements[x]; element tuples are then
    built only on demand.  Nothing maps an element back to its position.
    """

    right: tuple[list[int], ...]
    parent: list[int]
    via: list[int]
    stored: tuple | np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def rows(self) -> np.ndarray | None:
        """The elements as rows of an array, if the closure ran over rows."""
        return self.stored if isinstance(self.stored, np.ndarray) else None

    def element(self, x: int):
        """The element at position x."""
        if self.rows is None:
            return self.elements[x]
        return tuple(self.rows[x].tolist())

    def word(self, x: int) -> list[int]:
        """The generator indices j_1, ..., j_k of x's path in the closure's
        tree: elements[x] = g_{j_1} ··· g_{j_k}."""
        word = []
        while x > 0:
            word.append(self.via[x])
            x = self.parent[x]
        return word[::-1]

    @cached_property
    def elements(self) -> tuple:
        """Every element in discovery order."""
        if self.rows is None:
            return self.stored
        return tuple(map(tuple, self.rows.tolist()))

    @cached_property
    def right_array(self) -> np.ndarray:
        """right as a (generators, elements) array, for numpy gathers."""
        return np.array(self.right, dtype=np.intp).reshape(len(self.right), -1)


def _row_dtype(points: int) -> np.dtype:
    """The least unsigned integer type that holds the point indices below points."""
    return np.min_scalar_type(points - 1)


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of a C-contiguous 2-D array."""
    width = rows.dtype.itemsize * rows.shape[1]
    return rows.view(np.dtype((np.void, width))).ravel().tolist()


def _closure(
    identity, multiply, generators, cap: int, what: str, act: Callable | None = None
) -> IndexTables:
    """Breadth-first closure of the generators, one level at a time.

    A level's products x·g are keyed in (x, g) order and each unseen key
    takes the next position, so positions, parents and right tables are
    those of multiplying one element by one generator at a time.  With act
    the level's products are one batch over rows, keyed by their bytes;
    without it they are multiply calls, keyed by themselves.
    """
    gens = list(generators)
    s = len(gens)
    if act is None:
        front = [identity]
        keys = {identity: 0}
    else:
        w = len(identity)
        dtype = _row_dtype(w)
        front = np.array([identity], dtype=dtype)
        gen_rows = np.array(gens, dtype=np.intp).reshape(s, w)
        keys = {_row_keys(front)[0]: 0}
    pos: list[int] = []  # pos[x * s + j] = right[j][x]
    found = []  # x * s + j for the product x·g_j that found position 1, 2, ...
    while len(front):
        if act is None:
            level = [multiply(x, g) for x in front for g in gens]
        else:
            level = _row_keys(act(front, gen_rows).reshape(len(front) * s, w))
        new = []
        for k in level:
            p = keys.get(k)
            if p is None:
                p = keys[k] = len(keys)
                new.append(k)
                found.append(len(pos))
            pos.append(p)
        if len(keys) > cap:
            raise CapExceeded(f"{what}: closure exceeded cap of {cap} elements")
        if act is None:
            front = new
        else:
            front = np.frombuffer(b"".join(new), dtype=dtype).reshape(len(new), w)
    parent = [-1] + [q // s for q in found]
    via = [-1] + [q % s for q in found]
    right = tuple(pos[j::s] for j in range(s))
    if act is None:
        stored = tuple(keys)  # a dict keeps insertion order
    else:
        stored = np.frombuffer(b"".join(keys), dtype=dtype).reshape(len(keys), w)
    return IndexTables(right, parent, via, stored)


def index_tables(group: GroupRealization, cap: int = DEFAULT_ELEMENT_CAP) -> IndexTables:
    """The closure of the generators with its multiplication tables;
    cached after the first call."""
    with group._lock:
        if group._tables is None:
            t = _closure(
                group.identity,
                group.multiply,
                group.generators,
                cap,
                group.descriptor,
                group.act,
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
    """All elements of the group in discovery order, the identity first."""
    return index_tables(group, cap).elements


def element_order(group: GroupRealization, x) -> int:
    """Least k >= 1 with x**k = identity, by repeated multiplication."""
    k = 1
    y = x
    while y != group.identity:
        y = group.multiply(y, x)
        k += 1
    return k


def exponent(group: GroupRealization, cap: int = DEFAULT_ELEMENT_CAP) -> int:
    """lcm of the element orders."""
    out = 1
    for x in enumerate_elements(group, cap):
        out = math.lcm(out, element_order(group, x))
    return out


def derived_subgroup_order(group: GroupRealization, cap: int = DEFAULT_ELEMENT_CAP) -> int:
    """Order of the commutator subgroup, by multiplying elements.

    Generator-pair commutators are closed into a subgroup, then repeatedly
    conjugated by the group generators and re-closed until stable; the result
    is the normal closure of the commutators, which is the derived subgroup.
    g⁻¹ is g^(o(g)−1), the last element of the closure of g alone, so the
    index tables are never read.
    """
    mul = group.multiply
    gens = group.generators
    invs = [
        _closure(group.identity, mul, [g], cap, group.descriptor).elements[-1]
        for g in gens
    ]
    comms = {
        mul(mul(gi, hi), mul(g, h))
        for (g, gi), (h, hi) in itertools.product(zip(gens, invs), repeat=2)
    }
    comms.discard(group.identity)
    if not comms:
        return 1
    sub = set(_closure(group.identity, mul, comms, cap, group.descriptor).elements)
    while True:
        new = set()
        for g, gi in zip(gens, invs):
            for x in sub:
                y = mul(gi, mul(x, g))
                if y not in sub:
                    new.add(y)
        if not new:
            return len(sub)
        sub = set(
            _closure(group.identity, mul, sub | new, cap, group.descriptor).elements
        )


def direct_product(g: GroupRealization, h: GroupRealization) -> GroupRealization:
    """External direct product; elements are (a, b) pairs."""
    gmul, hmul = g.multiply, h.multiply

    def mul(x, y):
        return (gmul(x[0], y[0]), hmul(x[1], y[1]))

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
    )


@dataclass(frozen=True)
class GroupData:
    """Headline facts computed from a realization."""

    descriptor: str
    order: int
    exponent: int
    derived_order: int
    abelianization_order: int


def group_data(group: GroupRealization, cap: int = DEFAULT_ELEMENT_CAP) -> GroupData:
    order = len(enumerate_elements(group, cap))
    derived = derived_subgroup_order(group, cap)
    return GroupData(
        descriptor=group.descriptor,
        order=order,
        exponent=exponent(group, cap),
        derived_order=derived,
        abelianization_order=order // derived,
    )
