"""Abstract engine for concrete finite groups.

A group is handed around as a GroupRealization: an identity element plus
multiply/inverse callables over opaque elements.  Elements only need to be
hashable (permutations are image tuples, tuple groups are coefficient
tuples, table groups are integers, direct products are pairs); they are
never compared by order.

Enumeration does a breadth-first closure of the generators and is cached on
the realization behind a lock, so repeated conjugacy/character computations
share one element list.  The closure's discovery order, with the identity
at position 0, is the only element order: its products x·g are kept as
index tables over those positions (IndexTables), so later stages can
multiply by generators without calling `multiply` again.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
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
    """A finite group presented by identity / multiply / inverse callables.

    Closure and element orders never call inverse, so a realization used
    only for those may pass None.
    """

    def __init__(
        self,
        identity,
        multiply: Callable,
        inverse: Callable | None,
        generators: Iterable,
        descriptor: str,
        expected_order: int | None = None,
    ):
        self.identity = identity
        self.multiply = multiply
        self.inverse = inverse
        self.generators = list(generators)
        if not self.generators:
            self.generators = [identity]
        self.descriptor = descriptor
        self.expected_order = expected_order
        self._tables: IndexTables | None = None
        self._lock = threading.Lock()

    def __repr__(self):
        return f"GroupRealization({self.descriptor!r})"


@dataclass(frozen=True)
class IndexTables:
    """Multiplication by generators, over positions in discovery order.

    elements lists the group in the closure's breadth-first discovery order
    (the identity is position 0) and index inverts it.  right[j][x] is the
    position of elements[x]·generators[j].  For x > 0, elements[x] =
    elements[parent[x]]·generators[via[x]] with parent[x] < x; parent[0] is
    -1.  This discovery order is the only element order the engine uses.
    """

    elements: tuple
    index: dict
    right: tuple[list[int], ...]
    parent: list[int]
    via: list[int]

    @cached_property
    def right_array(self) -> np.ndarray:
        """right as a (generators, elements) array, for numpy gathers."""
        return np.array(self.right, dtype=np.intp).reshape(len(self.right), -1)


def _closure(identity, multiply, generators, cap: int, what: str) -> IndexTables:
    """Breadth-first closure of the generators under multiplication."""
    els = [identity]
    index = {identity: 0}
    right = tuple([] for _ in generators)
    parent = [-1]
    via = [-1]
    for i, x in enumerate(els):  # els grows while it is walked
        for j, g in enumerate(generators):
            y = multiply(x, g)
            k = index.get(y)
            if k is None:
                k = index[y] = len(els)
                els.append(y)
                parent.append(i)
                via.append(j)
                if k >= cap:
                    raise CapExceeded(
                        f"{what}: closure exceeded cap of {cap} elements"
                    )
            right[j].append(k)
    return IndexTables(tuple(els), index, right, parent, via)


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
            )
            n = len(t.elements)
            if group.expected_order is not None and n != group.expected_order:
                raise SelfCheckFailed(
                    f"{group.descriptor}: realized {n} elements, "
                    f"expected {group.expected_order}"
                )
            group._tables = t
        n = len(group._tables.elements)
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
    """Order of the commutator subgroup.

    Generator-pair commutators are closed into a subgroup, then repeatedly
    conjugated by the group generators and re-closed until stable; the result
    is the normal closure of the commutators, which is the derived subgroup.
    """
    mul = group.multiply
    inv = group.inverse
    gens = group.generators
    comms = {
        mul(mul(inv(g), inv(h)), mul(g, h))
        for g, h in itertools.product(gens, repeat=2)
    }
    comms.discard(group.identity)
    if not comms:
        return 1
    sub = set(_closure(group.identity, mul, comms, cap, group.descriptor).index)
    while True:
        new = set()
        for g in gens:
            gi = inv(g)
            for x in sub:
                y = mul(gi, mul(x, g))
                if y not in sub:
                    new.add(y)
        if not new:
            return len(sub)
        sub = set(
            _closure(group.identity, mul, sub | new, cap, group.descriptor).index
        )


def direct_product(g: GroupRealization, h: GroupRealization) -> GroupRealization:
    """External direct product; elements are (a, b) pairs."""
    gmul, hmul = g.multiply, h.multiply
    ginv, hinv = g.inverse, h.inverse

    def mul(x, y):
        return (gmul(x[0], y[0]), hmul(x[1], y[1]))

    def inv(x):
        return (ginv(x[0]), hinv(x[1]))

    gens = [(a, h.identity) for a in g.generators]
    gens += [(g.identity, b) for b in h.generators]
    expected = None
    if g.expected_order is not None and h.expected_order is not None:
        expected = g.expected_order * h.expected_order
    return GroupRealization(
        identity=(g.identity, h.identity),
        multiply=mul,
        inverse=inv,
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
