"""Element-path references: element orders and the derived subgroup taken
by multiplying elements, which the engine's walks over positions
(IndexTables.order, degrees._derived_cosets) are tested against; the
exponent over every cyclic subgroup and the order of every class
representative, which the engine's cover walk
(degrees.ClassData.cover) is tested against; and the headline facts of a
realization."""

import itertools
from dataclasses import dataclass
from math import lcm

from chardeg.arith import is_prime
from chardeg.groups import (
    DEFAULT_ELEMENT_CAP,
    GroupRealization,
    _closure,
    enumerate_elements,
    index_tables,
)


def element_order(group: GroupRealization, x) -> int:
    """Least k >= 1 with x**k = identity, by repeated multiplication; the
    engine walks orders over the index tables instead (IndexTables.order)."""
    k = 1
    y = x
    while y != group.identity:
        y = group.multiply(y, x)
        k += 1
    return k


def exponent(group: GroupRealization, cap: int = DEFAULT_ELEMENT_CAP) -> int:
    """lcm of the element orders, over cyclic subgroups: each power of x
    has an order dividing x's, so one walk of x's powers covers them all,
    and only positions that are no earlier element's power are walked.  The
    engine takes exp(G) from its cover walk (degrees.ClassData.cover)."""
    t = index_tables(group, cap)
    covered = bytearray(len(t))
    e = 1
    for x in range(len(t)):
        if not covered[x]:
            powers = t.powers(x)
            e = lcm(e, len(powers))
            for y in powers:
                covered[y] = 1
    return e


def representative_orders(cd) -> list[int]:
    """The order of each class representative of a degrees.ClassData, one
    walk of its powers over the index tables each; the engine walks only
    the representatives of a cover (degrees.ClassData.cover)."""
    return [cd.tables.order(x) for x in cd.reps.tolist()]


def representative_modulus(cd) -> int:
    """Least prime l ≡ 1 (mod e) with l > |G|, e the lcm of every
    representative's order."""
    e, order = lcm(*representative_orders(cd)), sum(cd.sizes)
    v = e + 1
    while v <= order or not is_prime(v):
        v += e
    return v


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
