"""Exhaustive enumeration of groups of small order, up to isomorphism.

Groups of order n are enumerated as Cayley tables over {0..n-1} with 0 as
the identity.  If g has the largest element order m in G, label g as 1 and
each right coset <g>x_b as the block b*m .. b*m+m-1, with g^i*x_b labelled
b*m+i; then row 1 is t[1][c] = (c//m)*m + (c%m+1)%m.  So one sub-search
per divisor m of n, from the largest prime dividing n up (Cauchy), fixes
row 1 to that pattern and keeps the tables whose largest element order is
m; each class comes from exactly one sub-search.  When m = 2 the diagonal
is fixed to 0 as well: every table is then of exponent 2, so elementary
abelian, and the sub-search stops at its first.  Row 1 is x -> g*x, so
row b*m+i, that of g^i*x_b, is row 1 applied i times to row b*m: the
search stores only the k = n/m representative rows b*m and fills them
row-major by backtracking with:

  * Latin checks: row 1 keeps each value in its block, so a row is Latin
    when its representative is, and a column when its k representative
    cells lie in distinct blocks,
  * associativity propagation: each placed cell is checked against every
    triple (pq)r = p(qr), p a representative, in which one of its m images
    is one of the four cells (p,q), (q,r), (pq,r), (p,qr); when (p,q) and
    (q,r) are known, a known one of the other two sets the other,
  * order pruning: a node is dropped once some x has x, x^2, ..., x^m
    known and none of them 0, since then x has order above m,
  * lex-leader pruning (Crawford, Ginsberg, Luks & Roy, KR 1996): choosing
    other coset representatives g^(s_b)x_b, in another block order, is a
    relabelling pi that fixes 0 and 1 and commutes with x -> 1*x, so it
    maps each table T of the sub-search to another one, T^pi with
    T^pi[pi(a)][pi(b)] = pi(T[a][b]).  A node is dropped once, for some pi
    in a set S of these, T^pi is lex-smaller than T (row-major) at the
    first cell where they differ, both known there.

Both prunings are exact.  Every completion below a dropped node has an
element of order above m, or a relabelling that is lex-smaller; so the
lex-least table of each orbit is never dropped, and no class is lost
whatever S is (S is all such pi while |S|*n^2 fits an entry budget, and
those moving fewest blocks otherwise).  The search emits its tables in lex
order, so the first table of each class is still the lex-least one in its
sub-search, as it is with no pruning: the pruned tables are only later
relabellings, and the enumeration returns the tables the unpruned search
would.

The survivors may still hold several tables of one class (relabellings
outside S, and other choices of g), so they are deduplicated by an
invariant fingerprint (element-order profile, class sizes) followed by
exact isomorphism search.  Every emitted table is re-verified against all
n^3 associativity triples; the sub-searches share one node budget, and
exceeding it raises rather than return partial results, so an exhaustive
answer is always exhaustive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith import factor
from .errors import BudgetExceeded, InvalidParam, SelfCheckFailed
from .groups import GroupRealization, _closure

__all__ = [
    "CayleyTable",
    "DEFAULT_ORDER_CAP",
    "DEFAULT_NODE_BUDGET",
    "enumerate_groups",
    "table_to_realization",
    "is_isomorphic",
]

DEFAULT_ORDER_CAP = 16
DEFAULT_NODE_BUDGET = 10**9
# Entry budget for a sub-search's relabellings: |S| * n^2 stays under it,
# which bounds both the permutation arrays and each node's gather.
_SYMMETRY_ENTRIES = 1 << 18


@dataclass(frozen=True)
class CayleyTable:
    n: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n, t = self.n, self.table
        if len(t) != n or any(len(row) != n for row in t):
            raise InvalidParam("table shape does not match order")
        if t[0] != tuple(range(n)) or any(t[r][0] != r for r in range(n)):
            raise InvalidParam("element 0 is not an identity")
        full = set(range(n))
        for r in range(n):
            if set(t[r]) != full or {t[i][r] for i in range(n)} != full:
                raise InvalidParam("table is not a Latin square")

    def is_associative(self) -> bool:
        """All n^3 triples at once: t[t][a,b,c] = (ab)c, t[:, t][a,b,c] = a(bc)."""
        t = np.array(self.table, dtype=np.intp)
        return bool((t[t] == t[:, t]).all())

    def element_orders(self) -> tuple[int, ...]:
        out = []
        for x in range(self.n):
            k, y = 1, x
            while y != 0:
                y = self.table[y][x]
                k += 1
            out.append(k)
        return tuple(out)

    @cached_property
    def generator_chain(self) -> tuple[int, ...]:
        """Greedy generators: each is the least element outside the subgroup
        generated by the ones before it, so there are at most log2(n)."""
        rows = self.table
        gens: list[int] = []
        closed = (0,)
        while len(closed) < self.n:
            gens.append(next(x for x in range(self.n) if x not in closed))
            closed = _closure(
                0, lambda a, b: rows[a][b], gens, self.n, f"table:{self.n}"
            ).elements
        return tuple(gens)


def table_to_realization(t: CayleyTable) -> GroupRealization:
    return GroupRealization(
        identity=0,
        multiply=lambda a, b: t.table[a][b],
        generators=t.generator_chain,
        descriptor=f"table:{t.n}",
        expected_order=t.n,
    )


# ------------------------------------------------------------------ search


class _Search:
    """Sub-search m keeps the representative rows b*m, b < k = n/m
    (self.rows), the column of each value in them (self.where), the blocks
    in each column (self.blocks) and the known cells of each row
    (self.filled).  Row b*m + i is shift[i] of row b*m, with shift[i][v] =
    v - v%m + (v%m + i)%m.  Every row and shift[i] ends in -1, so an empty
    cell (-1) reads -1 through them."""

    def __init__(self, n: int, budget: int):
        self.n = n
        self.budget = budget
        self.nodes = 0
        self.found: list[CayleyTable] = []
        self.first_only = False

    # -- assignment with propagation; returns False on contradiction

    def assign(self, b: int, c: int, v: int, queue) -> bool:
        """Set representative cell (b*m, c) to v."""
        cur = self.rows[b][c]
        if cur != -1:
            return cur == v
        bit = 1 << v // self.m
        if self.where[b][v] != -1 or self.blocks[c] & bit:
            return False
        self.rows[b][c] = v
        self.where[b][v] = c
        self.blocks[c] |= bit
        self.filled[b] += 1
        self.trail.append((b, c))
        queue.append((b, c))
        return True

    def undo_to(self, mark: int):
        while len(self.trail) > mark:
            b, c = self.trail.pop()
            v = self.rows[b][c]
            self.rows[b][c] = self.where[b][v] = -1
            self.blocks[c] &= ~(1 << v // self.m)
            self.filled[b] -= 1

    def propagate(self, queue) -> bool:
        """Check (pq)r = p(qr) on every triple in which an image of a queued
        cell is one of its four cells (p,q), (q,r), (pq,r), (p,qr).  Row
        g^i*p is shift[i] of row p, so p and g^i*p satisfy the same triples
        and p runs over the representatives only.  With (p,q) and (q,r)
        known, a known one of the other two sets the other."""
        n, m, k = self.n, self.m, self.n // self.m
        rows, where, shift, assign = self.rows, self.where, self.shift, self.assign

        def settle(b, s, r, u, w, z):
            # cell (s, r) = w against cell (b*m, u) = z, which differ
            if w == -1:
                return assign(s // m, r, shift[-(s % m)][z], queue)
            return z == -1 and assign(b, u, w, queue)

        while queue:
            b, c = queue.pop()
            row = rows[b]
            v = row[c]
            # as (p, q) = (b*m, c), so pq = v: r over all n
            sc, rc = shift[c % m], rows[c // m]
            sv, rv = shift[v % m], rows[v // m]
            for r in range(1, n):
                u = sc[rc[r]]
                if u != -1:
                    w, z = sv[rv[r]], row[u]
                    if w != z and not settle(b, v, r, u, w, z):
                        return False
            for i in range(m):
                a, y = b * m + i, shift[i][v]  # the image (a, c) = y
                for p in range(1, k):
                    rp = rows[p]
                    # as (q, r): the triple (p*m, a, c)
                    s = rp[a]
                    if s != -1:
                        w, z = shift[s % m][rows[s // m][c]], rp[y]
                        if w != z and not settle(p, s, c, y, w, z):
                            return False
                    # as (pq, r): the triple (p*m, x, c) with (p*m)x = a
                    x = where[p][a]
                    if x != -1:
                        u = shift[x % m][rows[x // m][c]]
                        z = rp[u]
                        if u != -1 and z != y and not settle(p, a, c, u, y, z):
                            return False
            # as (p, qr) = (b*m, c): q over all n, r read off q's positions
            for q in range(1, n):
                r = where[q // m][shift[-(q % m)][c]]
                s = row[q]
                if r != -1 and s != -1:
                    w = shift[s % m][rows[s // m][r]]
                    if w != v and not settle(b, s, r, c, w, v):
                        return False
        return True

    # -- depth-first fill, row-major

    def next_cell(self):
        for b in range(1, self.n // self.m):
            if self.filled[b] < self.n:
                return b * self.m, self.rows[b].index(-1)
        return None

    def full_table(self) -> np.ndarray:
        """The n x n table, -1 where unknown: row b*m + i is shift[i] of
        representative row b."""
        reps = np.array(self.rows, dtype=np.intp)[:, : self.n]
        return self.shifts[:, reps].swapaxes(0, 1).reshape(self.n, self.n)

    def orders_within(self) -> bool:
        """False once some x has x, x^2, ..., x^m all known and not 0."""
        m, rows, shift = self.m, self.rows, self.shift
        for x in range(2, self.n):
            y = x
            for _ in range(m - 1):
                y = shift[y % m][rows[y // m][x]]
                if y <= 0:
                    break
            else:
                return False
        return True

    def survivors(self, alive: np.ndarray, cell) -> np.ndarray | None:
        """None if this node is pruned, else the relabellings (rows of
        self.images) that may still prune below it.

        For pi in alive, T^pi[pi(a)][pi(b)] = pi(T[a][b]) is compared with T
        row-major up to the first empty cell of T, from row m on (rows below
        m are the powers of 1, which every pi fixes).  At the first cell
        where they differ with T^pi known, T^pi smaller prunes the node and
        T^pi larger drops pi for the whole subtree; an unknown T^pi cell, or
        no difference, keeps pi.
        """
        if not self.orders_within():
            return None
        if not alive.size:
            return alive
        n, m = self.n, self.m
        r0, c0 = cell if cell is not None else (n - 1, n)
        t = self.full_table()
        prefix = t[m : r0 + 1].ravel()[: (r0 - m) * n + c0]
        if not prefix.size:
            return alive
        inv = self.inverses[alive]
        pre = t[inv[:, m : r0 + 1, None], inv[:, None, :]].reshape(len(alive), -1)
        pre = pre[:, : prefix.size]
        img = self.images[alive[:, None], pre]
        first = (img != prefix).argmax(axis=1)
        a, b = img[np.arange(len(alive)), first], prefix[first]
        if ((a >= 0) & (a < b)).any():
            return None
        return alive[a <= b]

    def run(self, alive: np.ndarray):
        cell = self.next_cell()
        alive = self.survivors(alive, cell)
        if alive is None:
            return
        if cell is None:
            table = CayleyTable(self.n, tuple(map(tuple, self.full_table().tolist())))
            if not table.is_associative():
                raise SelfCheckFailed("search emitted a non-associative table")
            self.found.append(table)
            return
        b, c = cell[0] // self.m, cell[1]
        for v in range(self.n):
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExceeded(
                    f"enumeration of order {self.n} exceeded {self.budget} nodes"
                )
            mark = len(self.trail)
            queue: list[tuple[int, int]] = []
            if self.assign(b, c, v, queue) and self.propagate(queue):
                self.run(alive)
            self.undo_to(mark)
            if self.first_only and self.found:
                return

    def sub_search(self, m: int) -> list[CayleyTable]:
        """The tables with row 1 in the coset pattern of an element of
        order m, and m the largest element order, with no table that a
        relabelling from _relabellings(n, m) makes lex-smaller.  For m = 2
        that is the one elementary abelian table, if n is a power of 2."""
        n, k = self.n, self.n // m
        self.m = m
        self.shift = [
            [v - v % m + (v % m + i) % m for v in range(n)] + [-1] for i in range(m)
        ]
        self.shifts = np.array(self.shift, dtype=np.intp)
        # row 0 is the identity's, and column 0 holds each row's label
        self.rows = [list(range(n)) + [-1]] + [[b * m] + [-1] * n for b in range(1, k)]
        self.where = [list(range(n)) + [-1]] + [[-1] * (n + 1) for _ in range(1, k)]
        for b in range(1, k):
            self.where[b][b * m] = 0
        self.blocks = [(1 << k) - 1] + [1 << c // m for c in range(1, n)]
        self.filled = [n] + [1] * (k - 1)
        self.trail: list[tuple[int, int]] = []
        self.found = []
        self.first_only = m == 2
        perms = _relabellings(n, m)
        rows = np.arange(len(perms))[:, None]
        self.inverses = np.empty_like(perms)
        self.inverses[rows, perms] = np.arange(n)
        # column n stays -1, so an empty cell (-1) gathers -1
        self.images = np.full((len(perms), n + 1), -1, dtype=np.intp)
        self.images[:, :-1] = perms
        # for m = 2 the diagonal is 0, so row x//2 holds shift[-(x%2)][0] at x
        queue: list[tuple[int, int]] = []
        cells = [(x // 2, x, self.shift[-(x % 2)][0]) for x in range(1, n)] if m == 2 else []
        if all(self.assign(*cell, queue) for cell in cells) and self.propagate(queue):
            self.run(np.arange(len(perms)))
        self.undo_to(0)
        return self.found


def _relabellings(n: int, m: int) -> np.ndarray:
    """Rows pi(b*m + i) = sigma(b)*m + (i + s_b) % m, sigma(0) = 0 and s_0 = 0:
    they move the blocks of sub-search m whole and rotate each, so they fix
    0 and 1, commute with x -> 1*x and map its tables to its tables.

    Those moving fewest blocks come first, and the rows stop after
    _SYMMETRY_ENTRIES // n^2 of them; any subset prunes soundly.  The
    identity is left out, and so is everything when m = 2 (that sub-search
    stops at its first table)."""
    cap = _SYMMETRY_ENTRIES // (n * n) if m > 2 else 0
    rows = []
    for moved, images, shifts in itertools.islice(_block_moves(n // m, m), cap):
        pi = list(range(n))
        for b, a, s in zip(moved, images, shifts):
            pi[b * m : b * m + m] = [a * m + (i + s) % m for i in range(m)]
        rows.append(pi)
    return np.array(rows, dtype=np.intp).reshape(len(rows), n)


def _block_moves(k: int, m: int):
    """Every (moved, images, shifts) with block moved[j] sent to images[j]
    and rotated by shifts[j], each block moved (not sent to itself
    unrotated), by ascending len(moved)."""
    for j in range(1, k):
        for moved in itertools.combinations(range(1, k), j):
            for images in itertools.permutations(moved):
                for shifts in itertools.product(range(m), repeat=j):
                    if all(a != b or s for b, a, s in zip(moved, images, shifts)):
                        yield moved, images, shifts


# ------------------------------------------------------------- isomorphism


def _close_map(t1: CayleyTable, t2: CayleyTable, base: dict) -> dict | None:
    """Extend base to the generated subgroup; None on any conflict."""
    phi = dict(base)
    used = set(phi.values())
    if len(used) != len(phi):
        return None
    changed = True
    while changed:
        changed = False
        for x in list(phi):
            for y in list(phi):
                z1 = t1.table[x][y]
                z2 = t2.table[phi[x]][phi[y]]
                if z1 in phi:
                    if phi[z1] != z2:
                        return None
                elif z2 in used:
                    return None
                else:
                    phi[z1] = z2
                    used.add(z2)
                    changed = True
    return phi


def is_isomorphic(t1: CayleyTable, t2: CayleyTable) -> bool:
    if t1.n != t2.n:
        return False
    orders1 = t1.element_orders()
    orders2 = t2.element_orders()
    if sorted(orders1) != sorted(orders2):
        return False
    gens = t1.generator_chain

    def extend(phi: dict) -> bool:
        missing = [g for g in gens if g not in phi]
        if not missing:
            return len(phi) == t1.n
        g = missing[0]
        for img in range(1, t2.n):
            if img in phi.values() or orders2[img] != orders1[g]:
                continue
            nxt = _close_map(t1, t2, {**phi, g: img})
            if nxt is not None and extend(nxt):
                return True
        return False

    return extend({0: 0})


# -------------------------------------------------------------- enumeration


def _fingerprint(t: CayleyTable):
    from .degrees import conjugacy_classes

    sizes = conjugacy_classes(table_to_realization(t)).sizes
    return (tuple(sorted(t.element_orders())), tuple(sorted(sizes)))


def enumerate_groups(
    n: int,
    budget: int = DEFAULT_NODE_BUDGET,
    cap: int = DEFAULT_ORDER_CAP,
) -> list[CayleyTable]:
    """One Cayley table per isomorphism class of groups of order n, in
    ascending order of largest element order (one sub-search each)."""
    if n < 1:
        raise InvalidParam("order must be >= 1")
    if n > cap:
        raise BudgetExceeded(
            f"order {n} beyond enumeration cap {cap}; no partial answer given"
        )
    search = _Search(n, budget)
    least = factor(n)[-1][0] if n > 1 else 1
    raw = [t for m in range(least, n + 1) if n % m == 0 for t in search.sub_search(m)]
    kept: list[tuple[CayleyTable, tuple]] = []
    for t in raw:
        fp = _fingerprint(t)
        if not any(fp == fp2 and is_isomorphic(t, t2) for t2, fp2 in kept):
            kept.append((t, fp))
    return [t for t, _ in kept]
