"""The full-table search: every cell of the n x n table is its own
unknown, and each placed product is propagated over the triples in which it
is the left or the right factor, one queued cell at a time.
chardeg.smallgroups._Search, which stores only the coset-representative
rows, is tested against it: each sub-search must return the same tables in
no more nodes."""

import numpy as np

from chardeg.errors import BudgetExceeded, SelfCheckFailed
from chardeg.smallgroups import CayleyTable, _relabellings


class ReferenceSearch:
    def __init__(self, n: int, budget: int):
        self.n = n
        self.budget = budget
        self.nodes = 0
        self.table = [list(range(n))] + [[r] + [-1] * (n - 1) for r in range(1, n)]
        self.rowmask = [(1 << n) - 1] + [1 << r for r in range(1, n)]
        self.colmask = list(self.rowmask)
        self.trail: list[tuple[int, int]] = []
        self.found: list[CayleyTable] = []
        self.first_only = False
        # set per sub-search: the largest element order, and its relabellings
        self.m = n
        self.inverses = np.zeros((0, n), dtype=np.intp)
        self.images = np.zeros((0, n + 1), dtype=np.intp)

    # -- assignment with propagation; returns False on contradiction

    def assign(self, r: int, c: int, v: int, queue) -> bool:
        cur = self.table[r][c]
        if cur != -1:
            return cur == v
        bit = 1 << v
        if self.rowmask[r] & bit or self.colmask[c] & bit:
            return False
        self.table[r][c] = v
        self.rowmask[r] |= bit
        self.colmask[c] |= bit
        self.trail.append((r, c))
        queue.append((r, c))
        return True

    def undo_to(self, mark: int):
        while len(self.trail) > mark:
            r, c = self.trail.pop()
            v = self.table[r][c]
            self.table[r][c] = -1
            bit = ~(1 << v)
            self.rowmask[r] &= bit
            self.colmask[c] &= bit

    def propagate(self, queue) -> bool:
        t = self.table
        n = self.n
        while queue:
            a, b = queue.pop()
            c = t[a][b]
            for x in range(1, n):
                # (a*b)*x = a*(b*x)
                y = t[b][x]
                if y != -1:
                    z = t[a][y]
                    w = t[c][x]
                    if z != -1:
                        if not self.assign(c, x, z, queue):
                            return False
                    elif w != -1:
                        if not self.assign(a, y, w, queue):
                            return False
                # x*(a*b) = (x*a)*b
                y = t[x][a]
                if y != -1:
                    z = t[y][b]
                    w = t[x][c]
                    if z != -1:
                        if not self.assign(x, c, z, queue):
                            return False
                    elif w != -1:
                        if not self.assign(y, b, w, queue):
                            return False
            if not self.complete_line(a, b, queue):
                return False
        return True

    def complete_line(self, r: int, c: int, queue) -> bool:
        """Quasigroup cancellation: one hole left in a row or column."""
        n = self.n
        full = (1 << n) - 1
        if self.rowmask[r].bit_count() == n - 1:
            col = self.table[r].index(-1)
            v = (full ^ self.rowmask[r]).bit_length() - 1
            if not self.assign(r, col, v, queue):
                return False
        if self.colmask[c].bit_count() == n - 1:
            row = next(i for i in range(n) if self.table[i][c] == -1)
            v = (full ^ self.colmask[c]).bit_length() - 1
            if not self.assign(row, c, v, queue):
                return False
        return True

    # -- depth-first fill, row-major

    def next_cell(self):
        for r in range(1, self.n):
            if self.rowmask[r].bit_count() < self.n:
                return r, self.table[r].index(-1)
        return None

    def orders_within(self) -> bool:
        """False once some x has x, x^2, ..., x^m all known and not 0."""
        t = self.table
        for x in range(2, self.n):
            y = x
            for _ in range(self.m - 1):
                y = t[y][x]
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
        t = np.array(self.table, dtype=np.intp)
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
            table = CayleyTable(self.n, tuple(map(tuple, self.table)))
            if not table.is_associative():
                raise SelfCheckFailed("search emitted a non-associative table")
            self.found.append(table)
            return
        r, c = cell
        for v in range(self.n):
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExceeded(
                    f"enumeration of order {self.n} exceeded {self.budget} nodes"
                )
            mark = len(self.trail)
            queue: list[tuple[int, int]] = []
            if self.assign(r, c, v, queue) and self.propagate(queue):
                self.run(alive)
            self.undo_to(mark)
            if self.first_only and self.found:
                return

    def sub_search(self, m: int) -> list[CayleyTable]:
        """The tables with row 1 in the coset pattern of an element of
        order m, and m the largest element order, with no table that a
        relabelling from _relabellings(n, m) makes lex-smaller.  For m = 2
        that is the one elementary abelian table, if n is a power of 2."""
        cells = [(1, c, c // m * m + (c % m + 1) % m) for c in range(1, self.n)]
        if m == 2:
            cells += [(x, x, 0) for x in range(1, self.n)]
        queue: list[tuple[int, int]] = []
        self.found = []
        self.first_only = m == 2
        self.m = m
        perms = _relabellings(self.n, m)
        rows = np.arange(len(perms))[:, None]
        self.inverses = np.empty_like(perms)
        self.inverses[rows, perms] = np.arange(self.n)
        # column n stays -1, so an empty cell (-1) gathers -1
        self.images = np.full((len(perms), self.n + 1), -1, dtype=np.intp)
        self.images[:, :-1] = perms
        if all(self.assign(*cell, queue) for cell in cells) and self.propagate(queue):
            self.run(np.arange(len(perms)))
        self.undo_to(0)
        return self.found
