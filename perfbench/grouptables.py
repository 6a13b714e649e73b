"""Multiplication tables for the group documents the benchmark generates.

The benchmark builds its inputs without calling relhom, so that a change to
the program cannot change what the program is asked.  Elements follow the
encodings documented for job files: residues for `cyclic n`, `i + n*j` for
`r^i s^j` in `dihedral n`, lexicographic permutations for `symmetric n`,
`a * |B| + b` for `direct_product`, and sorted permutations for
`from_permutations`.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Sequence, Tuple

Table = Tuple[Tuple[int, ...], ...]


def _perm_table(perms: Sequence[Tuple[int, ...]]) -> Table:
    index = {p: i for i, p in enumerate(perms)}
    return tuple(
        tuple(index[tuple(p[q[x]] for x in range(len(p)))] for q in perms)
        for p in perms
    )


def table(doc: dict) -> Table:
    """Multiplication table of a `group` job field."""
    kind = doc["kind"]
    if kind == "cyclic":
        n = doc["n"]
        return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    if kind == "dihedral":
        n = doc["n"]

        def mul(a: int, b: int) -> int:
            i1, j1, i2, j2 = a % n, a // n, b % n, b // n
            return (i1 + (i2 if j1 == 0 else -i2)) % n + n * ((j1 + j2) % 2)

        return tuple(tuple(mul(a, b) for b in range(2 * n)) for a in range(2 * n))
    if kind == "symmetric":
        return _perm_table(list(itertools.permutations(range(doc["n"]))))
    if kind == "direct_product":
        out = table(doc["factors"][0])
        for factor in doc["factors"][1:]:
            b = table(factor)
            nb = len(b)
            out = tuple(
                tuple(
                    out[g // nb][h // nb] * nb + b[g % nb][h % nb]
                    for h in range(len(out) * nb)
                )
                for g in range(len(out) * nb)
            )
        return out
    if kind == "from_permutations":
        gens = [tuple(g) for g in doc["generators"]]
        elems = {tuple(range(len(gens[0])))}
        frontier = list(elems)
        while frontier:
            nxt = []
            for p in frontier:
                for q in gens:
                    r = tuple(p[q[x]] for x in range(len(p)))
                    if r not in elems:
                        elems.add(r)
                        nxt.append(r)
            frontier = nxt
        return _perm_table(sorted(elems))
    raise ValueError(f"unknown group kind {kind!r}")


def closure(t: Table, gens: Sequence[int]) -> FrozenSet[int]:
    elems = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = t[a][g]
                if b not in elems:
                    elems.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(elems)


def inverse(t: Table, g: int) -> int:
    return t[g].index(0)


def conjugates(t: Table, h: FrozenSet[int]) -> List[FrozenSet[int]]:
    """The distinct conjugates of h, in order of their sorted elements."""
    out = {frozenset(t[t[g][x]][inverse(t, g)] for x in h) for g in range(len(t))}
    return sorted(out, key=sorted)


def generating_sets(t: Table, h: FrozenSet[int]) -> List[List[int]]:
    """The generating sets of h of the smallest size (at most two)."""
    elems = sorted(h)
    for size in (1, 2):
        found = [
            list(c)
            for c in itertools.combinations(elems, size)
            if closure(t, c) == h
        ]
        if found:
            return found
    raise ValueError("subgroup needs more than two generators")


def subgroup_classes(t: Table) -> List[FrozenSet[int]]:
    """One subgroup per conjugacy class of proper nontrivial subgroups,
    each the least conjugate in sorted-element order."""
    n = len(t)
    subs = {closure(t, c) for c in itertools.combinations(range(n), 2)}
    subs |= {closure(t, [g]) for g in range(n)}
    reps: Dict[FrozenSet[int], FrozenSet[int]] = {}
    for s in subs:
        if 1 < len(s) < n:
            reps.setdefault(conjugates(t, s)[0], s)
    return sorted(reps, key=lambda s: (len(s), sorted(s)))


def is_normal(t: Table, h: FrozenSet[int]) -> bool:
    return len(conjugates(t, h)) == 1
