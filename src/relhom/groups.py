"""Finite groups as validated multiplication tables, subgroups, cosets,
conjugation, and family-theoretic predicates."""

from __future__ import annotations

import functools
import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import ValidationError


class FiniteGroup:
    """A finite group on element indices 0..order-1 with identity 0.

    `memo` holds every cached result about the group or its subgroups
    (coset spaces, standard modules, resolutions, coset-tuple complexes),
    keyed by value: a tuple of the cached function's name and a subgroup's
    elements, a module's `value_key` or a re-indexed table.  An entry lives
    as long as the group, so no cache keeps a group alive."""

    __slots__ = ("order", "table", "inverse", "label", "memo", "__weakref__")

    def __init__(self, table: Sequence[Sequence[int]], label: str = ""):
        n = len(table)
        if n == 0:
            raise ValidationError("empty multiplication table")
        tab = tuple(tuple(int(x) for x in row) for row in table)
        for i, row in enumerate(tab):
            if len(row) != n:
                raise ValidationError(f"row {i} of multiplication table has wrong length")
            for x in row:
                if not (0 <= x < n):
                    raise ValidationError(f"table entry {x} out of range")
        for g in range(n):
            if tab[0][g] != g or tab[g][0] != g:
                raise ValidationError("element 0 is not a two-sided identity")
        inv = [None] * n
        for g in range(n):
            for h in range(n):
                if tab[g][h] == 0 and tab[h][g] == 0:
                    inv[g] = h
                    break
            if inv[g] is None:
                raise ValidationError(f"element {g} has no two-sided inverse")
        for a in range(n):
            for b in range(n):
                tab_ab = tab[a][b]
                for c in range(n):
                    if tab[tab_ab][c] != tab[a][tab[b][c]]:
                        raise ValidationError(
                            f"associativity fails on triple ({a}, {b}, {c})"
                        )
        self.order = n
        self.table = tab
        self.inverse = tuple(inv)
        self.label = label or f"group of order {n}"
        self.memo: Dict[tuple, object] = {}

    # identity is always element 0
    identity = 0

    def mult(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conjugate(self, g: int, x: int) -> int:
        """g^-1 * x * g."""
        return self.table[self.table[self.inverse[g]][x]][g]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.table[x][g]
            k += 1
        return k

    @property
    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(self.order))

    def generators(self) -> List[int]:
        """A small generating set, chosen greedily and deterministically."""
        gens: List[int] = []
        closure = {0}
        for g in range(1, self.order):
            if g not in closure:
                gens.append(g)
                closure = _closure(self, gens)
                if len(closure) == self.order:
                    break
        return gens

    def subgroup(self, elements: Iterable[int]) -> "Subgroup":
        return Subgroup(self, elements)

    def subgroup_generated(self, gens: Iterable[int]) -> "Subgroup":
        gens = list(gens)
        for g in gens:
            if not 0 <= g < self.order:
                raise ValidationError(
                    f"generator {g} is not an element of the group (0..{self.order - 1})"
                )
        return Subgroup(self, _closure(self, gens))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, range(self.order))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"


def _closure(group_or_table, gens: List[int]) -> set:
    if isinstance(group_or_table, FiniteGroup):
        table = group_or_table.table
    else:
        table = group_or_table
    out = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = table[x][g]
                if y not in out:
                    out.add(y)
                    nxt.append(y)
                y = table[g][x]
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return out


class Subgroup:
    """Subgroup of a FiniteGroup, stored as a sorted element tuple and, for
    membership tests, as the set `eset` of the same elements."""

    __slots__ = ("parent", "elements", "eset")

    def __init__(self, parent: FiniteGroup, elements: Iterable[int]):
        elts = tuple(sorted(set(int(x) for x in elements)))
        if not elts or elts[0] != 0:
            raise ValidationError("subgroup must contain the identity")
        if elts[-1] >= parent.order:
            raise ValidationError("subgroup element out of range")
        eset = frozenset(elts)
        for a in elts:
            if parent.inverse[a] not in eset:
                raise ValidationError(f"subgroup not closed under inversion at {a}")
            for b in elts:
                if parent.table[a][b] not in eset:
                    raise ValidationError(
                        f"subgroup not closed under multiplication at ({a}, {b})"
                    )
        self.parent = parent
        self.elements = elts
        self.eset = eset

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: int) -> bool:
        return g in self.eset

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return other.eset <= self.eset

    def conjugate(self, g: int) -> "Subgroup":
        """The subgroup g^-1 * H * g."""
        G = self.parent
        return Subgroup(G, (G.conjugate(g, x) for x in self.elements))

    def intersect(self, other: "Subgroup") -> "Subgroup":
        if other.parent is not self.parent:
            raise ValidationError("subgroups of different parent groups")
        return Subgroup(self.parent, self.eset & other.eset)

    def is_normal(self) -> bool:
        return all(self.conjugate(g) == self for g in self.parent.elements())

    def generators(self) -> List[int]:
        gens: List[int] = []
        closure = {0}
        for g in self.elements:
            if g not in closure:
                gens.append(g)
                closure = _closure(self.parent, gens)
                if len(closure) == self.order:
                    break
        return gens

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.elements))

    def __repr__(self) -> str:
        return f"Subgroup({list(self.elements)} of {self.parent.label})"


def memoized(fn):
    """Cache `fn(x)`, for a group or a subgroup `x`, in the group's memo,
    keyed by the function's name and the subgroup's elements."""
    name = fn.__name__

    @functools.wraps(fn)
    def cached(x):
        if isinstance(x, Subgroup):
            memo, key = x.parent.memo, (name, x.elements)
        else:
            memo, key = x.memo, (name,)
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = fn(x)
            return value

    return cached


@memoized
def subgroup_as_group(h: Subgroup) -> Tuple[FiniteGroup, Tuple[int, ...]]:
    """Re-index a subgroup as a standalone group; returns (group, embedding).

    The group is interned in the parent's memo by its table, so subgroups
    with equal re-indexed tables (conjugate subgroups, say) share one group
    and every entry in its memo."""
    G = h.parent
    embed = h.elements  # sorted, so the identity 0 stays at index 0
    pos = {g: i for i, g in enumerate(embed)}
    table = tuple(tuple(pos[G.table[a][b]] for b in embed) for a in embed)
    key = ("subgroup group", table)
    if key not in G.memo:
        G.memo[key] = FiniteGroup(table, label=f"subgroup of {G.label}")
    return G.memo[key], embed


class CosetSpace:
    """Left cosets gH of a subgroup, with the left translation action."""

    __slots__ = ("parent", "subgroup", "cosets", "coset_of", "action")

    def __init__(self, subgroup: Subgroup):
        G = subgroup.parent
        seen = [False] * G.order
        cosets: List[Tuple[int, ...]] = []
        coset_of = [0] * G.order
        for g in range(G.order):
            if seen[g]:
                continue
            coset = tuple(sorted(G.table[g][h] for h in subgroup.elements))
            idx = len(cosets)
            cosets.append(coset)
            for x in coset:
                seen[x] = True
                coset_of[x] = idx
        self.parent = G
        self.subgroup = subgroup
        self.cosets = tuple(cosets)
        self.coset_of = tuple(coset_of)
        # action[g][c] = index of g * (coset c)
        self.action = tuple(
            tuple(self.coset_of[G.table[g][c[0]]] for c in cosets)
            for g in range(G.order)
        )

    @property
    def size(self) -> int:
        return len(self.cosets)

    def rep(self, idx: int) -> int:
        return self.cosets[idx][0]

    def act(self, g: int, idx: int) -> int:
        return self.action[g][idx]


@memoized
def coset_space(h: Subgroup) -> CosetSpace:
    return CosetSpace(h)


class SubgroupFamily:
    """A nonempty set of subgroups closed under conjugation and subgroups."""

    __slots__ = ("parent", "members")

    def __init__(self, parent: FiniteGroup, members: Iterable[Subgroup], validate: bool = True):
        mem = frozenset(members)
        if validate:
            if parent.trivial_subgroup() not in mem:
                raise ValidationError("family must contain the trivial subgroup")
            for k in mem:
                for g in parent.elements():
                    if k.conjugate(g) not in mem:
                        raise ValidationError("family not closed under conjugation")
                for s in all_subgroups(parent):
                    if k.contains_subgroup(s) and s not in mem:
                        raise ValidationError("family not closed under subgroups")
        self.parent = parent
        self.members = mem

    def __contains__(self, k: Subgroup) -> bool:
        return k in self.members

    def __len__(self) -> int:
        return len(self.members)

    def sorted_members(self) -> List[Subgroup]:
        return sorted(self.members, key=lambda s: (s.order, s.elements))

    def is_trivial(self) -> bool:
        return len(self.members) == 1

    def __repr__(self) -> str:
        return f"SubgroupFamily({len(self.members)} subgroups of {self.parent.label})"


# ---------------------------------------------------------------------------
# Constructors


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError("cyclic group order must be >= 1")
    return FiniteGroup(
        [[(a + b) % n for b in range(n)] for a in range(n)], label=f"C{n}"
    )


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; index = i + n*j for r^i s^j."""
    if n < 1:
        raise ValidationError("dihedral parameter must be >= 1")

    def enc(i: int, j: int) -> int:
        return i % n + n * (j % 2)

    table = []
    for a in range(2 * n):
        i1, j1 = a % n, a // n
        row = []
        for b in range(2 * n):
            i2, j2 = b % n, b // n
            # r^i1 s^j1 r^i2 s^j2 = r^(i1 + (-1)^j1 i2) s^(j1+j2)
            row.append(enc(i1 + (i2 if j1 == 0 else -i2), j1 + j2))
        table.append(row)
    return FiniteGroup(table, label=f"D{n}")


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of {0..n-1} in lexicographic order; (p*q)(x) = p(q(x))."""
    if n < 1:
        raise ValidationError("symmetric group degree must be >= 1")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms
    ]
    return FiniteGroup(table, label=f"S{n}")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with element encoding (x, y) -> x*|B| + y."""
    nb = b.order
    table = []
    for g in range(a.order * nb):
        x1, y1 = divmod(g, nb)
        row = []
        for h in range(a.order * nb):
            x2, y2 = divmod(h, nb)
            row.append(a.table[x1][x2] * nb + b.table[y1][y2])
        table.append(row)
    return FiniteGroup(table, label=f"{a.label} x {b.label}")


def group_from_permutations(generators: Sequence[Sequence[int]], degree: Optional[int] = None) -> FiniteGroup:
    """Closure of permutation generators acting on {0..degree-1}."""
    gens = [tuple(int(x) for x in g) for g in generators]
    if degree is None:
        if not gens:
            raise ValidationError("need a degree when no generators are given")
        degree = len(gens[0])
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise ValidationError(
                f"generator {list(g)} is not a permutation of 0..{degree - 1}"
            )
    ident = tuple(range(degree))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(p[q[x]] for x in range(degree))
                if r not in elems:
                    elems.add(r)
                    nxt.append(r)
        frontier = nxt
    ordered = sorted(elems)  # identity is lexicographically least
    index = {p: i for i, p in enumerate(ordered)}
    table = [
        [index[tuple(p[q[x]] for x in range(degree))] for q in ordered]
        for p in ordered
    ]
    return FiniteGroup(table, label=f"perm group of order {len(ordered)}")


_CONSTRUCTORS = {
    "cyclic": cyclic_group,
    "dihedral": dihedral_group,
    "symmetric": symmetric_group,
    "direct_product": direct_product,
    "from_permutations": group_from_permutations,
}

_interned: Dict[tuple, FiniteGroup] = {}


def make_group(kind: str, *args) -> FiniteGroup:
    """Dispatching constructor: cyclic n | dihedral n | symmetric n |
    direct_product(A, B) | from_permutations(gens, degree?).

    Groups are interned for the life of the process: the table is built
    and validated on every call, then the first group with the same table
    and label is returned, with its memo.  So equal questions asked through
    separately built groups (CLI jobs, say) share cached results.  The
    named constructors return fresh groups, whose memo is freed with
    them."""
    if kind not in _CONSTRUCTORS:
        raise ValidationError(f"unknown group kind {kind!r}")
    built = _CONSTRUCTORS[kind](*args)
    return _interned.setdefault((built.table, built.label), built)


# ---------------------------------------------------------------------------
# Subgroup enumeration and predicates


@memoized
def all_subgroups(G: FiniteGroup) -> Tuple[Subgroup, ...]:
    """All subgroups, by closing cyclic subgroups under pairwise joins."""
    seen: Dict[Tuple[int, ...], Subgroup] = {}
    trivial = G.trivial_subgroup()
    seen[trivial.elements] = trivial
    for g in range(1, G.order):
        h = G.subgroup_generated([g])
        seen.setdefault(h.elements, h)
    frontier = list(seen.values())
    while frontier:
        new: List[Subgroup] = []
        current = list(seen.values())
        for a in frontier:
            for b in current:
                join_gens = list(a.elements) + list(b.elements)
                j = G.subgroup_generated(join_gens)
                if j.elements not in seen:
                    seen[j.elements] = j
                    new.append(j)
        frontier = new
    return tuple(sorted(seen.values(), key=lambda s: (s.order, s.elements)))


@memoized
def subgroup_conjugacy_classes(G: FiniteGroup) -> Tuple[Tuple[Subgroup, ...], ...]:
    classes = []
    assigned = set()
    for h in all_subgroups(G):
        if h.elements in assigned:
            continue
        orbit = {h.conjugate(g) for g in G.elements()}
        for k in orbit:
            assigned.add(k.elements)
        classes.append(tuple(sorted(orbit, key=lambda s: s.elements)))
    return tuple(classes)


def is_subconjugate(l: Subgroup, k: Subgroup) -> bool:
    """Is some conjugate of l contained in k?"""
    if l.parent is not k.parent:
        raise ValidationError("subgroups of different parent groups")
    return any(
        k.contains_subgroup(l.conjugate(g)) for g in l.parent.elements()
    )


def is_malnormal(h: Subgroup) -> bool:
    """True iff g^-1 H g meets H trivially for every g outside H."""
    G = h.parent
    hset = h.eset
    for g in G.elements():
        if g in hset:
            continue
        conj = {G.conjugate(g, x) for x in h.elements}
        if len(conj & hset) > 1:
            return False
    return True


def family_generated(h: Subgroup) -> SubgroupFamily:
    """All subgroups subconjugate to h (the family generated by h)."""
    G = h.parent
    members = [k for k in all_subgroups(G) if is_subconjugate(k, h)]
    fam = SubgroupFamily(G, members, validate=False)
    _assert_family_closed(fam)
    return fam


def _assert_family_closed(fam: SubgroupFamily):
    G = fam.parent
    for k in fam.members:
        for g in G.elements():
            if k.conjugate(g) not in fam.members:
                raise ValidationError("family closure under conjugation failed")
    mem_elts = {k.elements for k in fam.members}
    for k in fam.members:
        for s in all_subgroups(G):
            if k.contains_subgroup(s) and s.elements not in mem_elts:
                raise ValidationError("family closure under subgroups failed")


def family_gh(h: Subgroup) -> SubgroupFamily:
    """Subgroups lying in the point stabilizers of two distinct cosets.

    These are the K with K <= g_i H g_i^-1 ∩ g_j H g_j^-1 for distinct left
    cosets g_i H != g_j H, i.e. the subgroups fixing at least two points of
    G/H under left translation.
    """
    G = h.parent
    cs = coset_space(h)
    stabs = [h.conjugate(G.inverse[cs.rep(i)]) for i in range(cs.size)]
    members = set()
    for i in range(cs.size):
        for j in range(i + 1, cs.size):
            meet = stabs[i].intersect(stabs[j])
            for k in all_subgroups(G):
                if meet.contains_subgroup(k):
                    members.add(k)
    members.add(G.trivial_subgroup())
    fam = SubgroupFamily(G, members, validate=False)
    _assert_family_closed(fam)
    return fam


def fixed_cosets(h: Subgroup, k: Subgroup) -> List[int]:
    """Indices of cosets in G/H fixed under left translation by all of k."""
    if k.parent is not h.parent:
        raise ValidationError("subgroups of different parent groups")
    cs = coset_space(h)
    return [
        c for c in range(cs.size) if all(cs.act(g, c) == c for g in k.elements)
    ]


def is_good_triple(h: Subgroup, k: Subgroup) -> Tuple[bool, Optional[int]]:
    """For the triple (G, H, K): is H ∩ gHg^-1 subconjugate to K for every
    g outside H?  Returns (flag, witness g on failure)."""
    G = h.parent
    if not h.contains_subgroup(k):
        raise ValidationError("K must be contained in H")
    hset = h.eset
    for g in G.elements():
        if g in hset:
            continue
        conj = h.conjugate(G.inverse[g])  # g H g^-1
        meet = h.intersect(conj)
        if not is_subconjugate(meet, k):
            return False, g
    return True, None
