"""Modules over group rings as integer lattices with action, free
resolutions (generic engine, bar, periodic cyclic, relative standard),
tensor products over the group ring, and Tor."""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BudgetError, ValidationError
from .exactla import (
    IntMatrix,
    IntSolver,
    LatticeAccumulator,
    PresentedComplex,
    FgAbGroup,
    _check_int,
    _check_ranks,
    _combine,
    _is_int,
    _sparse_apply,
    kernel_basis,
    product_gaps,
    smith_invariants,
)
from .groups import FiniteGroup, Subgroup, coset_space, memoized, subgroup_as_group

DEFAULT_RANK_CAP = 5000

# exhaustive lattice-level exactness checks are skipped above this Z-rank
VALIDATION_RANK_CAP = 1500


class GModule:
    """A Z[G]-module: an integer lattice with a (left) action of G.

    The action is stored either as index permutations (free and permutation
    modules) or as unimodular matrices.  An optional relation matrix
    turns the lattice into a finitely presented module; the group law and
    equivariance are then only required modulo the relation lattice.

    The constructor checks the action law (`_validate`).  With
    ``validate=False`` the caller vouches for it: a tensored complex
    without relations is taken as checked from its orbit form alone
    (`tensor_orbit_complex`), which relies on that law.  The library's own
    `trivial`, `trivial_mod`, `free`, `regular` and `restriction` pass it,
    as their modules are valid by construction.
    """

    __slots__ = (
        "group", "rank", "_perms", "_mats", "relations", "label", "_rel_acc", "_act_inv",
        "_coinv", "_orbits",
    )

    def __init__(
        self,
        group: FiniteGroup,
        rank: int,
        *,
        perms: Optional[Sequence[Sequence[int]]] = None,
        mats: Optional[Sequence[IntMatrix]] = None,
        relations: Optional[IntMatrix] = None,
        label: str = "",
        validate: bool = True,
    ):
        if (perms is None) == (mats is None):
            raise ValidationError("provide exactly one of perms or mats")
        if not _is_int(rank) or rank < 0:
            raise ValidationError(f"module rank is not a non-negative integer: {rank!r}")
        self.group = group
        self.rank = int(rank)
        self._perms = tuple(tuple(p) for p in perms) if perms is not None else None
        self._mats = tuple(mats) if mats is not None else None
        self.relations = relations
        self.label = label
        self._rel_acc = None
        self._act_inv = None
        # per stabilizer, keyed by its elements: the presented value, and
        # for a permutation module without relations its orbit classes
        self._coinv: Dict[Tuple[int, ...], IntMatrix] = {}
        self._orbits: Dict[Tuple[int, ...], Tuple[List[int], List[int]]] = {}
        if relations is not None:
            if relations.rows != self.rank:
                raise ValidationError("relation matrix row count != rank")
            self._rel_acc = LatticeAccumulator.spanned_by(relations)
        if validate:
            self._validate()

    # -- access

    def act(self, g: int, vec: Sequence[int]) -> List[int]:
        if self._perms is not None:
            out = [0] * self.rank
            p = self._perms[g]
            for i, x in enumerate(vec):
                if x:
                    out[p[i]] = x
            return out
        return self._mats[g].apply(vec)

    def action_matrix(self, g: int) -> IntMatrix:
        if self._mats is not None:
            return self._mats[g]
        p = self._perms[g]
        return IntMatrix._from_sparse_columns([{p[i]: 1} for i in range(self.rank)], self.rank)

    def _inverse_action_rows(self) -> Tuple[Tuple[Tuple[Tuple[int, int], ...], ...], ...]:
        """For each g, the rows of a(g^-1) as (column, value) pairs of their
        nonzero entries (computed once)."""
        if self._act_inv is None:
            inv = self.group.inverse
            self._act_inv = tuple(
                self.action_matrix(inv[g])._row_pairs() for g in self.group.elements()
            )
        return self._act_inv

    # -- as orbit coefficients (see tensor_orbit_complex)

    def orbit_value(self, k: Subgroup) -> Tuple[int, Optional[IntMatrix]]:
        """M_K = Z[G/K] tensor_Z[G] M, computed once per K.

        A permutation module Z[X] without relations gives the free group
        Z[K\\X] on the K-orbits of its basis X (Brown, Cohomology of
        Groups, ch. III, the coinvariants of a permutation module): the
        orbit count and no relations.  Any other module gives M_K on the
        lattice of M, presented by `coinvariant_relations`."""
        if self._perms is not None and self.relations is None:
            return len(self._orbit_classes(k)[1]), None
        rel = self._coinv.get(k.elements)
        if rel is None:
            rel = self._coinv[k.elements] = coinvariant_relations(self, k)
        return self.rank, rel

    def _orbit_classes(self, k: Subgroup):
        """(orbit of each basis point, least point of each orbit) for the
        K-orbits of the permutation basis, numbered by their least points
        (computed once per K)."""
        key = k.elements
        classes = self._orbits.get(key)
        if classes is None:
            orbit_of = [-1] * self.rank
            least: List[int] = []
            perms = [self._perms[g] for g in key]
            for x in range(self.rank):
                if orbit_of[x] < 0:
                    for p in perms:
                        orbit_of[p[x]] = len(least)
                    least.append(x)
            classes = self._orbits[key] = (orbit_of, least)
        return classes

    def orbit_map_rows(self, source: Subgroup, target: Subgroup, g: int):
        """The block of the orbit map G/K -> G/L, xK |-> xgL, on the values
        (K = source, L = target), as rows of (column, value) pairs: g x
        tensor v = x tensor g^-1 v in the coinvariants.

        On presented values this is a(g^-1) whatever K and L are.  On the
        orbit classes of a permutation module, the class of a K-orbit with
        least point x goes to the L-orbit of g^-1 x.  That is well defined
        when K is in g L g^-1; otherwise only a sum of such blocks is, over
        a boundary that K fixes (`orbit_form_fault`), since its value at x
        is then the same for every point of the K-orbit.  With K and L
        trivial every orbit is a point and that block is a(g^-1) again, so
        the rows computed once are returned rather than rebuilt per call
        (free resolutions and the free orbits of coset-tuple complexes take
        this path)."""
        if (
            len(source.elements) == 1 == len(target.elements)
            or self._perms is None
            or self.relations is not None
        ):
            return self._inverse_action_rows()[g]
        tgt_of, tgt_least = self._orbit_classes(target)
        back = self._perms[self.group.inverse[g]]
        rows: List[List[Tuple[int, int]]] = [[] for _ in tgt_least]
        for b, x in enumerate(self._orbit_classes(source)[1]):
            rows[tgt_of[back[x]]].append((b, 1))
        return rows

    def _validate(self):
        """a(e) = 1 and a(s) a(h) = a(sh), modulo the relations, for every
        generator s and element h, and the relation lattice is G-stable.
        That is the action law for every pair: writing g = s1 ... sk,
        induction on k gives a(g) = a(s1) ... a(sk) and a(g) a(h) =
        a(gh), where each a(s) carries the relations into themselves.
        Every a(g) is then invertible over Z (modulo the relations), as
        a(g) a(g^-1) = a(e) = 1."""
        G, acc = self.group, self._rel_acc
        pairs = [(g, h) for g in G.generators() for h in G.elements()]
        if self._perms is not None:
            if len(self._perms) != G.order:
                raise ValidationError("need one permutation per group element")
            if self._perms[0] != tuple(range(self.rank)):
                raise ValidationError("identity must act trivially")
            for g, h in pairs:
                pg, ph = self._perms[g], self._perms[h]
                pgh = self._perms[G.mult(g, h)]
                if any(pgh[i] != pg[ph[i]] for i in range(self.rank)):
                    raise ValidationError(f"action law fails at ({g}, {h})")
        else:
            if len(self._mats) != G.order:
                raise ValidationError("need one matrix per group element")
            for m in self._mats:
                if m.shape != (self.rank, self.rank):
                    raise ValidationError("action matrix shape mismatch")
            mats = self._mats
            if any(product_gaps((mats[0],), (IntMatrix.identity(self.rank),), acc)):
                raise ValidationError("identity must act trivially")
            for g, h in pairs:
                if any(product_gaps((mats[g], mats[h]), (mats[G.mult(g, h)],), acc)):
                    raise ValidationError(f"action law fails at ({g}, {h})")
        if self.relations is not None:
            for g in G.generators():
                carried = (self.action_matrix(g), self.relations)
                if any(product_gaps(carried, None, acc)):
                    raise ValidationError("relation lattice is not G-stable")

    def value_key(self) -> tuple:
        """The module's value, as a cache key in its group's memo
        (`FiniteGroup.memo`): the group, the rank, the action and the
        relations.  The group compares by identity, so modules over two
        groups never share a key, even when the groups are equal."""
        return (self.group, self.rank, self._perms, self._mats, self.relations)

    def is_constant(self) -> bool:
        """Does every group element act as the identity (modulo relations)?"""
        ident = IntMatrix.identity(self.rank)
        return not any(
            any(product_gaps((self.action_matrix(g),), (ident,), self._rel_acc))
            for g in self.group.generators()
        )

    # -- constructors

    @classmethod
    def trivial(cls, group: FiniteGroup, rank: int = 1) -> "GModule":
        return cls(
            group,
            rank,
            perms=[tuple(range(rank))] * group.order,
            label="Z" if rank == 1 else f"Z^{rank}",
            validate=False,
        )

    @classmethod
    def trivial_mod(cls, group: FiniteGroup, k: int) -> "GModule":
        if k < 2:
            raise ValidationError("modulus must be >= 2")
        return cls(
            group,
            1,
            mats=[IntMatrix.identity(1)] * group.order,
            relations=IntMatrix([[k]]),
            label=f"Z/{k}",
            validate=False,
        )

    @classmethod
    def free(cls, group: FiniteGroup, r: int) -> "GModule":
        n = group.order
        perms = []
        for g in group.elements():
            p = [0] * (n * r)
            row = group.table[g]
            for i in range(r):
                base = i * n
                for h in range(n):
                    p[base + h] = base + row[h]
            perms.append(tuple(p))
        return cls(group, n * r, perms=perms, label=f"Z[G]^{r}", validate=False)

    @classmethod
    def regular(cls, group: FiniteGroup) -> "GModule":
        m = cls.free(group, 1)
        m.label = "Z[G]"
        return m

    @classmethod
    def permutation(cls, subgroup: Subgroup) -> "GModule":
        cs = coset_space(subgroup)
        G = subgroup.parent
        perms = [tuple(cs.action[g]) for g in G.elements()]
        return cls(G, cs.size, perms=perms, label="Z[G/H]")

    @classmethod
    def from_action_matrices(
        cls,
        group: FiniteGroup,
        mats: Sequence[IntMatrix],
        relations: Optional[IntMatrix] = None,
        label: str = "",
    ) -> "GModule":
        rank = mats[0].rows
        return cls(group, rank, mats=mats, relations=relations, label=label)

    @classmethod
    def from_generator_action(
        cls, group: FiniteGroup, gen_mats: Dict[int, IntMatrix], label: str = ""
    ) -> "GModule":
        """Extend matrices given on a generating set to the whole group."""
        rank = next(iter(gen_mats.values())).rows
        mats: Dict[int, IntMatrix] = {0: IntMatrix.identity(rank)}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for g, mg in gen_mats.items():
                    y = group.mult(g, x)
                    if y not in mats:
                        mats[y] = mg @ mats[x]
                        nxt.append(y)
            frontier = nxt
        if len(mats) != group.order:
            raise ValidationError("generator matrices do not reach the whole group")
        return cls(group, rank, mats=[mats[g] for g in group.elements()], label=label)

    def __repr__(self) -> str:
        return f"GModule({self.label or 'lattice'}, rank={self.rank}, over {self.group.label})"


class GModuleHom:
    """Equivariant map of modules over the same group."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: GModule, target: GModule, matrix: IntMatrix):
        if source.group is not target.group:
            raise ValidationError("modules over different groups")
        if matrix.shape != (target.rank, source.rank):
            raise ValidationError("hom matrix shape mismatch")
        self.source = source
        self.target = target
        self.matrix = matrix
        for g in source.group.generators():
            if any(
                product_gaps(
                    (matrix, source.action_matrix(g)),
                    (target.action_matrix(g), matrix),
                    target._rel_acc,
                )
            ):
                raise ValidationError(f"hom is not equivariant at {g}")


class StandardModules:
    """The permutation module Z[G/H], its augmentation onto Z, the kernel
    module with basis {g_iH - H}, and its embedding into Z[G/H]."""

    __slots__ = ("subgroup", "perm", "augmentation", "i_module", "embedding")

    def __init__(
        self,
        subgroup: Subgroup,
        perm: GModule,
        augmentation: GModuleHom,
        i_module: GModule,
        embedding: GModuleHom,
    ):
        self.subgroup = subgroup
        self.perm = perm
        self.augmentation = augmentation
        self.i_module = i_module
        self.embedding = embedding


@memoized
def standard_modules(h: Subgroup) -> StandardModules:
    G = h.parent
    cs = coset_space(h)
    perm = GModule.permutation(h)
    triv = GModule.trivial(G)
    aug = GModuleHom(perm, triv, IntMatrix([[1] * cs.size]))
    k = cs.size
    # action on the basis b_j = e_j - e_0 (j = 1..k-1)
    mats = []
    for g in G.elements():
        cols = []
        for j in range(1, k):
            col = [0] * (k - 1)
            tj = cs.act(g, j)
            t0 = cs.act(g, 0)
            if tj != 0:
                col[tj - 1] += 1
            if t0 != 0:
                col[t0 - 1] -= 1
            cols.append(col)
        mats.append(IntMatrix.from_columns(cols, rows=k - 1) if cols else IntMatrix.zeros(0, 0))
    i_module = GModule(G, k - 1, mats=mats, label="I(G,H)")
    emb_cols = []
    for j in range(1, k):
        col = [0] * k
        col[j] = 1
        col[0] = -1
        emb_cols.append(col)
    emb = GModuleHom(
        i_module, perm, IntMatrix.from_columns(emb_cols, rows=k) if emb_cols else IntMatrix.zeros(k, 0)
    )
    return StandardModules(h, perm, aug, i_module, emb)


def restriction(m: GModule, h: Subgroup) -> GModule:
    """The same lattice as a module over the subgroup (re-indexed)."""
    if h.parent is not m.group:
        raise ValidationError("subgroup of a different group")
    hgrp, embed = subgroup_as_group(h)
    if m._perms is not None:
        return GModule(
            hgrp, m.rank, perms=[m._perms[g] for g in embed],
            relations=m.relations, label=f"res {m.label}", validate=False,
        )
    return GModule(
        hgrp, m.rank, mats=[m._mats[g] for g in embed],
        relations=m.relations, label=f"res {m.label}", validate=False,
    )


# ---------------------------------------------------------------------------
# Free resolutions


def _checked_entries(image, k: int, j: int, prev_rank: int, order: int) -> tuple:
    """Generator j's degree-k image as sorted orbit entries, checked as
    `FreeResolution` says."""
    where = f"degree {k} generator {j}"
    try:
        # tuple() keeps a given tuple, so entries stay shared with their source
        entries = tuple(sorted(map(tuple, image)))
        last = None
        for i, h, c in entries:
            if not (_is_int(i) and 0 <= i < prev_rank):
                raise ValidationError(f"{where}: generator {i!r} outside F_{k - 1} of rank {prev_rank}")
            if not (_is_int(h) and 0 <= h < order):
                raise ValidationError(f"{where}: element {h!r} outside a group of order {order}")
            if not (_is_int(c) and c):
                raise ValidationError(f"{where}: coefficient {c!r} is not a nonzero integer")
            if (i, h) == last:
                raise ValidationError(f"{where}: entry ({i}, {h}) given twice")
            last = (i, h)
    except (TypeError, ValueError):
        raise ValidationError(f"{where}: not a list of (generator, element, coeff) entries") from None
    return entries


class FreeResolution:
    """Resolution of a module by free Z[G]-modules F_k = Z[G]^{r_k}.

    ``gen_images[0][j]`` is the image of generator j of F_0, a vector of
    the module's lattice.  For k >= 1, ``gen_images[k][j]``, the boundary
    of generator j of F_k, is a tuple of orbit entries (i, h, c), meaning
    c h e_i in F_{k-1}: c is a nonzero integer, each (i, h) occurs once,
    and the entries are sorted.  Each generator is an orbit with trivial
    stabilizer, so these are the entries `tensor_orbit_complex` reads; g
    moves (i, h, c) to (i, g h, c).  Matrices, in the Z-basis
    (i, h) -> i*|G| + h, are materialized on demand.

    The constructor sorts each image and refuses with ValidationError,
    naming the degree and the generator, a generator outside F_{k-1}, an
    element outside G, a coefficient that is 0 or not an integer, or an
    (i, h) given twice.
    """

    def __init__(
        self,
        group: FiniteGroup,
        module: GModule,
        free_ranks: Sequence[int],
        gen_images: Sequence[Sequence[Sequence]],
        label: str = "",
    ):
        self.group = group
        self.module = module
        self.free_ranks = ranks = _check_ranks(free_ranks)
        if [len(level) for level in gen_images] != ranks:
            raise ValidationError(f"generator images do not match the free ranks {ranks}")
        self.gen_images = [[list(v) for v in level] for level in gen_images[:1]] + [
            [_checked_entries(v, k, j, ranks[k - 1], group.order) for j, v in enumerate(level)]
            for k, level in enumerate(gen_images[1:], start=1)
        ]
        self.label = label
        self._matrix_cache: Dict[int, IntMatrix] = {}

    @property
    def length(self) -> int:
        return len(self.free_ranks) - 1

    def z_rank(self, k: int) -> int:
        return self.group.order * self.free_ranks[k]

    def augmentation_matrix(self) -> IntMatrix:
        if 0 not in self._matrix_cache:
            act = self.module.act
            cols = [
                _sparse(act(g, base))
                for base in self.gen_images[0]
                for g in self.group.elements()
            ]
            self._matrix_cache[0] = IntMatrix._from_sparse_columns(cols, self.module.rank)
        return self._matrix_cache[0]

    def boundary_matrix(self, k: int) -> IntMatrix:
        """Boundary F_k -> F_{k-1} in the induced Z-basis (1 <= k <= length)."""
        mat = self._matrix_cache.get(k) if 1 <= k <= self.length else None
        if mat is None:
            mat = self._matrix_cache[k] = self._build_boundary(k)
        return mat

    def _build_boundary(self, k: int) -> IntMatrix:
        """The boundary `boundary_matrix(k)` returns, built anew on sparse
        columns and not cached."""
        if not (1 <= k <= self.length):
            raise ValidationError(f"no boundary at degree {k}")
        G = self.group
        n = G.order
        cols = []
        for entries in self.gen_images[k]:
            for row_g in G.table:
                cols.append({i * n + row_g[h]: c for i, h, c in entries})
        return IntMatrix._from_sparse_columns(cols, self.z_rank(k - 1))

    def validate(self, exactness_cap: int = VALIDATION_RANK_CAP):
        """Check the augmented complex: boundaries compose to zero, and
        (up to the cap) kernel equals image at every stage."""
        aug = self.augmentation_matrix()
        for k in range(1, self.length + 1):
            prev = aug if k == 1 else self.boundary_matrix(k - 1)
            if any(product_gaps((prev, self.boundary_matrix(k)))):
                raise ValidationError(
                    "augmentation does not kill the first boundary"
                    if k == 1
                    else f"boundary squared nonzero at degree {k}"
                )
        if not LatticeAccumulator.spanned_by(aug).is_all_of_ambient():
            raise ValidationError("augmentation is not surjective")
        for k in range(1, self.length + 1):
            if self.z_rank(k - 1) > exactness_cap or self.z_rank(k) > exactness_cap:
                continue
            prev = aug if k == 1 else self.boundary_matrix(k - 1)
            img = LatticeAccumulator.spanned_by(self.boundary_matrix(k))
            if any(product_gaps((kernel_basis(prev),), None, img)):
                raise ValidationError(f"resolution not exact at stage {k - 1}")

    def truncated(self, length: int) -> "FreeResolution":
        """The terms through degree `length` (at most `self.length`).  The
        generator data are prefixes of this resolution's, and the
        materialized matrices are shared: each depends on its own degree's
        data only."""
        if length == self.length:
            return self
        view = FreeResolution.__new__(FreeResolution)
        view.group, view.module, view.label = self.group, self.module, self.label
        view.free_ranks = self.free_ranks[: length + 1]
        view.gen_images = self.gen_images[: length + 1]
        view._matrix_cache = self._matrix_cache
        return view

    def tensor(self, m: GModule) -> PresentedComplex:
        return tensor_free_resolution(self, m)

    def lift_target(self) -> "_ResolutionTarget":
        """This resolution as the target of a chain lift onto its module
        (see `_chain_lift`), with a solver on each boundary matrix."""
        return _ResolutionTarget(self, self.augmentation_matrix())

    def __repr__(self) -> str:
        return (
            f"FreeResolution({self.label or self.module.label}, "
            f"ranks={self.free_ranks}, over {self.group.label})"
        )


# ---------------------------------------------------------------------------
# Tensoring complexes of permutation modules down to coinvariants


def coinvariant_relations(m: GModule, k: Subgroup) -> IntMatrix:
    """Relations presenting the coinvariants M_K = Z[G/K] tensor_Z[G] M on
    the lattice of M: the relations of M, then the nonzero columns
    (a_kappa - 1) e_i for each generator kappa of K and basis vector e_i."""
    cols = list(m.relations._cols) if m.relations is not None else []
    for kappa in k.generators():
        for i, acol in enumerate(m.action_matrix(kappa)._cols):
            col = _combine(acol, 1, {i: 1}, -1)
            if col:
                cols.append(col)
    return IntMatrix._from_sparse_columns(cols, m.rank)


def orbit_map_matrix(
    columns: Sequence[Sequence[Tuple[int, int, int]]],
    source: Sequence[Subgroup],
    target: Sequence[Subgroup],
    coeffs,
) -> IntMatrix:
    """An equivariant map between permutation modules, tensored with the
    coefficients (see tensor_orbit_complex).

    ``source[s]`` and ``target[o]`` are the orbit stabilizers.  Source
    orbit s is given by the image of its representative as sparse entries
    (o, g, c): c times g applied to the representative of target orbit o.
    Each entry adds c times the block ``coeffs.orbit_map_rows(source[s],
    target[o], g)`` at block row o, block column s."""
    offsets = [0]
    for stab in target:
        offsets.append(offsets[-1] + coeffs.orbit_value(stab)[0])
    out: List[Dict[int, int]] = []
    for stab, entries in zip(source, columns):
        block = [{} for _ in range(coeffs.orbit_value(stab)[0])]
        for o, g, c in entries:
            roff = offsets[o]
            for a, arow in enumerate(coeffs.orbit_map_rows(stab, target[o], g)):
                for b, v in arow:
                    col = block[b]
                    w = col.get(roff + a, 0) + c * v
                    if w:
                        col[roff + a] = w
                    else:
                        col.pop(roff + a, None)
        out.extend(block)
    return IntMatrix._from_sparse_columns(out, offsets[-1])


def orbit_form_fault(
    stabilizers: Sequence[Sequence[Subgroup]],
    boundaries: Sequence[Sequence[Sequence[Tuple[int, int, int]]]],
) -> Optional[Tuple[int, int, bool]]:
    """The first orbit at which an orbit form (as `tensor_orbit_complex`
    reads it) is not a complex of permutation modules, as (degree n, orbit
    s, squared), or None when it is one.

    The boundary of the representative x_s of orbit s in degree n is the
    sum of c g x_o over its entries (o, g, c), an element of the sum of the
    Z[G/K_o].  It extends to a map of G-modules, g x_s |-> g d(x_s), when
    the stabilizer K_s fixes it (squared is False where it does not).  That
    map squares to zero when, for every s in degree n >= 2, d d x_s, the sum
    of c c2 g g2 x_o2 over (o, g, c) in d x_s and (o2, g2, c2) in d x_o,
    vanishes (squared is True where it does not).  Both are compared with
    the coefficients summed by (o, left coset g K_o), here by the coset's
    index in `coset_space(K_o)`."""
    cosets: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    tables = []
    for stabs in stabilizers:
        level = []
        for k in stabs:
            table = cosets.get(k.elements)
            if table is None:
                table = cosets[k.elements] = coset_space(k).coset_of
            level.append(table)
        tables.append(level)
    # (o, coset index i) is keyed as the integer i * width + o, width the
    # number of orbits of that degree
    for n in range(1, len(stabilizers)):
        below, width = tables[n - 1], len(tables[n - 1])
        if n >= 2:
            down, tables2, width2 = boundaries[n - 2], tables[n - 2], len(tables[n - 2])
        for s, (stab, entries) in enumerate(zip(stabilizers[n], boundaries[n - 1])):
            mult = stab.parent.table
            others = stab.elements[1:]
            # an entry that is an orbit map (k g K_o = g K_o) is fixed as it
            # is; only otherwise are the summed images compared
            if others and not all(
                below[o][mult[k][g]] == below[o][g] for k in others for o, g, _ in entries
            ):

                def image(left):
                    acc: Dict[int, int] = {}
                    for o, g, c in entries:
                        key = below[o][left[g]] * width + o
                        acc[key] = acc.get(key, 0) + c
                    return {key: c for key, c in acc.items() if c}

                fixed = image(mult[0])
                if any(image(mult[k]) != fixed for k in others):
                    return n, s, False
            if n >= 2:
                acc: Dict[int, int] = {}
                for o, g, c in entries:
                    row = mult[g]
                    for o2, g2, c2 in down[o]:
                        key = tables2[o2][row[g2]] * width2 + o2
                        acc[key] = acc.get(key, 0) + c * c2
                if any(acc.values()):
                    return n, s, True
    return None


def tensor_orbit_complex(
    stabilizers: Sequence[Sequence[Subgroup]],
    boundaries: Sequence[Sequence[Sequence[Tuple[int, int, int]]]],
    coeffs,
) -> PresentedComplex:
    """The complex C tensor F of a complex C of permutation modules given in
    orbit form; this is the one place where relhom lays out orbit blocks.

    ``stabilizers[n]`` lists the stabilizer K of each orbit representative
    in degree n, and ``boundaries[n - 1]`` (n >= 1) the boundary of each
    representative in degree n as sparse (orbit, transporter g, coeff)
    entries over degree n - 1, as `orbit_map_matrix` reads them.  The orbit
    form is checked on every call (`orbit_form_fault`): a boundary that its
    stabilizer does not fix, or a boundary squared that is not zero, raises
    ValidationError naming the degree and the orbit.

    The coefficients answer two questions: ``orbit_value(K)``, the value
    at an orbit with stabilizer K as a rank and a relation matrix (or
    None), and ``orbit_map_rows(K, L, g)``, the block of the orbit map
    G/K -> G/L, xK |-> xgL, as rows of (column, value) pairs.  Block
    offsets are running sums of the ranks, and a value with relations
    adds a relation block.  A `GModule` M answers with its coinvariants
    M_K = Z[G/K] tensor_Z[G] M, giving C tensor_Z[G] M.  A permutation
    module Z[X] without relations answers with the free Z[K\\X] on the
    K-orbits of X (Brown, Cohomology of Groups, ch. III), so the result
    has no relation blocks and its cone is the complex itself; any other
    module answers with M_K presented on the lattice of M and with
    a(g^-1) (orbit s at offset s * rank).
    A `bredon.CoefficientSystem` F answers with F(G/K) and F(R_{g^-1}),
    giving C tensor_Or(G) F over the orbit category (Bredon, Equivariant
    cohomology theories, LNM 34, 1967; Lueck, Transformation Groups and
    Algebraic K-Theory, LNM 1408, section 9).

    A result without relation blocks is returned with d d = 0 already
    checked, so its `cone()` multiplies no boundaries.  Tensoring is a
    functor T from orbit maps to matrices (Lueck, LNM 1408, section 9), so
    each tensored boundary squared is T(d d) = T(0) = 0.  On free values
    that holds on the nose: T(x) T(y) = T(xy), and T(x) depends only on
    the coset x K.  That rests on three laws, each checked where it is
    made: the action law of a `GModule` (a(h^-1) a(g^-1) = a((gh)^-1), and
    a relation-free M_K means that K acts trivially); the orbit classes of
    a permutation module (`orbit_map_rows` sends a class to the class of
    g^-1 times its least point, and a fixed boundary makes the sum of its
    blocks independent of that choice); and the functor laws that a
    `bredon.CoefficientSystem` checks when it is built.  Coefficients
    given some other way answer for these laws themselves.  A result with
    relation blocks is checked by its cone, as `PresentedComplex.cone`
    says."""
    fault = orbit_form_fault(stabilizers, boundaries)
    if fault is not None:
        n, s, squared = fault
        if squared:
            raise ValidationError(f"boundary squared is nonzero at degree {n} (orbit {s})")
        raise ValidationError(
            f"boundary of orbit {s} in degree {n} is not fixed by its stabilizer"
        )
    ranks: List[int] = []
    rel_blocks: Dict[int, List[Tuple[int, IntMatrix]]] = {}
    for n, stabs in enumerate(stabilizers):
        blocks: List[Tuple[int, IntMatrix]] = []
        offset = 0
        for stab in stabs:
            rank, rel = coeffs.orbit_value(stab)
            if rel is not None and rel.cols:
                blocks.append((offset, rel))
            offset += rank
        ranks.append(offset)
        if blocks:
            rel_blocks[n] = blocks
    bounds = {
        n: orbit_map_matrix(boundaries[n - 1], stabilizers[n], stabilizers[n - 1], coeffs)
        for n in range(1, len(stabilizers))
    }
    cx = PresentedComplex(0, ranks, bounds, rel_blocks)
    cx._checked = not rel_blocks
    return cx


def tensor_free_resolution(res: FreeResolution, m: GModule) -> PresentedComplex:
    """The complex res tensor_Z[G] M: each free generator is an orbit with
    trivial stabilizer, and the resolution's generator images are already
    the orbit entries `tensor_orbit_complex` reads."""
    if m.group is not res.group:
        raise ValidationError("module over a different group")
    trivial = res.group.trivial_subgroup()
    return tensor_orbit_complex(
        [[trivial] * r for r in res.free_ranks], res.gen_images[1:], m
    )


def tensor_gmodule_complex(
    terms: Sequence[GModule], boundaries: Sequence[IntMatrix], m: GModule
) -> PresentedComplex:
    """Tensor an arbitrary complex of modules with M over the group ring,
    via diagonal coinvariants of the termwise tensor product."""
    G = m.group
    gens = G.generators()
    rm = m.rank
    ranks = []
    rel_blocks: Dict[int, List[Tuple[int, IntMatrix]]] = {}
    for n, c in enumerate(terms):
        if c.group is not G:
            raise ValidationError("complex and module over different groups")
        rc = c.rank
        ranks.append(rc * rm)
        cols: List[Dict[int, int]] = []
        for g in gens:
            bg = m.action_matrix(g)._cols
            for i, ai in enumerate(c.action_matrix(g)._cols):
                for b, bb in enumerate(bg):
                    prod = {x * rm + y: av * bv for x, av in ai.items() for y, bv in bb.items()}
                    cols.append(_combine(prod, 1, {i * rm + b: 1}, -1))
        if m.relations is not None:
            for i in range(rc):
                cols.extend({i * rm + y: v for y, v in r.items()} for r in m.relations._cols)
        if cols:
            rel_blocks[n] = [(0, IntMatrix._from_sparse_columns(cols, rc * rm))]
    bounds: Dict[int, IntMatrix] = {}
    for k, d in enumerate(boundaries, start=1):
        bounds[k] = IntMatrix._from_sparse_columns(
            [{i * rm + b: v for i, v in dcol.items()} for dcol in d._cols for b in range(rm)],
            terms[k - 1].rank * rm,
        )
    return PresentedComplex(0, ranks, bounds, rel_blocks)


def tensor_perm_complex(
    terms: Sequence[GModule], boundaries: Sequence[IntMatrix], m: GModule
) -> PresentedComplex:
    """Tensor a complex of permutation modules with M over the group ring,
    one coinvariant block per basis orbit (see tensor_orbit_complex)."""
    G = m.group
    orbit_data = []
    stabilizers: List[List[Subgroup]] = []
    for c in terms:
        if c.group is not G:
            raise ValidationError("complex and module over different groups")
        if c._perms is None:
            raise ValidationError("tensor_perm_complex needs permutation actions")
        orbit = [-1] * c.rank
        trans = [0] * c.rank
        reps: List[int] = []
        for b in range(c.rank):
            if orbit[b] >= 0:
                continue
            o = len(reps)
            reps.append(b)
            for g in G.elements():
                img = c._perms[g][b]
                if orbit[img] < 0:
                    orbit[img] = o
                    trans[img] = g
        orbit_data.append((orbit, trans, reps))
        stabilizers.append(
            [G.subgroup(g for g in G.elements() if c._perms[g][rep] == rep) for rep in reps]
        )
    rep_boundaries = []
    for k, d in enumerate(boundaries, start=1):
        orbit, trans, _ = orbit_data[k - 1]
        rep_boundaries.append(
            [
                [(orbit[b], trans[b], c) for b, c in d._cols[rep].items()]
                for rep in orbit_data[k][2]
            ]
        )
    return tensor_orbit_complex(stabilizers, rep_boundaries, m)


# ---------------------------------------------------------------------------
# Resolution builders


def _check_budget(what: str, required: int, cap: int):
    if required > cap:
        raise BudgetError(what, required, cap)


def _minimize_generators(group: FiniteGroup, act, vectors: Sequence[Sequence[int]], dim: int):
    """Greedy Z[G]-generator selection: keep a vector only if it is not in
    the lattice spanned by the orbits of the vectors kept so far."""
    acc = LatticeAccumulator(dim)
    kept = []
    for v in vectors:
        if not acc.contains(v):
            kept.append(list(v))
            for g in group.elements():
                acc.insert_dense(act(g, v))
    for v in vectors:
        if not acc.contains(v):
            raise ValidationError("generator minimization lost the spanning property")
    return kept


def resolve(
    m: GModule,
    length: int,
    rank_cap: int = DEFAULT_RANK_CAP,
) -> FreeResolution:
    """Free resolution of a lattice module by iterated kernel covers."""
    if m.relations is not None:
        raise ValidationError("resolve expects a lattice module without relations")
    G = m.group
    basis = [[1 if i == j else 0 for i in range(m.rank)] for j in range(m.rank)]
    gens0 = _minimize_generators(G, m.act, basis, m.rank)
    _check_budget("resolution term 0", G.order * len(gens0), rank_cap)
    res = FreeResolution(G, m, [len(gens0)], [gens0], label=f"resolve({m.label})")
    return _extend_resolution(res, length, rank_cap=rank_cap)


def _extend_resolution(
    res: FreeResolution,
    length: int,
    rank_cap: int = DEFAULT_RANK_CAP,
) -> FreeResolution:
    """`res` continued by kernel covers through term `length`, as `resolve`
    builds it: term k depends on the terms below it only, so continuing a
    prefix of `resolve(m, L)` gives `resolve(m, length)`.  Returns a new
    resolution sharing the materialized matrices; `res` keeps its length."""
    G = res.group
    out = FreeResolution.__new__(FreeResolution)
    out.group, out.module, out.label = G, res.module, res.label
    out.free_ranks = list(res.free_ranks)
    out.gen_images = list(res.gen_images)
    out._matrix_cache = res._matrix_cache
    for k in range(res.length + 1, length + 1):
        prev = out.augmentation_matrix() if k == 1 else out.boundary_matrix(k - 1)
        ker = kernel_basis(prev)
        cols = ker.columns()
        free_prev = GModule.free(G, out.free_ranks[k - 1])
        gens = _minimize_generators(G, free_prev.act, cols, ker.rows)
        _check_budget(f"resolution term {k}", G.order * len(gens), rank_cap)
        out.free_ranks.append(len(gens))
        out.gen_images.append([_orbit_entries(_sparse(v), G.order) for v in gens])
    return out


def _bar_faces(group: FiniteGroup, rest: Tuple[int, ...]):
    """Faces of the homogeneous tuple (e, *rest): yields (rest', translate, sign)."""
    n = len(rest)
    inv = group.inverse
    tab = group.table
    # face 0 deletes the identity entry; renormalize by rest[0]
    g0 = rest[0]
    ig0 = inv[g0]
    yield tuple(tab[ig0][x] for x in rest[1:]), g0, 1
    for i in range(1, n + 1):
        # delete entry i of (e, *rest): drop rest[i-1]
        yield rest[: i - 1] + rest[i:], 0, -1 if i % 2 else 1


def _relative_bar_levels(group: FiniteGroup, h: Subgroup, top: int):
    """Internal: for d = 1, ..., top, the d-tuples t over `group` with an
    entry outside `h`, in `itertools.product` order, and for d >= 2 the
    boundary of each (e, *t) on the (d-1)-tuples as a list of (index,
    translate, coefficient): the faces of `_bar_faces` summed, with zero
    sums and the faces inside one coset (tuples in H, collapsed) left out.
    Yields (tuples, boundaries) for each d, with no boundaries for d = 1.
    `takasu_resolution` and `bredon.takasu_pair_complex` read their cells
    here; each checks its own budget first."""
    hset = h.eset
    tuples: List[Tuple[int, ...]] = []
    for d in range(1, top + 1):
        index = {t: i for i, t in enumerate(tuples)}
        tuples = [
            t
            for t in itertools.product(range(group.order), repeat=d)
            if not all(x in hset for x in t)
        ]
        bounds = []
        if d > 1:
            for t in tuples:
                image: Dict[Tuple[int, int], int] = {}
                for face, translate, sign in _bar_faces(group, t):
                    i = index.get(face)
                    if i is not None:
                        key = (i, translate)
                        image[key] = image.get(key, 0) + sign
                bounds.append([(i, a, c) for (i, a), c in image.items() if c])
        yield tuples, bounds


def cyclic_resolution(group: FiniteGroup, length: int) -> FreeResolution:
    """Periodic rank-one resolution of Z over a cyclic group generated by
    element 1: boundaries alternate t-1 and the norm element."""
    n = group.order
    if group.subgroup_generated([1]).order != n:
        raise ValidationError("cyclic_resolution needs a cyclic group generated by element 1")
    t_minus_1, norm = ((0, 0, -1), (0, 1, 1)), tuple((0, h, 1) for h in range(n))
    images = [[[1]]] + [[t_minus_1 if k % 2 else norm] for k in range(1, length + 1)]
    return FreeResolution(
        group, GModule.trivial(group), [1] * (length + 1), images, label=f"cyclic({group.label})"
    )


def takasu_resolution(
    h: Subgroup, length: int, rank_cap: int = DEFAULT_RANK_CAP
) -> FreeResolution:
    """Resolution of the augmentation kernel of Z[G/H] whose degree-k term
    is the standard (k+2)-tuple term of G modulo the span of single-coset
    tuples (free on the non-coset tuple representatives).  The budget is
    the Z-rank of each term 1..length (term 0 is smaller than term 1)."""
    G = h.parent
    n = G.order
    for k in range(1, length + 1):
        _check_budget(
            f"relative standard resolution term {k} for {G.label} (Z-rank)",
            n * (n ** (k + 1) - h.order ** (k + 1)),
            rank_cap,
        )
    cs = coset_space(h)
    std = standard_modules(h)
    levels = _relative_bar_levels(G, h, length + 1)
    # degree 0: tuples (e, g) with g outside H, mapping onto gH - H
    tuples0, _ = next(levels)
    gen_images: list = [[]]
    for (g,) in tuples0:
        col = [0] * (cs.size - 1)
        col[cs.coset_of[g] - 1] = 1
        gen_images[0].append(col)
    free_ranks = [len(tuples0)]
    for tuples, bounds in levels:
        gen_images.append(bounds)
        free_ranks.append(len(tuples))
    return FreeResolution(
        G, std.i_module, free_ranks, gen_images, label=f"takasu({G.label})"
    )


def induce_resolution(res_h: FreeResolution, h: Subgroup) -> FreeResolution:
    """Induce a resolution of the trivial module over a subgroup up to the
    parent group; the result resolves the permutation module Z[G/H]."""
    G = h.parent
    hgrp, embed = subgroup_as_group(h)
    if res_h.group is not hgrp:
        raise ValidationError("resolution is not over the given subgroup")
    if res_h.module.rank != 1 or not res_h.module.is_constant():
        raise ValidationError("induction is implemented for the trivial module")
    std = standard_modules(h)
    # augmentation: generator j maps to a_j * (identity coset)
    images = [[[v[0]] + [0] * (std.perm.rank - 1) for v in res_h.gen_images[0]]] + [
        [[(i, embed[h], c) for i, h, c in image] for image in level]
        for level in res_h.gen_images[1:]
    ]
    return FreeResolution(G, std.perm, res_h.free_ranks, images, label=f"ind({res_h.label})")


# ---------------------------------------------------------------------------
# Chain lifts


def _sparse(vec: Sequence[int]) -> Dict[int, int]:
    return {i: v for i, v in enumerate(vec) if v}


def _dense(vec: Dict[int, int], size: int) -> List[int]:
    return [vec.get(i, 0) for i in range(size)]


def _orbit_entries(vec: Dict[int, int], order: int, sign: int = 1) -> tuple:
    """A sparse vector of a free module, on the basis (i, h) -> i*|G| + h,
    times `sign`, as sorted orbit entries (i, h, c) (see `FreeResolution`)."""
    return tuple((*divmod(idx, order), sign * c) for idx, c in sorted(vec.items()))


def _free_apply(group: FiniteGroup, images, vec):
    """The equivariant map of free modules that sends generator i to the
    orbit entries images[i], applied to the sparse `vec` (both on the basis
    (i, h) -> i*|G| + h): g e_i goes to g images[i], moving (k, h) to
    (k, g h)."""
    order, table = group.order, group.table
    out: dict = {}
    for idx, c in vec.items():
        i, g = divmod(idx, order)
        row = table[g]
        for k, h, v in images[i]:
            key = k * order + row[h]
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


class _ResolutionTarget:
    """A free resolution as a lift target (see `_chain_lift`), with
    `bottom` as its degree-0 boundary.  Vectors are dicts on the basis
    (i, h) -> i*|G| + h, which G moves by (i, h) -> (i, g h).  Boundaries
    are applied through the generators' images; preimages come from one
    IntSolver per degree, built when first asked for."""

    def __init__(self, res: FreeResolution, bottom: IntMatrix):
        self.res = res
        self.bottom = bottom
        self._solvers: Dict[int, IntSolver] = {}

    def act(self, n: int, g: int, vec):
        order = self.res.group.order
        row = self.res.group.table[g]
        out = {}
        for idx, v in vec.items():
            i, h = divmod(idx, order)
            out[i * order + row[h]] = v
        return out

    def boundary(self, n: int, vec):
        if n == 0:
            return _sparse_apply(self.bottom._cols, vec)
        return _free_apply(self.res.group, self.res.gen_images[n], vec)

    def preimage(self, n: int, rhs):
        solver = self._solvers.get(n)
        if solver is None:
            if n == 0:
                mat = self.bottom
            else:
                # a boundary the resolution has not cached (its top one) is
                # factored without caching it; the solver keeps no matrix
                mat = self.res._matrix_cache.get(n) or self.res._build_boundary(n)
            solver = self._solvers[n] = IntSolver(mat)
        sol = solver.solve(_dense(rhs, solver.m))
        return None if sol is None else _sparse(sol)


def _lift_image(images, target, comps, n: int, j: int):
    """What generator j of P_n must map onto: its degree-0 image as given
    for n = 0, else phi_{n-1}(d e_j) from the components lifted so far."""
    image = images[n][j]
    if n == 0:
        return _sparse(image)
    prev = comps[n - 1]
    out: dict = {}
    for i, g, c in image:
        for key, v in target.act(n - 1, g, prev[i]).items():
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


def _chain_lift(images, target, length: int) -> list:
    """The one chain-lift loop: lift a complex P of free modules, given by
    its generators' images in the layout of `FreeResolution.gen_images`
    (degree-0 vectors, then orbit entries), along an exact target complex
    augmented to the module that P's degree-0 images lie in, in degrees
    0..length-1.
    phi_n(e) is target.preimage of phi_{n-1}(d e); the target supplies the
    preimage step (a contracting homotopy or a solver), its boundary and
    its G-action on sparse vectors.  Each column is checked
    (d phi_n(e) == phi_{n-1}(d e)) as it is made, which holds exactly when
    the right-hand side is a cycle, and a failure raises ValidationError
    naming the stage."""
    comps: list = []
    for n in range(length):
        level: list = []
        comps.append(level)
        for j in range(len(images[n])):
            rhs = _lift_image(images, target, comps, n, j)
            x = target.preimage(n, rhs)
            if x is None or target.boundary(n, x) != rhs:
                raise ValidationError(f"no integral lift at stage {n}")
            level.append(x)
    return comps


class HorseshoeData:
    """Resolution of Z[G/H] assembled from resolutions of the augmentation
    kernel and of Z, together with the connecting components.

    ``h_gen_images[k - 1][j]`` (k >= 1) is h_k of Z-side generator j of
    degree k, in F^I_{k-1}, as orbit entries (see `FreeResolution`)."""

    __slots__ = ("middle", "res_i", "res_z", "h_gen_images")

    def __init__(
        self,
        middle: FreeResolution,
        res_i: FreeResolution,
        res_z: FreeResolution,
        h_gen_images: List[List[tuple]],
    ):
        self.middle = middle
        self.res_i = res_i
        self.res_z = res_z
        self.h_gen_images = h_gen_images


class _HorseshoeTarget(_ResolutionTarget):
    """The horseshoe's middle resolution as a lift target whose preimages
    come by back-substitution through its two halves, so that no boundary
    of the middle is eliminated (the horseshoe lemma's own preimage step;
    Brown, Cohomology of Groups, I.8).

    A degree-(n-1) right-hand side (a, b), n >= 1, splits into its I-part
    a and its Z-part b.  x_z is a preimage of b in res_z, and
    a' = a - h_n(x_z) is a cycle, by d h_n = -h_(n-1) d (for n = 1, by
    iota alpha h_1 = -sigma d); x_i is its preimage in res_i.  In degree
    0, x_z covers the augmentation of y in Z, and x_i covers
    y - sigma(x_z), which lies in I, through iota alpha.  A failed step
    raises ValidationError naming its half and stage."""

    def __init__(self, middle: FreeResolution, i_side, z_side, sigma, h_entries):
        super().__init__(middle, middle.augmentation_matrix())
        self.i_side = i_side
        self.z_side = z_side
        self.sigma = sigma
        self.h_entries = h_entries

    def preimage(self, n: int, rhs):
        order = self.res.group.order
        i_ranks = self.i_side.res.free_ranks
        if n == 0:
            total = sum(rhs.values())
            x_z = _side_preimage(self.z_side, "Z", 0, {0: total} if total else {})
            correction = self.sigma(x_z)
            a = dict(rhs)
        else:
            cut = order * i_ranks[n - 1]
            a = {k: v for k, v in rhs.items() if k < cut}
            b = {k - cut: v for k, v in rhs.items() if k >= cut}
            x_z = _side_preimage(self.z_side, "Z", n, b)
            correction = _free_apply(self.res.group, self.h_entries[n - 1], x_z)
        for k, v in correction.items():
            a[k] = a.get(k, 0) - v
        x = _side_preimage(self.i_side, "I", n, {k: v for k, v in a.items() if v})
        cut = order * i_ranks[n]
        x.update((cut + k, v) for k, v in x_z.items())
        return x


def _side_preimage(side: _ResolutionTarget, name: str, n: int, rhs):
    x = side.preimage(n, rhs)
    if x is None:
        raise ValidationError(
            f"horseshoe back-substitution: no {name}-side preimage at stage {n}"
        )
    return x


class _HorseshoeMiddle(FreeResolution):
    """The horseshoe's resolution of Z[G/H], F^I_k + F^Z_k in degree k with
    the I-side generators first; it lifts along `_HorseshoeTarget`.  The
    first lift target takes over the solvers on res_i that the horseshoe's
    own lift built, so they live no longer than that lift; a later target
    builds its own."""

    def __init__(self, group, module, free_ranks, gen_images, i_side, res_z, sigma, h_entries):
        super().__init__(group, module, free_ranks, gen_images, label="horseshoe")
        self._i_side = i_side
        self._res_z = res_z
        self._sigma = sigma
        self._h_entries = h_entries

    def lift_target(self) -> _HorseshoeTarget:
        i_side = self._i_side
        self._i_side = _ResolutionTarget(i_side.res, i_side.bottom)
        return _HorseshoeTarget(
            self, i_side, self._res_z.lift_target(), self._sigma, self._h_entries
        )


def horseshoe(res_i: FreeResolution, res_z: FreeResolution, std: StandardModules) -> HorseshoeData:
    """Combine resolutions of I and Z into a resolution of Z[G/H] for the
    short exact sequence 0 -> I -> Z[G/H] -> Z -> 0.

    The connecting components h_k: F^Z_k -> F^I_{k-1} (k >= 1) satisfy
    iota alpha h_1 = -sigma d and d h_k = -h_{k-1} d, where sigma lifts the
    augmentation of Z through Z[G/H].  They come from the chain lift phi of
    res_z shifted down one degree, whose degree-0 images are sigma(d e),
    along res_i with iota alpha as its degree-0 boundary:
    h_k = (-1)^k phi_{k-1}.  A failure names the stage of phi.  The middle
    resolution keeps that lift's solvers on res_i for its own preimage
    step (`_HorseshoeTarget`).

    The middle holds the I-side generators first, with their res_i
    images.  A Z-side image of degree k >= 1 is its h_k entries followed
    by its res_z entries, shifted past the I-side generators of degree
    k - 1.  All of these are orbit entries (see `FreeResolution`)."""
    G = res_i.group
    n = G.order
    length = min(res_i.length, res_z.length)
    perm = std.perm
    cs = coset_space(std.subgroup)
    emb = std.embedding.matrix
    # sigma: F^Z_0 generator j |-> beta_j * (identity coset) lifts the
    # augmentation of Z through Z[G/H] -> Z
    betas = [v[0] for v in res_z.gen_images[0]]

    def sigma(vec):
        out: dict = {}
        for idx, c in vec.items():
            j, g = divmod(idx, n)
            key = cs.act(g, 0)
            out[key] = out.get(key, 0) + c * betas[j]
        return {key: v for key, v in out.items() if v}

    # iota . alpha : F^I_0 -> Z[G/H]
    ia_bases = [emb.apply(v) for v in res_i.gen_images[0]]
    ia_matrix = IntMatrix.from_columns(
        [perm.act(g, base) for base in ia_bases for g in range(n)], rows=perm.rank
    )

    # res_z shifted down one degree, with sigma(d e) as its degree-0 images
    shifted = [
        [_dense(sigma({i * n + h: c for i, h, c in v}), perm.rank) for v in res_z.gen_images[1]]
    ] + res_z.gen_images[2 : length + 1]
    i_side = _ResolutionTarget(res_i, ia_matrix)
    try:
        phi = _chain_lift(shifted, i_side, length)
    except ValidationError as exc:
        raise ValidationError(
            f"horseshoe connecting map (h_k = (-1)^k phi_(k-1)): {exc}"
        ) from None
    # h_{k+1} = -phi_k for even k, +phi_k for odd k
    h_gen_images = [
        [_orbit_entries(x, n, 1 if k % 2 else -1) for x in level] for k, level in enumerate(phi)
    ]

    # assemble the middle resolution
    mid_ranks = [res_i.free_ranks[k] + res_z.free_ranks[k] for k in range(length + 1)]
    mid_gens = [ia_bases + [[beta] + [0] * (perm.rank - 1) for beta in betas]]
    for k in range(1, length + 1):
        off = res_i.free_ranks[k - 1]
        mid_gens.append(
            res_i.gen_images[k]
            + [
                hk + tuple((off + i, h, c) for i, h, c in z)
                for hk, z in zip(h_gen_images[k - 1], res_z.gen_images[k])
            ]
        )
    middle = _HorseshoeMiddle(G, perm, mid_ranks, mid_gens, i_side, res_z, sigma, h_gen_images)
    return HorseshoeData(middle, res_i, res_z, h_gen_images)


def lift_over_resolution(
    src: FreeResolution, tgt: FreeResolution, bottom: IntMatrix
) -> List[List[tuple]]:
    """Generator images of a chain map src -> tgt lifting `bottom` between
    the resolved modules; requires tgt to be exact (a resolution).
    ``[k][j]`` is the image of generator j of src's degree-k term in tgt's,
    as orbit entries (i, h, c) (see `FreeResolution`).  It is the chain
    lift of src, with its degree-0 images pushed through `bottom`, along
    tgt's own preimage step (`FreeResolution.lift_target`)."""
    if src.group is not tgt.group:
        raise ValidationError("resolutions over different groups")
    length = min(src.length, tgt.length)
    pushed = [[bottom.apply(v) for v in src.gen_images[0]]] + src.gen_images[1 : length + 1]
    lift = _chain_lift(pushed, tgt.lift_target(), length + 1)
    return [[_orbit_entries(x, src.group.order) for x in level] for level in lift]


# ---------------------------------------------------------------------------
# Tor and coinvariants


def cached_resolution(m: GModule, length: int, rank_cap: int = DEFAULT_RANK_CAP) -> FreeResolution:
    """`resolve(m, length)`, cached in the group's memo by the module's
    value (`value_key`), so equal modules built apart share one entry.  The
    entry is the longest resolution built so far, and a call gets exactly
    `length` terms of it (`FreeResolution.truncated`): `resolve` builds
    term k from the terms below it only, so that prefix equals a cold
    `resolve(m, length)`.  A shorter entry is extended from its last term,
    not rebuilt; views handed out before keep their length.  Every term
    through `length`, cached or new, is held to the budget `resolve`
    applies."""
    memo, key = m.group.memo, ("cached_resolution", m.value_key())
    res = memo.get(key)
    if res is None:
        res = memo[key] = resolve(m, length, rank_cap=rank_cap)
    else:
        for k in range(min(res.length, length) + 1):
            _check_budget(f"resolution term {k}", res.z_rank(k), rank_cap)
        if res.length < length:
            res = memo[key] = _extend_resolution(res, length, rank_cap=rank_cap)
    return res.truncated(length)


def tor(
    a: GModule,
    m: GModule,
    degree: int,
    resolution: Optional[FreeResolution] = None,
    rank_cap: int = DEFAULT_RANK_CAP,
) -> FgAbGroup:
    """Tor_degree(A, M) over the group ring, via a free resolution of A."""
    _check_int(degree, "degree")
    _check_int(rank_cap, "rank_cap")
    if resolution is None:
        resolution = cached_resolution(a, degree + 1, rank_cap)
    if resolution.length < degree + 1:
        raise ValidationError("resolution too short for the requested degree")
    complex_ = resolution.tensor(m)
    return complex_.homology(degree)


def group_homology(group: FiniteGroup, m: GModule, degree: int, rank_cap: int = DEFAULT_RANK_CAP) -> FgAbGroup:
    """H_degree(G; M) via a free resolution of the trivial module."""
    return tor(GModule.trivial(group), m, degree, rank_cap=rank_cap)


@memoized
def quotient_group(n_sub: Subgroup) -> Tuple[FiniteGroup, Tuple[int, ...]]:
    """The quotient group G/N of a normal subgroup, with the projection map
    (element -> coset index); the identity coset has index 0."""
    if not n_sub.is_normal():
        raise ValidationError("quotient by a non-normal subgroup")
    G = n_sub.parent
    cs = coset_space(n_sub)
    table = [
        [cs.coset_of[G.mult(cs.rep(a), cs.rep(b))] for b in range(cs.size)]
        for a in range(cs.size)
    ]
    q = FiniteGroup(table, label=f"{G.label}/N")
    return q, cs.coset_of


class Coinvariants:
    """N-coinvariants of a module, as a module over G/N.

    `module` is the finitely presented quotient (free cover of the original
    rank plus relations); `group` reports the abelian group it presents.
    """

    __slots__ = ("quotient", "projection", "module", "group")

    def __init__(
        self,
        quotient: FiniteGroup,
        projection: Tuple[int, ...],
        module: GModule,
        group: FgAbGroup,
    ):
        self.quotient = quotient
        self.projection = projection
        self.module = module
        self.group = group


def coinvariants(m: GModule, n_sub: Subgroup) -> Coinvariants:
    if m.relations is not None:
        raise ValidationError("coinvariants of a presented module is not supported")
    if n_sub.parent is not m.group:
        raise ValidationError("subgroup of a different group")
    q, proj = quotient_group(n_sub)
    cs = coset_space(n_sub)
    base_rel = coinvariant_relations(m, n_sub)
    mats = [m.action_matrix(cs.rep(c)) for c in range(q.order)]
    presented = GModule(
        q, m.rank, mats=mats, relations=base_rel, label=f"({m.label})_N",
    )
    group = FgAbGroup.from_invariants(smith_invariants(base_rel), m.rank)
    return Coinvariants(q, proj, presented, group)
