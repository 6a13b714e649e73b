"""Reference data and dense routes that only the tests use.

- `full_boundary` and `term_module`: the coset-tuple complex of an
  `AdamsonComplex` as dense tuple-level matrices and permutation modules,
  the input of the termwise oracle `tensor_gmodule_complex`;
- the hard-coded comparison lift for the pair of cyclic groups of orders 4
  and 2 (`reference_lift_c4c2`), with the solver-driven lift of the same
  map and their induced maps;
- `SolverTarget`, a lift target that takes preimages from an IntSolver on
  dense boundary matrices, and `solver_lift_over_resolution`, the lift
  between resolutions along it: the reference for the preimage steps that
  `comparison` and the horseshoe resolution make without eliminating;
- `takasu_reference`: the Tor-based relative homology through the relative
  standard resolution, the reference for `takasu_homology`;
- `DenseSolver`, the solver that eliminates the whole matrix densely with
  both transforms: the reference for `IntSolver`, which splits off its
  unit pivots sparsely first;
- `DenseHomologyData`, homology with coordinates read from the dense engine
  in every degree: the reference for `HomologyData`, which reads its group
  from the sparse unit-pivot front and runs the dense engine only when the
  group is nonzero;
- `CopyingLatticeAccumulator`, the lattice kernel as it was before
  reduction ran in place: the reference for identical lattice bases;
- `bar_resolution`, `cellular_chain_modules`, `lift_is_chain_map_check`
  (through `is_chain_lift`) and `validate_acyclic`: routes and checks that
  nothing in the library calls, kept as references for the tests;
- `PresentedCoefficients`, a module's coinvariants presented on its whole
  lattice with a(g^-1) on every orbit map: the reference for the free
  orbit-class values of permutation modules.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from relhom import pairhom
from relhom.bredon import GCWData
from relhom.errors import TruncationError, ValidationError
from relhom.exactla import (
    FgAbGroup,
    IntMatrix,
    IntSolver,
    LatticeAccumulator,
    PresentedChainMap,
    _combine,
    _Eliminator,
    column_image_basis,
    induced_map,
    xgcd,
)
from relhom.groups import FiniteGroup, Subgroup, coset_space, cyclic_group
from relhom.modres import (
    DEFAULT_RANK_CAP,
    FreeResolution,
    GModule,
    _bar_faces,
    _chain_lift,
    _check_budget,
    _dense,
    _lift_image,
    _orbit_entries,
    _sparse,
    coinvariant_relations,
    standard_modules,
    takasu_resolution,
    tensor_gmodule_complex,
)

# ---------------------------------------------------------------------------
# The coset-tuple complex, densely

# per complex, degree -> matrix or module; an entry lives as long as its complex
_full_cache = WeakKeyDictionary()
_term_cache = WeakKeyDictionary()


def full_boundary(cx: pairhom.AdamsonComplex, n: int) -> IntMatrix:
    """Tuple-level boundary matrix C_n -> C_{n-1} (1 <= n <= truncation).
    A face outside the complex's index is a degenerate tuple, which is zero
    in the normalized complex; the full complex indexes every face."""
    if not (1 <= n <= cx.truncation):
        raise TruncationError(
            f"degree {n} boundary needs truncation >= {n}; increase N"
        )
    cache = _full_cache.setdefault(cx, {})
    if n not in cache:
        prev_index = cx.tuple_index[n - 1]
        rows = len(cx.tuples[n - 1])
        cols = []
        for t in cx.tuples[n]:
            col = [0] * rows
            for i in range(n + 1):
                fi = prev_index.get(t[:i] + t[i + 1 :])
                if fi is not None:
                    col[fi] += 1 if i % 2 == 0 else -1
            cols.append(col)
        cache[n] = IntMatrix.from_columns(cols, rows=rows)
    return cache[n]


def term_module(cx: pairhom.AdamsonComplex, n: int) -> GModule:
    """Degree-n term as a permutation module on the tuples."""
    cache = _term_cache.setdefault(cx, {})
    if n not in cache:
        cs = cx.cosets
        index = cx.tuple_index[n]
        perms = []
        for g in cx.group.elements():
            perms.append(
                tuple(index[tuple(cs.act(g, c) for c in t)] for t in cx.tuples[n])
            )
        cache[n] = GModule(cx.group, len(cx.tuples[n]), perms=perms)
    return cache[n]


# ---------------------------------------------------------------------------
# Lifts along solvers on dense boundary matrices


class SolverTarget:
    """An exact complex of permutation modules given by matrices, as a lift
    target: terms(n) is the degree-n module and boundaries(n) its boundary
    onto degree n - 1, or for n = 0 onto the module the lift covers.
    Preimages come from one IntSolver per degree; vectors are dicts on
    basis indices, moved by G through the terms' index permutations."""

    def __init__(self, terms, boundaries):
        self.terms = terms
        self.boundaries = boundaries
        self._solvers: Dict[int, IntSolver] = {}

    def act(self, n: int, g: int, vec):
        perm = self.terms(n)._perms[g]
        return {perm[i]: v for i, v in vec.items()}

    def boundary(self, n: int, vec):
        mat = self.boundaries(n)
        return _sparse(mat.apply(_dense(vec, mat.cols)))

    def preimage(self, n: int, rhs):
        if n not in self._solvers:
            self._solvers[n] = IntSolver(self.boundaries(n))
        solver = self._solvers[n]
        sol = solver.solve(_dense(rhs, solver.m))
        return None if sol is None else _sparse(sol)


def solver_resolution_target(res: FreeResolution, bottom: IntMatrix) -> SolverTarget:
    """A free resolution as a lift target with `bottom` as its degree-0
    boundary, preimages from an IntSolver on each boundary matrix; G moves
    the basis (i, h) -> i*|G| + h by (i, h) -> (i, g h)."""
    free = [GModule.free(res.group, r) for r in res.free_ranks]
    return SolverTarget(free.__getitem__, lambda n: res.boundary_matrix(n) if n else bottom)


def solver_lift_over_resolution(
    src: FreeResolution, tgt: FreeResolution, bottom: IntMatrix
) -> List[List[tuple]]:
    """`modres.lift_over_resolution` along `SolverTarget`: an IntSolver on
    each of tgt's cached boundary matrices (`boundary_matrix`, which also
    caches the top one) and its augmentation, with G moving vectors
    through the index permutations of `GModule.free` terms."""
    length = min(src.length, tgt.length)
    pushed = [[bottom.apply(v) for v in src.gen_images[0]]] + src.gen_images[1 : length + 1]
    target = solver_resolution_target(tgt, tgt.augmentation_matrix())
    lift = _chain_lift(pushed, target, length + 1)
    return [[_orbit_entries(x, src.group.order) for x in level] for level in lift]


# ---------------------------------------------------------------------------
# The hard-coded reference data for the order-4 / order-2 cyclic pair


@dataclass
class ReferenceLift:
    resolution: FreeResolution
    target_terms: List[GModule]
    target_boundaries: List[IntMatrix]
    bottom_boundary: IntMatrix
    lift: List[List[List[int]]]

    def tensored_values(self) -> List[int]:
        """The integers obtained by applying each lift component to the
        generator and passing to coinvariants with trivial coefficients."""
        out = []
        for level in self.lift:
            out.append(sum(level[0]))
        return out


def reference_lift_c4c2(length: int = 5) -> ReferenceLift:
    """The explicitly computed comparison lift for the pair of cyclic groups
    of orders 4 and 2: the source is the rank-one periodic resolution of the
    augmentation kernel, the target the periodic complex of copies of the
    coset module, and the lift sends the generator to +-2^i times the base
    coset."""
    g4 = _c4_cache()
    h = g4.subgroup_generated([2])
    std = standard_modules(h)
    n = g4.order
    # source: rank-one free modules; d_odd = mult by -(1+t),
    # d_even = mult by 1 - t + t^2 - t^3; augmentation b |-> tH - H
    odd = [(0, 0, -1), (0, 1, -1)]
    even = [(0, h, (-1) ** h) for h in range(n)]
    gen_images = [[[1]]] + [[odd if k % 2 else even] for k in range(1, length + 1)]
    p_ref = FreeResolution(
        g4, std.i_module, [1] * (length + 1), gen_images, label="reference"
    )
    # target: W_n = Z[G/H] with boundaries alternating (t-1)H and (1+t)H,
    # starting with (t-1)H corestricted to the augmentation kernel
    cs = coset_space(h)
    perm = std.perm
    k_sz = cs.size
    t_minus = IntMatrix.from_columns(
        [
            [
                (1 if r == cs.act(1, c) else 0) - (1 if r == c else 0)
                for r in range(k_sz)
            ]
            for c in range(k_sz)
        ],
        rows=k_sz,
    )
    norm = IntMatrix.from_columns(
        [
            [
                (1 if r == cs.act(1, c) else 0) + (1 if r == c else 0)
                for r in range(k_sz)
            ]
            for c in range(k_sz)
        ],
        rows=k_sz,
    )
    bottom_cols = []
    for c in range(k_sz):
        tc = cs.act(1, c)
        col = [0] * (k_sz - 1)
        if tc:
            col[tc - 1] += 1
        if c:
            col[c - 1] -= 1
        bottom_cols.append(col)
    bottom = IntMatrix.from_columns(bottom_cols, rows=k_sz - 1)
    terms = [perm for _ in range(length + 1)]
    bounds = [None] + [norm if k % 2 else t_minus for k in range(1, length + 1)]
    lift: List[List[List[int]]] = []
    for j in range(length + 1):
        i, r = divmod(j, 2)
        val = (2 ** i) * (1 if r == 0 else -1)
        col = [0] * k_sz
        col[0] = val
        lift.append([col])
    return ReferenceLift(p_ref, terms, bounds, bottom, lift)


@lru_cache(maxsize=None)
def _c4_cache() -> FiniteGroup:
    return cyclic_group(4)


def _reference_target(ref: ReferenceLift) -> SolverTarget:
    return SolverTarget(
        lambda n: ref.target_terms[n],
        lambda n: ref.target_boundaries[n] if n else ref.bottom_boundary,
    )


def solver_lift_for_reference(ref: ReferenceLift) -> List[List[List[int]]]:
    """Run the generic chain-lift loop on the reference source/target, with
    an IntSolver for each preimage (the periodic target has no contracting
    homotopy to lift along).  The loop is looked up on `pairhom` at call
    time, so a test that replaces it there sees this lift too."""
    lift = pairhom._lift_along_exact_target(
        ref.resolution.gen_images, _reference_target(ref), len(ref.lift)
    )
    return [
        [_dense(x, ref.target_terms[n].rank) for x in level]
        for n, level in enumerate(lift)
    ]


def reference_induced_maps(
    ref: ReferenceLift, lift_cols: List[List[List[int]]], top: int
) -> Dict[int, IntMatrix]:
    """Induced homology maps of a lift on the reference pair of complexes,
    tensored with the trivial module, indexed by chain degree."""
    g4 = ref.resolution.group
    triv = GModule.trivial(g4)
    sp = ref.resolution.tensor(triv)
    tw = tensor_gmodule_complex(
        ref.target_terms,
        [ref.target_boundaries[k] for k in range(1, len(ref.target_terms))],
        triv,
    )
    comps = {
        n: IntMatrix.from_columns(
            [list(col) for col in lift_cols[n]], rows=ref.target_terms[n].rank
        )
        for n in range(len(lift_cols))
    }
    pcm = PresentedChainMap(sp, tw, comps)
    return {n: induced_map(pcm, n) for n in range(top + 1)}


def reference_lift_is_chain_map(ref: ReferenceLift) -> bool:
    """Verify that the hard-coded reference lift commutes with the boundaries."""
    comps = [[_sparse(col) for col in level] for level in ref.lift]
    return is_chain_lift(ref.resolution, _reference_target(ref), comps)


# ---------------------------------------------------------------------------
# The Tor-based relative homology through the relative standard resolution


def takasu_reference(
    h: Subgroup, m: GModule, degree: int, rank_cap: int = DEFAULT_RANK_CAP
) -> FgAbGroup:
    """`takasu_homology(h, m, degree)` for degree >= 1, read from
    `takasu_resolution` (tuples of G modulo single-coset tuples) instead of
    a minimized resolution of the augmentation kernel."""
    return takasu_resolution(h, degree, rank_cap).tensor(m).homology(degree - 1)


# ---------------------------------------------------------------------------
# The dense solver


class DenseSolver:
    """Repeated exact solving of a*x == b by one dense elimination of the
    whole matrix, D = R a C, tracking R and C: y solves D y == R b, and
    x = C y.  The API of `IntSolver`: m, n, rank and solve, with None when
    there is no integral solution."""

    def __init__(self, a: IntMatrix):
        eng = _Eliminator(a, track_r=True, track_c=True)
        eng.diagonalize()
        self.m, self.n = a.rows, a.cols
        self.rank = eng.rank
        self.diag = eng.diag()
        self._r = eng.r
        self._c = eng.c

    def solve(self, b: Sequence[int]) -> Optional[List[int]]:
        if len(b) != self.m:
            raise ValidationError("right-hand side length mismatch")
        y = []
        for i in range(self.rank):
            s = 0
            for a, x in zip(self._r[i], b):
                if a and x:
                    s += a * x
            d = self.diag[i]
            if s % d:
                return None
            y.append(s // d)
        for i in range(self.rank, self.m):
            s = 0
            for a, x in zip(self._r[i], b):
                if a and x:
                    s += a * x
            if s:
                return None
        out = [0] * self.n
        for j, yj in enumerate(y):
            if yj:
                for i in range(self.n):
                    v = self._c[i][j]
                    if v:
                        out[i] += v * yj
        return out


# ---------------------------------------------------------------------------
# Dense homology with coordinates


class DenseHomologyData:
    """`HomologyData` with every degree, the zero group included, read
    from the dense engine: the boundary image reduced to a lattice basis,
    d_n diagonalized with both column transforms while the image is carried
    along as a mirror, and the image's rows below the rank of d_n
    diagonalized with both row transforms.  The API of `HomologyData`:
    group, degree_rank, generator_cycles and coords_of_cycle."""

    def __init__(self, dn: IntMatrix, dnp1: IntMatrix):
        if dn.cols != dnp1.rows:
            raise ValidationError("boundary shapes are not composable")
        chain_rank = dn.cols
        b = dnp1
        if b.cols > b.rows:
            b = column_image_basis(b)
        mirror = b.to_rows() if b.cols else [[] for _ in range(chain_rank)]
        eng1 = _Eliminator(dn, track_c=True, track_cinv=True, mirror=mirror)
        eng1.diagonalize()
        r = eng1.rank
        z = chain_rank - r
        for i in range(r):
            if any(mirror[i]):
                raise ValidationError("boundaries do not compose to zero")
        bpp = IntMatrix(mirror[r:], cols=b.cols) if z else IntMatrix.zeros(0, b.cols)
        eng2 = _Eliminator(bpp, track_r=True, track_rinv=True)
        eng2.diagonalize()
        eng2.make_divisible()
        d = eng2.diag()
        r2 = eng2.rank
        surviving = [i for i in range(r2) if d[i] > 1] + list(range(r2, z))
        self.degree_rank = chain_rank
        self._r = r
        self._z = z
        self._cinv = eng1.cinv
        self._kernel_cols = [
            [eng1.c[i][r + j] for i in range(chain_rank)] for j in range(z)
        ]
        self._r2 = eng2.r
        self._r2inv = eng2.rinv
        self._orders = [d[i] if i < r2 else 0 for i in surviving]
        self._surviving = surviving
        self.group = FgAbGroup(z - r2, [d[i] for i in range(r2) if d[i] > 1])

    def generator_cycles(self) -> List[List[int]]:
        out = []
        for idx in self._surviving:
            vec = [0] * self.degree_rank
            for j in range(self._z):
                u = self._r2inv[j][idx]
                if u:
                    col = self._kernel_cols[j]
                    for i in range(self.degree_rank):
                        if col[i]:
                            vec[i] += u * col[i]
            out.append(vec)
        return out

    def coords_of_cycle(self, vec: Sequence[int]) -> List[int]:
        if len(vec) != self.degree_rank:
            raise ValidationError("cycle vector length mismatch")
        y = [sum(a * x for a, x in zip(row, vec)) for row in self._cinv]
        if any(y[: self._r]):
            raise ValidationError("vector is not a cycle")
        ker = y[self._r:]
        out = []
        for pos, idx in enumerate(self._surviving):
            s = sum(a * x for a, x in zip(self._r2[idx], ker))
            order = self._orders[pos]
            out.append(s % order if order else s)
        return out


# ---------------------------------------------------------------------------
# The lattice kernel as it was before in-place reduction


class CopyingLatticeAccumulator(LatticeAccumulator):
    """`LatticeAccumulator` with `insert` and `remainder` as they were
    before reduction ran in place: every reduction step builds a new dict
    through `_combine`.  The reference for the in-place kernels, which must
    give the same bases, remainders and dict orders."""

    def insert(self, vec: Dict[int, int]) -> bool:
        v = {k: x for k, x in vec.items() if x}
        grew = False
        while v:
            r = min(v)
            piv = self.pivots.get(r)
            if piv is None:
                self.pivots[r] = v
                return True
            p = piv[r]
            c = v[r]
            if c % p == 0:
                v = _combine(v, 1, piv, -(c // p))
            else:
                g, x, y = xgcd(p, c)
                newpiv = _combine(piv, x, v, y)
                v = _combine(v, p // g, piv, -(c // g))
                self.pivots[r] = newpiv
                grew = True
        return grew

    def remainder(self, vec: Dict[int, int]) -> Dict[int, int]:
        v = vec
        while v:
            r = min(v)
            piv = self.pivots.get(r)
            if piv is None or v[r] % piv[r]:
                break
            v = _combine(v, 1, piv, -(v[r] // piv[r]))
        return v


# ---------------------------------------------------------------------------
# Routes that only the tests read: the bar resolution, the cellular chain
# modules of G-CW data, and the checks of a stored lift and of the
# coset-tuple complex's cone homotopy


def bar_resolution(
    group: FiniteGroup, length: int, rank_cap: int = DEFAULT_RANK_CAP
) -> FreeResolution:
    """Homogeneous standard resolution of the trivial module: degree k is
    free on the (k+1)-tuples with first entry the identity, with the
    alternating face-deletion boundary."""
    n = group.order
    triv = GModule.trivial(group)
    gen_images: list = [[[1]]]
    free_ranks = [1]
    prev_index: Dict[Tuple[int, ...], int] = {(): 0}
    for k in range(1, length + 1):
        _check_budget(
            f"standard resolution term {k} of {group.label} (Z-rank |G|^{k + 1})",
            n ** (k + 1),
            rank_cap,
        )
        tuples = list(itertools.product(range(n), repeat=k))
        level = []
        for rest in tuples:
            image: Dict[Tuple[int, int], int] = {}
            for rest2, translate, sign in _bar_faces(group, rest):
                key = (prev_index[rest2], translate)
                image[key] = image.get(key, 0) + sign
            level.append([(i, h, c) for (i, h), c in image.items() if c])
        gen_images.append(level)
        free_ranks.append(len(tuples))
        prev_index = {t: i for i, t in enumerate(tuples)}
    return FreeResolution(
        group, triv, free_ranks, gen_images, label=f"bar({group.label})"
    )


def cellular_chain_modules(x: GCWData) -> Tuple[List[GModule], List[IntMatrix]]:
    """The ordinary cellular chain complex of the cell data, as permutation
    modules (one coset block per orbit cell) with equivariant boundaries."""
    G = x.group
    terms: List[GModule] = []
    bases: List[List[Tuple[int, int]]] = []  # (cell index, coset index)
    index_maps: List[Dict[Tuple[int, int], int]] = []
    coset_spaces = []
    for d, dim_cells in enumerate(x.cells):
        spaces = [coset_space(cell.stabilizer) for cell in dim_cells]
        coset_spaces.append(spaces)
        basis = [
            (ci, c)
            for ci, cell in enumerate(dim_cells)
            for c in range(spaces[ci].size)
        ]
        idx = {b: i for i, b in enumerate(basis)}
        perms = []
        for g in G.elements():
            perms.append(
                tuple(idx[(ci, spaces[ci].act(g, c))] for (ci, c) in basis)
            )
        terms.append(GModule(G, len(basis), perms=perms))
        bases.append(basis)
        index_maps.append(idx)
    bounds: List[IntMatrix] = []
    for d in range(1, len(x.cells)):
        rows = terms[d - 1].rank
        cols_out: List[List[int]] = []
        for (ci, c) in bases[d]:
            cell = x.cells[d][ci]
            g_rep = coset_spaces[d][ci].rep(c)
            col = [0] * rows
            for (tgt, a, coeff) in cell.boundary:
                # the cell at coset c is g_rep * (rep cell); its boundary
                # entry sits at the coset g_rep * a^-1 * (target stabilizer)
                elt = G.mult(g_rep, G.inverse[a])
                tcs = coset_spaces[d - 1][tgt]
                col[index_maps[d - 1][(tgt, tcs.coset_of[elt])]] += coeff
            cols_out.append(col)
        bounds.append(IntMatrix.from_columns(cols_out, rows=rows))
    return terms, bounds


def is_chain_lift(p: FreeResolution, target, comps) -> bool:
    """The check `modres._chain_lift` makes, run on stored components."""
    return all(
        target.boundary(n, x) == _lift_image(p.gen_images, target, comps, n, j)
        for n, level in enumerate(comps)
        for j, x in enumerate(level)
    )


def lift_is_chain_map_check(data: pairhom.ComparisonData) -> bool:
    """Re-verify that the stored comparison lift commutes with the
    boundaries."""
    return is_chain_lift(data.resolution, pairhom._ConeTarget(data.complex.cosets), data.lift)


def validate_acyclic(cx: pairhom.AdamsonComplex):
    """Check the augmented tuple-level complex of `cx` tuple by tuple:
    d d = 0 in every degree, and ds + sd = id below the top degree for the
    cone homotopy s(t) = (H, *t) (in degree 0, ds(c) = c - c_0), which
    makes the complex exact there.  Every chain is projected onto the
    complex's tuples, so on the normalized complex C/D the degenerate
    tuples are zero (s maps D into D, so it passes to C/D); on the full
    complex the projection keeps everything."""

    def project(vec):
        return {u: v for u, v in vec.items() if not u or u in cx.tuple_index[len(u) - 1]}

    def boundary(vec):
        return project(pairhom._tuple_boundary(vec))

    def cone(vec):
        return project(pairhom._cone(vec))

    for n, tups in enumerate(cx.tuples):
        for t in tups:
            d = boundary({t: 1})
            if boundary(d):
                raise ValidationError(
                    f"standard complex boundary squares to nonzero at degree {n}"
                )
            if n == cx.truncation:
                continue
            dsd = boundary(cone({t: 1}))
            for face, v in cone(d).items():
                dsd[face] = dsd.get(face, 0) + v
            if {u: v for u, v in dsd.items() if v} != {t: 1}:
                raise ValidationError(f"standard complex not exact at degree {n}")


# ---------------------------------------------------------------------------
# Coinvariants presented on the module's lattice


class PresentedCoefficients:
    """A module M as orbit coefficients for `modres.tensor_orbit_complex`,
    answering as every module did before permutation modules answered with
    their orbit classes: M_K on the lattice of M, presented by
    `coinvariant_relations`, and a(g^-1) for every orbit map.  `group` and
    `rank` let `bredon_complex` take it in place of the module."""

    def __init__(self, m: GModule):
        self.module = m
        self.group = m.group
        self.rank = m.rank
        self._relations: Dict[Tuple[int, ...], IntMatrix] = {}

    def orbit_value(self, k: Subgroup) -> Tuple[int, IntMatrix]:
        rel = self._relations.get(k.elements)
        if rel is None:
            rel = self._relations[k.elements] = coinvariant_relations(self.module, k)
        return self.rank, rel

    def orbit_map_rows(self, source: Subgroup, target: Subgroup, g: int):
        return self.module._inverse_action_rows()[g]
