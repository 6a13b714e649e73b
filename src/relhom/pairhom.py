"""Relative homology of a pair of finite groups: the coset-tuple standard
complex, the Tor-based theory against the augmentation kernel, the
comparison homomorphism between them, the obstruction values on fixed
cosets, long-exact-sequence certificates, and the normal-quotient oracle."""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BudgetError, TruncationError, ValidationError
from .exactla import (
    FgAbGroup,
    IntMatrix,
    PresentedChainMap,
    PresentedComplex,
    _check_int,
    hom_cokernel,
    hom_kernel,
    induced_map,
    is_isomorphism,
    is_zero_map,
    sequence_exact_at,
)
from .groups import Subgroup, coset_space, family_generated, family_gh, fixed_cosets, subgroup_as_group, subgroup_conjugacy_classes
from .modres import (
    DEFAULT_RANK_CAP,
    _chain_lift,
    FreeResolution,
    GModule,
    OrbitForm,
    cached_resolution,
    coinvariants,
    horseshoe,
    induce_resolution,
    lift_over_resolution,
    orbit_map_matrix,
    standard_modules,
    tensor_orbit_complex,
    group_homology,
)


# ---------------------------------------------------------------------------
# The standard coset-tuple complex


def _check_tuple_budget(h: Subgroup, truncation: int, rank_cap: int):
    k = coset_space(h).size
    for n in range(truncation + 1):
        count = k ** (n + 1)
        if count > rank_cap:
            raise BudgetError(
                f"standard pair complex degree {n} for {h.parent.label}", count, rank_cap
            )


class AdamsonComplex:
    """The complex of free abelian groups on (n+1)-tuples of cosets of H in
    G with the alternating face-deletion boundary, organized by G-orbits.

    Degree n holds the tuples of length n+1; the augmented complex (with
    the sum-of-coefficients map onto Z in degree 0) is exact.

    With `normalized` (the default) the complex is the normalized one,
    C/D: a tuple with two equal neighbours is degenerate, the degenerate
    tuples span a G-stable acyclic subcomplex D, and C -> C/D is a natural
    chain homotopy equivalence (Weibel, An Introduction to Homological
    Algebra, §8.3; May, Simplicial Objects in Algebraic Topology, §22).
    Being natural it is G-equivariant, so C/D tensored with M has the
    homology of C tensored with M.  Degree n of C/D keeps the k(k-1)^n
    tuples with no equal neighbours (k = [G:H]) and drops each degenerate
    face from the boundary; C has k^(n+1) tuples there.  `comparison`
    asks for the full complex (`normalized=False`): its lift and the phi
    coordinates pinned in the benchmark references are written in C's
    homology coordinates, which the projection moves.

    Budgets count the standard complex C on either complex: the tuple
    budget its k^(n+1) tuples, the tensor budget its G-orbits, which
    `standard_orbits[n]` holds by Burnside's count sum_g fix(g)^(n+1)/|G|
    over the cosets fix(g) that g fixes.

    ``form`` is the complex's `modres.OrbitForm` (the stabilizer and the
    boundary of each orbit representative), checked once when the complex
    is built; `tensor` reads it for every module.
    """

    def __init__(
        self,
        h: Subgroup,
        truncation: int,
        rank_cap: int = DEFAULT_RANK_CAP,
        *,
        normalized: bool = True,
    ):
        _check_tuple_budget(h, truncation, rank_cap)
        G = h.parent
        cs = coset_space(h)
        k = cs.size
        self.subgroup = h
        self.group = G
        self.cosets = cs
        self.truncation = truncation
        self.normalized = normalized
        fix = [sum(1 for c in range(k) if act[c] == c) for act in cs.action]
        self.standard_orbits = [
            sum(f ** (n + 1) for f in fix) // G.order for n in range(truncation + 1)
        ]
        self.tuples: List[List[Tuple[int, ...]]] = []
        self.tuple_index: List[Dict[Tuple[int, ...], int]] = []
        self.orbit_of: List[List[int]] = []
        self.transporter: List[List[int]] = []
        self.reps: List[List[int]] = []
        stabilizers: List[List[Subgroup]] = []
        boundaries: List[List[List[Tuple[int, int, int]]]] = []
        self._tensor_cache: Dict[tuple, PresentedComplex] = {}
        for n in range(truncation + 1):
            if normalized and n:
                tups = [t + (c,) for t in self.tuples[n - 1] for c in range(k) if c != t[-1]]
            else:
                tups = list(itertools.product(range(k), repeat=n + 1))
            count = len(tups)
            index = {t: i for i, t in enumerate(tups)}
            orbit = [-1] * count
            trans = [0] * count
            reps: List[int] = []
            stabs: List[Subgroup] = []
            for ti, t in enumerate(tups):
                if orbit[ti] >= 0:
                    continue
                o = len(reps)
                reps.append(ti)
                stab: List[int] = []
                for g in G.elements():
                    act = cs.action[g]
                    img = index[tuple(act[c] for c in t)]
                    if img == ti:
                        stab.append(g)
                    if orbit[img] < 0:
                        orbit[img] = o
                        trans[img] = g
                stabs.append(G.subgroup(stab))
            self.tuples.append(tups)
            self.tuple_index.append(index)
            self.orbit_of.append(orbit)
            self.transporter.append(trans)
            self.reps.append(reps)
            stabilizers.append(stabs)
            if n == 0:
                continue
            prev_index = self.tuple_index[n - 1]
            bdry: List[List[Tuple[int, int, int]]] = []
            for ri in reps:
                t = tups[ri]
                acc: Dict[Tuple[int, int], int] = {}
                for i in range(n + 1):
                    if normalized and 0 < i < n and t[i - 1] == t[i + 1]:
                        # a degenerate face, zero in C/D
                        continue
                    fi = prev_index[t[:i] + t[i + 1 :]]
                    key = (self.orbit_of[n - 1][fi], self.transporter[n - 1][fi])
                    acc[key] = acc.get(key, 0) + (1 if i % 2 == 0 else -1)
                bdry.append([(o, g, c) for (o, g), c in acc.items() if c])
            boundaries.append(bdry)
        self.form = OrbitForm(stabilizers, boundaries)

    def num_orbits(self, n: int) -> int:
        return len(self.reps[n])

    def _check_tensor_budget(self, m: GModule, rank_cap: int, lo: int):
        for n in range(lo, self.truncation + 1):
            rank_n = self.standard_orbits[n] * m.rank
            if rank_n > rank_cap:
                raise BudgetError(
                    f"tensored pair complex degree {n}", rank_n, rank_cap
                )

    def tensor(self, m: GModule, rank_cap: int = DEFAULT_RANK_CAP) -> PresentedComplex:
        """The complex of coinvariants obtained by tensoring with M over the
        group ring, one per module.  The budget applies to every call,
        cached or not.

        The cache is keyed on the module's value (`GModule.value_key`), not
        its id: a collected module's id is reused by new objects."""
        if m.group is not self.group:
            raise ValidationError("module over a different group")
        self._check_tensor_budget(m, rank_cap, 0)
        key = m.value_key()
        cx = self._tensor_cache.get(key)
        if cx is None:
            cx = self._tensor_cache[key] = tensor_orbit_complex(self.form, m)
        return cx

    def shifted_tensor(self, m: GModule, rank_cap: int = DEFAULT_RANK_CAP) -> PresentedComplex:
        """`tensor(m)` with degree 0 dropped: degree n holds the
        (n+2)-tuples term (the resolution of the augmentation kernel).  The
        budget is that of degrees 1 and up; degree 0, of rank M's, is no
        larger than degree 1."""
        self._check_tensor_budget(m, rank_cap, 1)
        return self.tensor(m, rank_cap).shifted()

def adamson_complex(
    h: Subgroup,
    truncation: int,
    rank_cap: int = DEFAULT_RANK_CAP,
    *,
    normalized: bool = True,
) -> AdamsonComplex:
    """`AdamsonComplex(h, truncation, normalized=normalized)`, cached in the
    group's memo by the subgroup's elements and by which complex it holds
    (normalized or full).  `groups.make_group` interns groups, so the entry
    serves every job that asks about the same pair.  The cached complex is
    reused only at the same truncation, so a call gets exactly the degrees
    it asks for and is held to their budget, on a hit as on a miss.  A
    caller that needs several degrees asks once, at the largest truncation
    (see `adamson_homology`)."""
    memo, key = h.parent.memo, ("adamson_complex", h.elements, normalized)
    cx = memo.get(key)
    if cx is not None and cx.truncation == truncation:
        _check_tuple_budget(h, truncation, rank_cap)
        return cx
    cx = memo[key] = AdamsonComplex(h, truncation, rank_cap, normalized=normalized)
    return cx


def _annihilated(theory: str, degree: int, group: FgAbGroup, bound: int) -> FgAbGroup:
    """`group`, after checking that it is finite with exponent dividing
    `bound`; otherwise a `ValidationError` names the theory, the degree and
    the bound.  The annihilation theorems say so: [G:H] kills Adamson's
    H_n(G,H;M) for n >= 1, since Z -> Z[G/H] -> Z (1 |-> sum of the
    cosets, then augmentation) is multiplication by [G:H] and Z[G/H] is
    (G,H)-projective (Hochschild, "Relative homological algebra", Trans.
    AMS 82, 1956); |G| kills Takasu's H_n(G,H;M) = H_{n-1}(G; I (x) M) for
    n >= 2, and |G| kills H_n(G;M) for n >= 1, so |H| kills H_n(H;M)
    (Brown, "Cohomology of groups", III.10.2).  So a group that breaks the
    bound is wrong, and is never returned."""
    if group.free_rank or any(bound % d for d in group.torsion):
        raise ValidationError(
            f"{theory} homology in degree {degree} is {group}, which is not "
            f"annihilated by {bound}, as it must be"
        )
    return group


def adamson_homology(
    h: Subgroup,
    m: GModule,
    degree: int,
    rank_cap: int = DEFAULT_RANK_CAP,
    truncation: Optional[int] = None,
) -> FgAbGroup:
    """Homology of the coset-tuple standard complex with coefficients, read
    from the complex truncated at `truncation` (default degree + 1).  Calls
    for several degrees that pass one truncation share one enumerated and
    tensored complex; each is held to that truncation's budget.

    The groups are read from the normalized complex C/D, which drops the
    tuples with two equal neighbours and has the homology of the standard
    complex C (see `AdamsonComplex`: Weibel §8.3, May §22).  The budgets are
    those of C.  `comparison` reads the same groups from C itself, whose
    coordinates its phi matrices are written in.

    In degree >= 1 the group must be finite with exponent dividing [G:H]
    (`_annihilated`), which checks every answer independently of how it
    was computed."""
    _check_int(degree, "degree")
    _check_int(rank_cap, "rank_cap")
    if truncation is not None:
        _check_int(truncation, "truncation")
    if degree < 0:
        raise ValidationError("negative degree")
    needed = degree + 1
    if truncation is not None and truncation < needed:
        raise TruncationError(
            f"degree {degree} needs truncation >= {needed}; increase N"
        )
    cx = adamson_complex(h, truncation or needed, rank_cap)
    group = cx.tensor(m, rank_cap).homology(degree)
    if degree == 0:
        return group
    return _annihilated("Adamson", degree, group, h.parent.order // h.order)


def takasu_homology(
    h: Subgroup,
    m: GModule,
    degree: int,
    rank_cap: int = DEFAULT_RANK_CAP,
) -> FgAbGroup:
    """Tor-based relative homology of the pair; degree 0 is 0 by convention.
    In degree >= 2 the group must be finite with exponent dividing |G|
    (`_annihilated`)."""
    _check_int(degree, "degree")
    _check_int(rank_cap, "rank_cap")
    if degree < 0:
        raise ValidationError("negative degree")
    if degree == 0:
        return FgAbGroup.trivial()
    res = cached_resolution(standard_modules(h).i_module, degree, rank_cap)
    group = res.tensor(m).homology(degree - 1)
    if degree == 1:
        return group
    return _annihilated("Takasu", degree, group, h.parent.order)


# ---------------------------------------------------------------------------
# The comparison homomorphism


def _tuple_boundary(vec: Dict[Tuple[int, ...], int]) -> Dict[Tuple[int, ...], int]:
    """The alternating face-deletion boundary of a sparse chain on coset
    tuples; a 1-tuple's one face is the empty tuple, which stands for the
    augmentation onto Z."""
    out: Dict[Tuple[int, ...], int] = {}
    for t, v in vec.items():
        for i in range(len(t)):
            face = t[:i] + t[i + 1 :]
            out[face] = out.get(face, 0) + (v if i % 2 == 0 else -v)
    return {t: v for t, v in out.items() if v}


def _cone(vec: Dict[Tuple[int, ...], int]) -> Dict[Tuple[int, ...], int]:
    """The cone contracting homotopy s(t) = (H, *t) of the coset-tuple
    complex: ds + sd = id on the augmented complex (Adamson 1954; Brown,
    Cohomology of Groups, I.5)."""
    return {(0,) + t: v for t, v in vec.items()}


class _ConeTarget:
    """The shifted coset-tuple complex as a lift target: degree n holds the
    (n+2)-tuples, its degree-0 boundary lands in the augmentation kernel I
    in the basis {coset_i - coset_0} (keyed by i - 1), and every cycle z
    has the preimage s(z) under the cone homotopy.  Vectors are dicts on
    tuples, moved by G through the coset action."""

    def __init__(self, cosets):
        self.action = cosets.action

    def act(self, n: int, g: int, vec):
        a = self.action[g]
        return {tuple(a[c] for c in t): v for t, v in vec.items()}

    def boundary(self, n: int, vec):
        out = _tuple_boundary(vec)
        if n == 0:
            return {c - 1: v for (c,), v in out.items() if c}
        return out

    def preimage(self, n: int, rhs):
        if n == 0:
            return {(0, i + 1): a for i, a in rhs.items()}
        return _cone(rhs)


def _lift_along_exact_target(images, target, length: int) -> list:
    """The chain lift of the comparison and of the reference pair, made by
    the shared loop `modres._chain_lift` on generator images in the layout
    of `FreeResolution.gen_images`.  It is a function of its own so that
    these lifts can be timed, counted or replaced apart from the Tor-side
    lifts, which call the loop directly."""
    return _chain_lift(images, target, length)


class DegreeComparison:
    __slots__ = (
        "degree", "takasu", "adamson", "matrix", "kernel", "cokernel", "is_iso", "is_zero",
    )

    def __init__(
        self,
        degree: int,
        takasu: FgAbGroup,
        adamson: FgAbGroup,
        matrix: IntMatrix,
        kernel: FgAbGroup,
        cokernel: FgAbGroup,
        is_iso: bool,
        is_zero: bool,
    ):
        self.degree = degree
        self.takasu = takasu
        self.adamson = adamson
        self.matrix = matrix
        self.kernel = kernel
        self.cokernel = cokernel
        self.is_iso = is_iso
        self.is_zero = is_zero

    def __eq__(self, other):
        if other.__class__ is not DegreeComparison:
            return NotImplemented
        return [getattr(self, f) for f in self.__slots__] == [
            getattr(other, f) for f in other.__slots__
        ]


class ComparisonData:
    """The comparison of the pair's two theories with coefficients M.

    ``lift[n][j]`` is the chain lift's value on generator j of the
    resolution's degree-n term: a sparse chain on (n+2)-tuples of coset
    indices, as a dict from tuple to nonzero coefficient.  It is built
    along the cone homotopy, phi_n(e) = s(phi_{n-1}(d e)), so every tuple
    in its support starts with the base coset H (index 0)."""

    __slots__ = ("subgroup", "coefficients", "resolution", "complex", "lift", "degrees")

    def __init__(
        self,
        subgroup: Subgroup,
        coefficients: GModule,
        resolution: FreeResolution,
        complex: AdamsonComplex,
        lift: List[List[Dict[Tuple[int, ...], int]]],
        degrees: Optional[Dict[int, DegreeComparison]] = None,
    ):
        self.subgroup = subgroup
        self.coefficients = coefficients
        self.resolution = resolution
        self.complex = complex
        self.lift = lift
        self.degrees = {} if degrees is None else degrees

    def phi(self, degree: int) -> DegreeComparison:
        return self.degrees[degree]


def comparison(
    h: Subgroup,
    m: GModule,
    degrees: Sequence[int],
    rank_cap: int = DEFAULT_RANK_CAP,
) -> ComparisonData:
    """Build the chain lift from the Tor-side resolution to the shifted
    standard complex and the induced maps on homology for the requested
    degrees (with kernels and cokernels).  Adamson's group in degree
    n >= 1 and Takasu's in degree n >= 2 must obey their annihilation
    bounds (`_annihilated`)."""
    _check_int(rank_cap, "rank_cap")
    degs = sorted(set(_check_int(d, "comparison degree") for d in degrees))
    if not degs or degs[0] < 1:
        raise ValidationError("comparison degrees must be >= 1")
    if 1 in degs and not m.is_constant():
        raise ValidationError(
            "degree-1 comparison is only defined for constant coefficients"
        )
    top = degs[-1]
    std = standard_modules(h)
    # the tuple budget before any work: resolving I can run far past it
    _check_tuple_budget(h, top + 1, rank_cap)
    p = cached_resolution(std.i_module, top, rank_cap)
    # the full complex: the lift runs along its cone homotopy, and phi is
    # read in its homology coordinates
    cx = adamson_complex(h, top + 1, rank_cap, normalized=False)
    lift = _lift_along_exact_target(p.gen_images, _ConeTarget(cx.cosets), top + 1)
    data = ComparisonData(h, m, p, cx, lift)
    sp = p.tensor(m)
    tq = cx.shifted_tensor(m, rank_cap)
    trivial = h.parent.trivial_subgroup()
    comps: Dict[int, IntMatrix] = {}
    for n in range(top + 1):
        index = cx.tuple_index[n + 1]
        orbit = cx.orbit_of[n + 1]
        trans = cx.transporter[n + 1]
        entries = [
            [(orbit[index[t]], trans[index[t]], c) for t, c in vec.items()]
            for vec in lift[n]
        ]
        comps[n] = orbit_map_matrix(
            entries, [trivial] * len(entries), cx.form.stabilizers[n + 1], m
        )
    pcm = PresentedChainMap(sp, tq, comps)
    for i in degs:
        tak = sp.homology_data(i - 1).group
        if i >= 2:
            _annihilated("Takasu", i, tak, h.parent.order)
        adm = _annihilated("Adamson", i, tq.homology_data(i - 1).group, h.parent.order // h.order)
        mat = induced_map(pcm, i - 1)
        ker = hom_kernel(mat, tak, adm)
        cok = hom_cokernel(mat, adm)
        data.degrees[i] = DegreeComparison(
            degree=i,
            takasu=tak,
            adamson=adm,
            matrix=mat,
            kernel=ker,
            cokernel=cok,
            is_iso=ker.is_trivial() and cok.is_trivial(),
            is_zero=is_zero_map(mat, adm),
        )
    return data


# ---------------------------------------------------------------------------
# The obstruction module on fixed cosets


class JModuleEntry:
    __slots__ = ("subgroup", "class_size", "fixed_count", "value", "in_gh_family")

    def __init__(
        self,
        subgroup: Subgroup,
        class_size: int,
        fixed_count: int,
        value: FgAbGroup,
        in_gh_family: bool,
    ):
        self.subgroup = subgroup
        self.class_size = class_size
        self.fixed_count = fixed_count
        self.value = value
        self.in_gh_family = in_gh_family


class JModuleReport:
    __slots__ = ("subgroup", "entries")

    def __init__(self, subgroup: Subgroup, entries: List[JModuleEntry]):
        self.subgroup = subgroup
        self.entries = entries

    def all_trivial(self) -> bool:
        return all(e.value.is_trivial() for e in self.entries)


def j_module(h: Subgroup) -> JModuleReport:
    """Per conjugacy class of nontrivial subgroups subconjugate to H, the
    kernel of the augmentation on the fixed cosets (zero unless the class
    fixes at least two cosets)."""
    G = h.parent
    fam = family_generated(h)
    gh = family_gh(h)
    entries: List[JModuleEntry] = []
    for cls in subgroup_conjugacy_classes(G):
        rep = cls[0]
        if rep not in fam.members or rep.order == 1:
            continue
        fixed = fixed_cosets(h, rep)
        in_gh = rep in gh.members
        if in_gh:
            value = FgAbGroup(max(len(fixed) - 1, 0))
        else:
            if len(fixed) > 1:
                raise ValidationError(
                    "subgroup outside the two-coset family fixes two cosets"
                )
            value = FgAbGroup.trivial()
        entries.append(
            JModuleEntry(rep, len(cls), len(fixed), value, in_gh)
        )
    return JModuleReport(h, entries)


# ---------------------------------------------------------------------------
# Long exact sequence certificate


class LESSlot:
    __slots__ = ("label", "exact", "detail")

    def __init__(self, label: str, exact: bool, detail: str = ""):
        self.label = label
        self.exact = exact
        self.detail = detail


class LESCertificate:
    """The long exact sequence of the pair (G, H) with coefficients M,

        ... -> H_{n+1}(pair) -> H_n(H) -> H_n(G) -> H_n(pair) -> ...

    computed from 0 -> I -> Z[G/H] -> Z -> 0, where H_{n+1}(pair) is
    Tor_n(I; M), H_n(G) is Tor_n(Z; M) and H_n(H) is isomorphic to
    Tor_n(Z[G/H]; M) by Shapiro's lemma.

    ``groups`` holds H_n(H), H_n(G) and H_{n+1}(pair) for 0 <= n <= max_degree.
    ``maps`` holds, as matrices in the groups' normalized coordinates:

    - ``"H_{n+1}(pair)->H_n(H)"`` (0 <= n <= max_degree): the pair
      sequence's connecting map.  Its target coordinates are those of
      Tor_n(Z[G/H]; M), which is isomorphic to ``groups["H_n(H)"]`` by
      Shapiro's lemma and has the same canonical form;
    - ``"H_n(H)->H_n(G)"`` (0 <= n <= max_degree): the map induced by the
      inclusion, from the homology of H itself;
    - ``"H_n(G)->H_n(pair)"`` (1 <= n <= max_degree): the connecting map
      Tor_n(Z; M) -> Tor_{n-1}(I; M) of the Tor sequence.

    ``slots`` records exactness at each term; ``shapiro_ok`` records that
    H_n(H) -> Tor_n(Z[G/H]; M) is an isomorphism in every degree.
    """

    __slots__ = (
        "subgroup", "coefficients", "max_degree", "groups", "maps", "slots", "shapiro_ok",
    )

    def __init__(
        self,
        subgroup: Subgroup,
        coefficients: GModule,
        max_degree: int,
        groups: Dict[str, FgAbGroup],
        maps: Dict[str, IntMatrix],
        slots: List[LESSlot],
        shapiro_ok: bool,
    ):
        self.subgroup = subgroup
        self.coefficients = coefficients
        self.max_degree = max_degree
        self.groups = groups
        self.maps = maps
        self.slots = slots
        self.shapiro_ok = shapiro_ok

    @property
    def all_exact(self) -> bool:
        return all(s.exact for s in self.slots) and self.shapiro_ok


def verify_takasu_les(
    h: Subgroup,
    m: GModule,
    max_degree: int,
    rank_cap: int = DEFAULT_RANK_CAP,
) -> LESCertificate:
    """Assemble compatible resolutions for 0 -> I -> Z[G/H] -> Z -> 0, tensor
    with the coefficients, and certify exactness of the induced long exact
    sequence relating the homology of the subgroup, the group, and the pair.
    For n >= 1, H_{n+1}(pair) and H_n(G) must be finite with exponent
    dividing |G|, and H_n(H) with exponent dividing |H| (`_annihilated`)."""
    _check_int(max_degree, "max_degree")
    _check_int(rank_cap, "rank_cap")
    G = h.parent
    std = standard_modules(h)
    length = max_degree + 1
    hgrp, _embed = subgroup_as_group(h)
    res_h = cached_resolution(GModule.trivial(hgrp), length, rank_cap)
    ind_r = induce_resolution(res_h, h)
    res_i = cached_resolution(std.i_module, length, rank_cap)
    res_z = cached_resolution(GModule.trivial(G), length, rank_cap)
    horse = horseshoe(res_i, res_z, std)
    mid = horse.middle
    try:
        v_cols = lift_over_resolution(ind_r, mid, IntMatrix.identity(std.perm.rank))
    except ValidationError as exc:
        raise ValidationError(
            f"Shapiro lift v (induced resolution -> horseshoe resolution): {exc}"
        ) from None
    ti = res_i.tensor(m)
    tm = mid.tensor(m)
    tz = res_z.tensor(m)
    th = ind_r.tensor(m)
    rk = m.rank
    trivial = G.trivial_subgroup()

    def free_map(cols, target_rank):
        # generator images of a map between free modules, tensored with M
        return orbit_map_matrix(cols, [trivial] * len(cols), [trivial] * target_rank, m)

    incl_comps = {}
    proj_comps = {}
    v_comps = {}
    for k in range(length + 1):
        ri, rz = res_i.free_ranks[k], res_z.free_ranks[k]
        # the middle term holds the I-side generators first
        incl_comps[k] = IntMatrix._from_sparse_columns(
            [{j: 1} for j in range(ri * rk)], (ri + rz) * rk
        )
        proj_comps[k] = IntMatrix._from_sparse_columns(
            [{} for _ in range(ri * rk)] + [{i: 1} for i in range(rz * rk)], rz * rk
        )
        if k < len(v_cols):
            v_comps[k] = free_map(v_cols[k], ri + rz)
    incl = PresentedChainMap(ti, tm, incl_comps)
    proj = PresentedChainMap(tm, tz, proj_comps)
    vmap = PresentedChainMap(th, tm, v_comps)
    # H_n(H) -> H_n(G) is read through proj o v
    chimap = PresentedChainMap(th, tz, {k: proj_comps[k] @ v for k, v in v_comps.items()})
    conn_mats = {
        k: free_map(horse.h_gen_images[k - 1], res_i.free_ranks[k - 1])
        for k in range(1, length + 1)
    }

    groups: Dict[str, FgAbGroup] = {}
    maps: Dict[str, IntMatrix] = {}
    tor_i: Dict[int, FgAbGroup] = {}
    tor_m: Dict[int, FgAbGroup] = {}
    tor_z: Dict[int, FgAbGroup] = {}
    a_mats: Dict[int, IntMatrix] = {}
    b_mats: Dict[int, IntMatrix] = {}
    d_mats: Dict[int, IntMatrix] = {}
    shapiro_ok = True
    for n in range(max_degree + 1):
        # the groups of the homology data the induced maps below use, so
        # each cone boundary is eliminated once
        tor_i[n] = ti.homology_data(n).group
        tor_m[n] = tm.homology_data(n).group
        tor_z[n] = tz.homology_data(n).group
        h_side = th.homology_data(n).group
        if n >= 1:
            _annihilated("Takasu", n + 1, tor_i[n], G.order)
            _annihilated("Group", n, tor_z[n], G.order)
            _annihilated("Subgroup", n, h_side, h.order)
        groups[f"H_{n + 1}(pair)"] = tor_i[n]
        groups[f"H_{n}(G)"] = tor_z[n]
        groups[f"H_{n}(H)"] = h_side
        a_mats[n] = induced_map(incl, n)
        b_mats[n] = induced_map(proj, n)
        maps[f"H_{n}(H)->H_{n}(G)"] = induced_map(chimap, n)
        v_ind = induced_map(vmap, n)
        if not is_isomorphism(v_ind, h_side, tor_m[n]):
            shapiro_ok = False
        maps[f"H_{n + 1}(pair)->H_{n}(H)"] = a_mats[n]
    # connecting maps Tor_n(Z) -> Tor_{n-1}(I), with the sign twist making
    # the anticommuting correction a chain map; in the pair's terms this is
    # H_n(G) -> H_n(pair)
    for n in range(1, max_degree + 1):
        src_hd = tz.homology_data(n)
        tgt_hd = ti.homology_data(n - 1)
        cols = []
        sign = -1 if n % 2 else 1
        for cyc in src_hd.generator_cycles():
            x = cyc[: tz.rank(n)]
            y = conn_mats[n].apply(x)
            if sign < 0:
                y = [-v for v in y]
            lifted = ti.lift_cycle(n - 1, y)
            cols.append(tgt_hd.coords_of_cycle(lifted))
        d_mats[n] = IntMatrix.from_columns(
            cols, rows=tgt_hd.group.presentation_rank()
        )
        maps[f"H_{n}(G)->H_{n}(pair)"] = d_mats[n]

    slots: List[LESSlot] = []
    for n in range(max_degree + 1):
        ok, why = sequence_exact_at(
            a_mats[n], tor_i[n], tor_m[n], b_mats[n], tor_z[n]
        )
        slots.append(LESSlot(f"H_{n}(H)", ok, why))
        if n >= 1:
            ok, why = sequence_exact_at(
                b_mats[n], tor_m[n], tor_z[n], d_mats[n], tor_i[n - 1]
            )
            slots.append(LESSlot(f"H_{n}(G)", ok, why))
        else:
            cok = hom_cokernel(b_mats[0], tor_z[0])
            slots.append(
                LESSlot(
                    "H_0(G)",
                    cok.is_trivial(),
                    "" if cok.is_trivial() else f"cokernel {cok}",
                )
            )
        if n + 1 <= max_degree:
            ok, why = sequence_exact_at(
                d_mats[n + 1], tor_z[n + 1], tor_i[n], a_mats[n], tor_m[n]
            )
            slots.append(LESSlot(f"H_{n + 1}(pair)", ok, why))
    return LESCertificate(h, m, max_degree, groups, maps, slots, shapiro_ok)


# ---------------------------------------------------------------------------
# Normal-quotient oracle


class OracleReport:
    __slots__ = ("degree", "adamson", "quotient_value", "match")

    def __init__(self, degree: int, adamson: FgAbGroup, quotient_value: FgAbGroup, match: bool):
        self.degree = degree
        self.adamson = adamson
        self.quotient_value = quotient_value
        self.match = match


def normal_quotient_oracle(
    h: Subgroup,
    m: GModule,
    degree: int,
    rank_cap: int = DEFAULT_RANK_CAP,
    truncation: Optional[int] = None,
) -> OracleReport:
    """Compare the standard-complex homology of the pair (truncated as in
    `adamson_homology`) against the group homology of the quotient with
    coinvariant coefficients."""
    _check_int(degree, "degree")
    if not h.is_normal():
        raise ValidationError("the subgroup must be normal")
    coin = coinvariants(m, h)
    quotient_value = group_homology(coin.quotient, coin.module, degree, rank_cap)
    adm = adamson_homology(h, m, degree, rank_cap, truncation)
    return OracleReport(degree, adm, quotient_value, adm == quotient_value)
