"""Finite orbit categories, coefficient systems, and equivariant homology
of finite-type cell data over a finite group."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import BudgetError, ValidationError
from .exactla import (
    FgAbGroup,
    IntMatrix,
    LatticeAccumulator,
    PresentedComplex,
    _check_int,
    product_gaps,
)
from .groups import FiniteGroup, Subgroup, SubgroupFamily
from .modres import (
    DEFAULT_RANK_CAP,
    GModule,
    OrbitForm,
    _relative_bar_levels,
    orbit_map_matrix,
    tensor_orbit_complex,
)


class OrbitMorphism:
    """A G-map between homogeneous sets G/H' -> G/K', i.e. the class of
    right translation by a representative a with a H' a^-1 <= K'.
    Two representatives give the same map iff they lie in the same right
    coset of K'; `rep` is the minimal element of that coset.  Immutable,
    compared and hashed by value."""

    __slots__ = ("source", "target", "rep")

    def __init__(self, source: Subgroup, target: Subgroup, rep: int):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not OrbitMorphism:
            return NotImplemented
        return (self.source, self.target, self.rep) == (other.source, other.target, other.rep)

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.rep))

    def __repr__(self) -> str:
        return f"R_{self.rep}"


def _canonical_rep(target: Subgroup, a: int) -> int:
    G = target.parent
    return min(G.mult(k, a) for k in target.elements)


class OrbitCategory:
    """The category of homogeneous G-sets G/K for K in a family, with all
    G-maps between them."""

    def __init__(self, group: FiniteGroup, family: SubgroupFamily):
        if family.parent is not group:
            raise ValidationError("family over a different group")
        self.group = group
        self.family = family
        self.objects: List[Subgroup] = family.sorted_members()
        self._hom: Dict[Tuple[Subgroup, Subgroup], Tuple[OrbitMorphism, ...]] = {}
        for src in self.objects:
            for tgt in self.objects:
                reps = set()
                tset = tgt.eset
                for a in group.elements():
                    if all(
                        group.conjugate(group.inverse[a], x) in tset
                        for x in src.elements
                    ):
                        # a x a^-1 in tgt for all x in src
                        reps.add(_canonical_rep(tgt, a))
                self._hom[(src, tgt)] = tuple(
                    OrbitMorphism(src, tgt, r) for r in sorted(reps)
                )

    def hom(self, src: Subgroup, tgt: Subgroup) -> Tuple[OrbitMorphism, ...]:
        return self._hom[(src, tgt)]

    def morphism(self, src: Subgroup, tgt: Subgroup, a: int) -> OrbitMorphism:
        if any(
            self.group.conjugate(self.group.inverse[a], x) not in tgt.eset
            for x in src.elements
        ):
            raise ValidationError(
                f"element {a} does not define a map of orbits here"
            )
        return OrbitMorphism(src, tgt, _canonical_rep(tgt, a))

    def identity(self, obj: Subgroup) -> OrbitMorphism:
        return OrbitMorphism(obj, obj, _canonical_rep(obj, 0))

    def compose(self, second: OrbitMorphism, first: OrbitMorphism) -> OrbitMorphism:
        """second after first; classes compose by multiplying representatives."""
        if second.source != first.target:
            raise ValidationError("morphisms are not composable")
        a = self.group.mult(second.rep, first.rep)
        return OrbitMorphism(first.source, second.target, _canonical_rep(second.target, a))

    def validate(self):
        for src in self.objects:
            for mid in self.objects:
                for tgt in self.objects:
                    homs = set(self.hom(src, tgt))
                    for m1 in self.hom(src, mid):
                        for m2 in self.hom(mid, tgt):
                            if self.compose(m2, m1) not in homs:
                                raise ValidationError("composition not closed")


def build_orbit_category(group: FiniteGroup, family: SubgroupFamily) -> OrbitCategory:
    cat = OrbitCategory(group, family)
    cat.validate()
    return cat


class CoefficientSystem:
    """A covariant functor from an orbit category to abelian groups.

    Values are finitely presented (free cover rank plus relation matrix);
    morphism matrices act on the free covers and are functorial modulo the
    relations.
    """

    def __init__(
        self,
        category: OrbitCategory,
        values: Dict[Subgroup, Tuple[int, Optional[IntMatrix]]],
        maps: Dict[OrbitMorphism, IntMatrix],
    ):
        self.category = category
        self.values = dict(values)
        self.maps = dict(maps)
        self._rows: Dict[OrbitMorphism, tuple] = {}
        self._acc: Dict[Subgroup, Optional[LatticeAccumulator]] = {
            obj: None if rel is None else LatticeAccumulator.spanned_by(rel)
            for obj, (_, rel) in self.values.items()
        }
        self.validate()

    def value_group(self, obj: Subgroup) -> FgAbGroup:
        from .exactla import smith_invariants

        rank, rel = self.values[obj]
        if rel is None or not rel.cols:
            return FgAbGroup(rank)
        inv = smith_invariants(rel)
        return FgAbGroup.from_invariants(inv, rank)

    def matrix(self, mor: OrbitMorphism) -> IntMatrix:
        return self.maps[mor]

    # -- as orbit coefficients (see modres.tensor_orbit_complex)

    def orbit_value(self, obj: Subgroup) -> Tuple[int, Optional[IntMatrix]]:
        """The value at G/obj: free cover rank and relations (or None)."""
        return self.values[obj]

    def orbit_map_rows(self, source: Subgroup, target: Subgroup, g: int):
        """The matrix of R_a, a = g^-1, as rows of (column, value) pairs
        (computed once per morphism)."""
        cat = self.category
        mor = cat.morphism(source, target, cat.group.inverse[g])
        rows = self._rows.get(mor)
        if rows is None:
            rows = self._rows[mor] = self.matrix(mor)._row_pairs()
        return rows

    def validate(self):
        """F(id) = 1, F(a) carries relations into relations, and
        F(b) F(a) = F(b a), each modulo the relations of the target value."""
        cat = self.category
        acc = self._acc
        for obj in cat.objects:
            rank, rel = self.values[obj]
            ident = IntMatrix.identity(rank)
            if any(product_gaps((self.matrix(cat.identity(obj)),), (ident,), acc[obj])):
                raise ValidationError("identity morphism does not act as identity")
            if rel is not None and rel.cols:
                for tgt in cat.objects:
                    for mor in cat.hom(obj, tgt):
                        if any(product_gaps((self.matrix(mor), rel), None, acc[tgt])):
                            raise ValidationError(
                                "morphism does not preserve relations"
                            )
        for src in cat.objects:
            for mid in cat.objects:
                for m1 in cat.hom(src, mid):
                    mat1 = self.matrix(m1)
                    for tgt in cat.objects:
                        for m2 in cat.hom(mid, tgt):
                            rhs = self.matrix(cat.compose(m2, m1))
                            if any(product_gaps((self.matrix(m2), mat1), (rhs,), acc[tgt])):
                                raise ValidationError(
                                    f"functoriality fails at {m2} o {m1}"
                                )


def coinvariants_system(m: GModule, category: OrbitCategory) -> CoefficientSystem:
    """The coefficient system K |-> M_K = Z[G/K] tensor_Z[G] M, built from
    the module's own orbit answers (`GModule.orbit_value` and
    `GModule.orbit_map_rows`, as `modres.tensor_orbit_complex` reads
    them): the value at G/K, and for R_a : G/K -> G/L the block of the
    orbit map with g = a^-1.  For a permutation module Z[X] without
    relations that is Z[K\\X], free on the K-orbits, with the class of
    x going to that of a x (Brown, Cohomology of Groups, ch. III);
    otherwise M_K on the lattice of M, with a acting on it."""
    if m.group is not category.group:
        raise ValidationError("module over a different group")
    values: Dict[Subgroup, Tuple[int, Optional[IntMatrix]]] = {}
    for obj in category.objects:
        rank, rel = m.orbit_value(obj)
        values[obj] = (rank, rel if rel is not None and rel.cols else None)
    inv = category.group.inverse
    maps = {}
    for src in category.objects:
        for tgt in category.objects:
            for mor in category.hom(src, tgt):
                maps[mor] = orbit_map_matrix([[(0, inv[mor.rep], 1)]], [src], [tgt], m)
    return CoefficientSystem(category, values, maps)


def constant_system(category: OrbitCategory, modulus: int = 0) -> CoefficientSystem:
    """The constant functor Z (or Z/modulus, modulus >= 2) with identity
    maps: the coinvariants system of the trivial module."""
    G = category.group
    m = GModule.trivial_mod(G, modulus) if modulus else GModule.trivial(G)
    return coinvariants_system(m, category)


# ---------------------------------------------------------------------------
# Equivariant cell data


class GCWCell:
    """One orbit of cells: its stabilizer and the boundary as a formal sum
    of (target cell index in the dimension below, translating element a,
    integer coefficient), where a encodes the orbit map R_a."""

    __slots__ = ("stabilizer", "boundary")

    def __init__(self, stabilizer: Subgroup, boundary: Tuple[Tuple[int, int, int], ...] = ()):
        self.stabilizer = stabilizer
        self.boundary = boundary


class GCWData:
    """Orbit-cell data of a finite-type equivariant CW complex.

    `validate` checks the cells and builds ``form``, the `modres.OrbitForm`
    of orbit entries (tgt, a^-1, coeff) that `bredon_complex` tensors; the
    form's own check refuses a formal boundary squared that is nonzero."""

    FORMAT_VERSION = 1

    def __init__(self, group: FiniteGroup, cells: Sequence[Sequence[GCWCell]]):
        self.group = group
        self.cells = [list(dim) for dim in cells]
        self.validate()

    def dimension(self) -> int:
        return len(self.cells) - 1

    def validate(self):
        G = self.group
        for d, dim_cells in enumerate(self.cells):
            for ci, cell in enumerate(dim_cells):
                if cell.stabilizer.parent is not G:
                    raise ValidationError("stabilizer over a different group")
                if d == 0:
                    if cell.boundary:
                        raise ValidationError("0-cells cannot have a boundary")
                    continue
                for (tgt, a, coeff) in cell.boundary:
                    if not (0 <= tgt < len(self.cells[d - 1])):
                        raise ValidationError(
                            f"cell {ci} in dimension {d} hits a missing cell"
                        )
                    if not (0 <= a < G.order):
                        raise ValidationError(
                            f"boundary entry of cell {ci} in dimension {d} has "
                            f"a = {a}, not an element of the group"
                        )
                    tset = self.cells[d - 1][tgt].stabilizer.eset
                    for x in cell.stabilizer.elements:
                        if G.conjugate(G.inverse[a], x) not in tset:
                            raise ValidationError(
                                f"boundary entry of cell {ci} in dimension {d} "
                                "is not an orbit map"
                            )
        # the orbit entries (tgt, a^-1, coeff) that bredon_complex tensors;
        # each entry is an orbit map, so every boundary is fixed by its
        # cell's stabilizer and only a square can fail
        inv = G.inverse
        self.form = OrbitForm(
            [[cell.stabilizer for cell in dim_cells] for dim_cells in self.cells],
            [
                [[(tgt, inv[a], c) for tgt, a, c in cell.boundary] for cell in dim_cells]
                for dim_cells in self.cells[1:]
            ],
        )

    # -- JSON wire format

    def to_json(self) -> dict:
        return {
            "format_version": self.FORMAT_VERSION,
            "dimensions": [
                [
                    {
                        "stabilizer": list(cell.stabilizer.generators()),
                        "boundary": [
                            {"cell": t, "a": a, "coeff": c}
                            for (t, a, c) in cell.boundary
                        ],
                    }
                    for cell in dim_cells
                ]
                for dim_cells in self.cells
            ],
        }

    @classmethod
    def from_json(cls, group: FiniteGroup, doc: dict) -> "GCWData":
        if doc.get("format_version") != cls.FORMAT_VERSION:
            raise ValidationError("unsupported cell-data format version")
        cells: List[List[GCWCell]] = []
        stabilizers: Dict[Tuple[int, ...], Subgroup] = {}  # by generator tuple
        for dim_cells in doc["dimensions"]:
            level = []
            for cell in dim_cells:
                gens = tuple(
                    _check_int(g, "stabilizer generator") for g in cell.get("stabilizer", [])
                )
                stab = stabilizers.get(gens)
                if stab is None:
                    stab = stabilizers[gens] = group.subgroup_generated(gens)
                bdry = tuple(
                    (
                        _check_int(e["cell"], "boundary cell"),
                        _check_int(e["a"], "boundary a"),
                        _check_int(e["coeff"], "boundary coeff"),
                    )
                    for e in cell.get("boundary", [])
                )
                level.append(GCWCell(stab, bdry))
            cells.append(level)
        return cls(group, cells)


def bredon_complex(
    x: GCWData,
    coefficients: Union[CoefficientSystem, GModule],
    rank_cap: int = DEFAULT_RANK_CAP,
) -> PresentedComplex:
    """The Bredon chain complex C_*(X) tensor_Or(G) F (Bredon, LNM 34,
    1967; Lueck, LNM 1408, section 9): degree d is the direct sum of the
    values at the d-cell stabilizers.  F is a `CoefficientSystem`, whose
    category must hold every stabilizer, or a `GModule` M standing for
    K |-> M_K.  A boundary entry (tgt, a, coeff) sits at a^-1 * tgt (the
    cell at coset g is g * (its representative cell), so its entry sits at
    the coset g a^-1 of the target's stabilizer): the orbit entry
    (tgt, a^-1, coeff) of ``x.form``, checked when the cell data was built,
    which `modres.tensor_orbit_complex` lays out in blocks."""
    if isinstance(coefficients, CoefficientSystem):
        family = set(coefficients.category.objects)
    elif coefficients.group is not x.group:
        raise ValidationError("module over a different group")
    else:
        family = None
    for d, stabs in enumerate(x.form.stabilizers):
        total = 0
        for stab in stabs:
            if family is not None and stab not in family:
                raise ValidationError(f"stabilizer {list(stab.elements)} outside the family")
            if family is None:  # a module's budget is its rank per cell
                total += coefficients.rank
            else:
                total += coefficients.orbit_value(stab)[0]
        if total > rank_cap:
            raise BudgetError(f"equivariant chain group in dimension {d}", total, rank_cap)
    return tensor_orbit_complex(x.form, coefficients)


def bredon_homology(
    x: GCWData,
    coefficients: Union[CoefficientSystem, GModule],
    degree: int,
    rank_cap: int = DEFAULT_RANK_CAP,
) -> FgAbGroup:
    _check_int(degree, "degree")
    _check_int(rank_cap, "rank_cap")
    return bredon_complex(x, coefficients, rank_cap).homology(degree)


def takasu_pair_complex(
    h: Subgroup,
    length: int,
    rank_cap: int = DEFAULT_RANK_CAP,
) -> GCWData:
    """Equivariant cell data for the space obtained from the standard free
    contractible complex by collapsing each coset copy of the subgroup's
    contractible complex to a cone point: one fixed orbit of 0-cells and
    free orbits of tuple cells in higher dimensions."""
    G = h.parent
    inv = G.inverse
    for d in range(1, length + 1):
        count = G.order ** d - h.order ** d
        if count > rank_cap:
            raise BudgetError(
                f"pair complex cells in dimension {d} for {G.label}", count, rank_cap
            )
    trivial = G.trivial_subgroup()
    cells: List[List[GCWCell]] = [[GCWCell(h)]]
    # the d-cells are the degree-(d-1) generators of `takasu_resolution`,
    # with each translate g recorded as g^-1
    for tuples, bounds in _relative_bar_levels(G, h, length):
        if bounds:
            cells.append([GCWCell(trivial, tuple((t, inv[a], c) for t, a, c in b)) for b in bounds])
        else:
            cells.append([GCWCell(trivial, ((0, inv[g], 1), (0, 0, -1))) for (g,) in tuples])
    return GCWData(G, cells)
