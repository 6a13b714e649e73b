"""One orbit-cell builder for module and coefficient-system coefficients.

`bredon_complex` lays out no blocks of its own: it hands the cells, in
orbit form, to `modres.tensor_orbit_complex`.  The reference here is the
assembly `bredon_complex` had before, kept as it was: with a coefficient
system, the shared builder must give the same boundaries and relation
blocks.  The CLI `bredon` job tensors the cells with its module directly
and must answer as the system route does, from one complex per job.
"""

import json
from typing import Dict, List, Tuple

import pytest

import relhom as R
from relhom import GCWCell, GCWData, GModule, IntMatrix, cli
from relhom.errors import BudgetError, ValidationError
from relhom.exactla import PresentedComplex
from relhom.groups import SubgroupFamily, all_subgroups, is_subconjugate
from relhom.modres import DEFAULT_RANK_CAP


def reference_bredon_complex(x, system, rank_cap=DEFAULT_RANK_CAP):
    """The assembly `bredon_complex` made with its own offsets, relation
    blocks and boundary loop (reading the system's values directly)."""
    cat = system.category
    obj_set = set(cat.objects)
    ranks: List[int] = []
    offsets: List[List[int]] = []
    rel_blocks: Dict[int, List[Tuple[int, IntMatrix]]] = {}
    for d, dim_cells in enumerate(x.cells):
        offs = []
        total = 0
        blocks = []
        for cell in dim_cells:
            if cell.stabilizer not in obj_set:
                raise ValidationError(
                    f"stabilizer {list(cell.stabilizer.elements)} outside the family"
                )
            offs.append(total)
            rank, rel = system.values[cell.stabilizer]
            if rel is not None and rel.cols:
                blocks.append((total, rel))
            total += rank
        if total > rank_cap:
            raise BudgetError(f"equivariant chain group in dimension {d}", total, rank_cap)
        ranks.append(total)
        offsets.append(offs)
        if blocks:
            rel_blocks[d] = blocks
    bounds: Dict[int, IntMatrix] = {}
    for d in range(1, len(x.cells)):
        out: List[Dict[int, int]] = [{} for _ in range(ranks[d])]
        for ci, cell in enumerate(x.cells[d]):
            coff = offsets[d][ci]
            for (tgt, a, coeff) in cell.boundary:
                mor = cat.morphism(cell.stabilizer, x.cells[d - 1][tgt].stabilizer, a)
                roff = offsets[d - 1][tgt]
                for j, mcol in enumerate(system.matrix(mor)._cols):
                    col = out[coff + j]
                    for i, v in mcol.items():
                        w = col.get(roff + i, 0) + coeff * v
                        if w:
                            col[roff + i] = w
                        else:
                            col.pop(roff + i, None)
        bounds[d] = IntMatrix._from_sparse_columns(out, ranks[d - 1])
    return PresentedComplex(0, ranks, bounds, rel_blocks)


def _pair(name):
    if name == "C4>C2":
        return R.cyclic_group(4).subgroup_generated([2])
    if name == "C6>C3":
        return R.cyclic_group(6).subgroup_generated([2])
    s3 = R.symmetric_group(3)
    return s3.subgroup_generated([next(g for g in s3.elements() if s3.element_order(g) == 2)])


COEFFICIENTS = {
    "Z": lambda h: GModule.trivial(h.parent),
    "Z/2": lambda h: GModule.trivial_mod(h.parent, 2),
    "Z[G/H]": lambda h: GModule.permutation(h),
    "regular": lambda h: GModule.regular(h.parent),
}
MODULI = {"Z": 0, "Z/2": 2}
PAIRS = ("C4>C2", "C6>C3", "S3>C2")


def _stabilizer_category(x):
    """The orbit category on every subgroup subconjugate to a cell
    stabilizer, as the CLI built it."""
    g = x.group
    stabs = {c.stabilizer for level in x.cells for c in level}
    fam = SubgroupFamily(
        g,
        {k for k in all_subgroups(g) if any(is_subconjugate(k, s) for s in stabs)},
    )
    return R.build_orbit_category(g, fam)


def _assert_same(got, want):
    assert got.ranks == want.ranks
    for n in range(len(want.ranks)):
        assert got.boundary(n) == want.boundary(n), n
        assert got.relations(n) == want.relations(n), n
    assert got._relation_blocks == want._relation_blocks


@pytest.fixture(scope="module", params=PAIRS)
def pair_cells(request):
    h = _pair(request.param)
    x = R.takasu_pair_complex(h, 2)
    return h, x, _stabilizer_category(x)


@pytest.mark.parametrize("coeff", sorted(COEFFICIENTS))
def test_system_route_matches_the_old_assembly(pair_cells, coeff):
    h, x, cat = pair_cells
    m = COEFFICIENTS[coeff](h)
    systems = [R.coinvariants_system(m, cat)]
    if coeff in MODULI:
        systems.append(R.constant_system(cat, MODULI[coeff]))
    for system in systems:
        _assert_same(R.bredon_complex(x, system), reference_bredon_complex(x, system))
    # the module itself gives the same groups (its blocks are a(a), the
    # system's a(rep) of the same class, equal modulo the relations)
    direct = R.bredon_complex(x, m)
    for n in range(len(x.cells)):
        assert direct.homology(n) == R.bredon_homology(x, systems[0], n), n


def test_constant_system_is_the_trivial_module_system(pair_cells):
    _h, _x, cat = pair_cells
    for k, m in ((0, GModule.trivial(cat.group)), (3, GModule.trivial_mod(cat.group, 3))):
        const = R.constant_system(cat, k)
        coinv = R.coinvariants_system(m, cat)
        assert const.values == coinv.values
        assert const.maps == coinv.maps


def _fixed_circle():
    """C2 acting on two fixed points A, B joined by two fixed edges, with a
    free orbit of points {p, tp} and a free orbit of edges from A to p.
    The fixed set is a circle."""
    c2 = R.cyclic_group(2)
    full, triv = c2.full_subgroup(), c2.trivial_subgroup()
    cells = [
        [GCWCell(triv), GCWCell(full), GCWCell(full)],
        [
            GCWCell(full, ((2, 0, 1), (1, 0, -1))),
            GCWCell(triv, ((0, 0, 1), (1, 0, -1))),
            GCWCell(full, ((2, 0, 1), (1, 0, -1))),
        ],
    ]
    return GCWData(c2, cells)


def test_system_with_ranks_that_differ_between_objects():
    # Z at G/G and 0 at G/1: only the fixed cells count, so the complex is
    # C_0 = Z(A) + Z(B), C_1 = Z(e1) + Z(e2) with d e_i = B - A, the
    # cellular chains of the fixed circle: H_0 = Z, H_1 = Z
    x = _fixed_circle()
    c2 = x.group
    full, triv = c2.full_subgroup(), c2.trivial_subgroup()
    cat = R.build_orbit_category(c2, SubgroupFamily(c2, [triv, full]))
    rank = {triv: 0, full: 1}
    values = {obj: (rank[obj], None) for obj in cat.objects}
    maps = {
        mor: IntMatrix.zeros(rank[tgt], rank[src])
        if rank[src] == 0 or rank[tgt] == 0
        else IntMatrix.identity(1)
        for src in cat.objects
        for tgt in cat.objects
        for mor in cat.hom(src, tgt)
    }
    system = R.CoefficientSystem(cat, values, maps)
    cx = R.bredon_complex(x, system)
    assert cx.ranks == [2, 2]
    assert cx.boundary(1) == IntMatrix([[-1, -1], [1, 1]])
    assert [str(cx.homology(n)) for n in range(3)] == ["Z", "Z", "0"]
    _assert_same(cx, reference_bredon_complex(x, system))


def test_module_over_another_group_is_refused():
    x = _fixed_circle()
    with pytest.raises(ValidationError, match="module over a different group"):
        R.bredon_complex(x, GModule.trivial(R.cyclic_group(2)))


CLI_KINDS = {
    "trivial_Z": ({"kind": "trivial_Z"}, lambda h: GModule.trivial(h.parent)),
    "Z/3": ({"kind": "trivial_Zmod", "k": 3}, lambda h: GModule.trivial_mod(h.parent, 3)),
    "regular": ({"kind": "regular"}, lambda h: GModule.regular(h.parent)),
}
GROUP_DOCS = {
    "C4>C2": ({"kind": "cyclic", "n": 4}, [2]),
    "C6>C3": ({"kind": "cyclic", "n": 6}, [2]),
    "S3>C2": ({"kind": "symmetric", "n": 3}, [1]),
}


def _bredon_job(pair, kind, **extra):
    group_doc, gens = GROUP_DOCS[pair]
    g = R.make_group(group_doc["kind"], group_doc["n"])
    x = R.takasu_pair_complex(g.subgroup_generated(gens), 2)
    return dict(
        {
            "command": "bredon",
            "group": group_doc,
            "complex": x.to_json(),
            "coefficients": CLI_KINDS[kind][0],
            "degrees": "0..3",
            "output": "json",
        },
        **extra,
    )


def _run(tmp_path, capsys, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = cli.main(["--job", str(path)])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("pair", sorted(GROUP_DOCS))
@pytest.mark.parametrize("kind", sorted(CLI_KINDS))
def test_cli_bredon_matches_the_system_route(monkeypatch, tmp_path, capsys, pair, kind):
    calls = []
    real = cli.bredon_complex

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "bredon_complex", counted)
    code, doc = _run(tmp_path, capsys, _bredon_job(pair, kind))
    assert code == cli.EXIT_OK
    assert len(calls) == 1
    # the system route, on the group and cells the job parsed
    x, m = calls[0][0], calls[0][1]
    assert m.value_key() == CLI_KINDS[kind][1](x.cells[0][0].stabilizer).value_key()
    cat = _stabilizer_category(x)
    if kind == "trivial_Z":
        system = R.constant_system(cat)
    elif kind == "Z/3":
        system = R.constant_system(cat, 3)
    else:
        system = R.coinvariants_system(m, cat)
    want = [{"degree": n, "group": str(R.bredon_homology(x, system, n))} for n in range(4)]
    assert doc["results"]["rows"] == want


@pytest.mark.parametrize(
    "cap,message",
    [
        (10, "equivariant chain group in dimension 2 needs rank 48, exceeding the budget cap 10"),
        (5, "equivariant chain group in dimension 1 needs rank 8, exceeding the budget cap 5"),
        # the fixed 0-cell's value Z[C2\C4] has rank 2, but a module's
        # budget counts its rank, 4, per cell
        (3, "equivariant chain group in dimension 0 needs rank 4, exceeding the budget cap 3"),
    ],
)
def test_capped_cli_bredon_job_reports_the_first_dimension_over(tmp_path, capsys, cap, message):
    job = _bredon_job("C4>C2", "regular", budget={"rank_cap": cap})
    code, doc = _run(tmp_path, capsys, job)
    assert code == cli.EXIT_BUDGET
    assert doc == {"error": {"kind": "budget", "message": message}}
