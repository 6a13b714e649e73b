"""relhom: exact relative homology of pairs of finite groups.

Computes the coset-tuple (standard complex) relative homology and the
Tor-based relative homology of a pair (G, H) of finite groups with module
coefficients, builds the comparison homomorphism between them, certifies
the long exact sequence of the pair, and evaluates equivariant homology of
finite orbit-cell data over a finite orbit category.  All arithmetic is
exact over the integers.
"""

__version__ = "0.1.0"

from .errors import BudgetError, RelhomError, TruncationError, ValidationError
from .exactla import (
    ChainComplex,
    ChainMap,
    FgAbGroup,
    HomologyData,
    IntMatrix,
    IntSolver,
    PresentedChainMap,
    PresentedComplex,
    SmithForm,
    hom_cokernel,
    hom_kernel,
    homology_group,
    hstack,
    induced_map,
    is_isomorphism,
    is_zero_map,
    kernel_basis,
    rank_z,
    sequence_exact_at,
    smith_form,
    smith_invariants,
    solve_integer,
    xgcd,
)
from .groups import (
    CosetSpace,
    FiniteGroup,
    Subgroup,
    SubgroupFamily,
    all_subgroups,
    coset_space,
    cyclic_group,
    dihedral_group,
    direct_product,
    family_generated,
    family_gh,
    fixed_cosets,
    group_from_permutations,
    is_good_triple,
    is_malnormal,
    is_subconjugate,
    make_group,
    subgroup_as_group,
    subgroup_conjugacy_classes,
    symmetric_group,
)
from .modres import (
    Coinvariants,
    FreeResolution,
    GModule,
    GModuleHom,
    HorseshoeData,
    StandardModules,
    coinvariants,
    cyclic_resolution,
    group_homology,
    horseshoe,
    induce_resolution,
    lift_over_resolution,
    quotient_group,
    resolve,
    restriction,
    standard_modules,
    takasu_resolution,
    tensor_free_resolution,
    tensor_gmodule_complex,
    tensor_perm_complex,
    tor,
)
from .bredon import (
    CoefficientSystem,
    GCWCell,
    GCWData,
    OrbitCategory,
    OrbitMorphism,
    bredon_complex,
    bredon_homology,
    build_orbit_category,
    coinvariants_system,
    constant_system,
    takasu_pair_complex,
)
from .pairhom import (
    AdamsonComplex,
    ComparisonData,
    DegreeComparison,
    JModuleReport,
    LESCertificate,
    OracleReport,
    adamson_complex,
    adamson_homology,
    comparison,
    j_module,
    normal_quotient_oracle,
    takasu_homology,
    verify_takasu_les,
)
