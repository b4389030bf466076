"""Exact tree models of plane-curve pairs and their polar roots.

Build the contact-order tree of a pair of germs, predict where the
Jacobian's Newton-Puiseux roots climb and leave it, verify every prediction
against an independent expansion of the Jacobian itself, and report the
factor groups with their invariant intersection multiplicities.  All
arithmetic is exact, over a cyclotomic-rational coefficient field.
"""

from .errors import (
    DivisionByZero,
    ExprSyntaxError,
    FieldTooSmall,
    Indeterminate,
    InputError,
    InputViolatesSimplicity,
    InternalInconsistency,
    LimitationError,
    NeedsLargerField,
    NegativeExponentWithoutLaurent,
    NoCover,
    NoGenericFound,
    NotApplicable,
    PlacementUnresolved,
    PolartreeError,
    SNotLargeEnough,
    TruncationBudgetExceeded,
    TruncationTooShort,
    UnresolvedBranch,
    ZeroPolynomial,
)
from .exactalg import (
    BiPoly,
    CycloField,
    CycloRational,
    UniPoly,
    poly_gcd,
    roots_in_field,
    squarefree_decompose,
)
from .puiseux import (
    INF,
    ExpandedRoot,
    PuiseuxSeries,
    contact_order,
    order_along_arc,
)
from .npsolve import (
    Expansion,
    expand_roots,
    multiplicity_split,
)
from .treemodel import (
    ArcTrace,
    Bar,
    Tree,
    Trunk,
    basics_of,
    build_tree,
    conjugacy_classes,
    cover_of,
    render_tree,
    repair_of,
)
from .baranalysis import (
    BarAnalysis,
    analyze_all,
    analyze_bar,
    compute_nu,
    ground_residual,
    mero_function,
    predict_C,
    total_via_basics,
    weeds,
)
from .jacoracle import (
    Comparison,
    OracleResult,
    VerificationReport,
    jacobian,
    polar_roots,
    verify,
)
from .factorrep import (
    ClassReport,
    EquivalenceVerdict,
    FactorReport,
    ReducedPair,
    compare_pairs,
    generic_coordinates,
    group_factors,
    intersection_mults,
    meromorphic_reduce,
)
from .parsing import parse_expression
from .pipeline import (
    Options,
    Run,
    analyze_pair,
    analyze_polys,
    render_run,
    run_document,
)
from .fixtures import FIXTURES, Fixture, get_fixture

__version__ = "0.1.0"
