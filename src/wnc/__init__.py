"""Finite-ring toolkit: Cayley-table rings, structural sets, and
certificate-producing deciders for clean / nil clean / weak nil clean and
related decompositions, plus an executable suite of structural checks."""

__version__ = "0.1.0"

from .construct import (
    Corner,
    CyclicModule,
    EqDiag,
    FactorPermutation,
    Idealize,
    IdentityEndo,
    Mat,
    Prod,
    Quot,
    SelfModule,
    SkewPolyQuot,
    Tri,
    Zn,
    build,
    build_text,
    corner,
    eq_diag_subring,
    expr_label,
    parse_ring_expr,
    quotient,
    skew_poly_quot,
)
from .decomp import (
    DecompCert,
    DecompKind,
    RingVerdict,
    cert_is_valid,
    find_decomp,
    is_exchange,
    is_strongly_pi_regular,
    iter_decomps,
    lifts_idempotents,
    lifts_idempotents_weakly,
    nil_clean_count_bound,
    ring_verdict,
    verdict_to_json,
    zero_one_subset,
)
from .errors import (
    CapacityError,
    CrossRingError,
    ExprSyntaxError,
    InvalidDimensionError,
    InvalidEndomorphismError,
    InvalidIdealError,
    InvalidIdempotentError,
    InvalidModuleError,
    InvalidSubsetError,
    RingError,
    TableFormatError,
)
from .structure import (
    StructureCache,
    Subset,
    all_ideals,
    ann_left,
    ann_right,
    element_of,
    ideal_generated_by,
    is_subring_unital,
    maximal_ideals,
    structure,
    subset,
)
from .table import AxiomReport, RingTable, ring_table, tables_to_csv, verify_ring_axioms
from .theorems import (
    default_corpus,
    parse_corpus,
    report_to_json,
    run_suite,
    traceability_matrix,
    zn_classification,
)
