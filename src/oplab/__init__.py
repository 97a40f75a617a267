"""oplab: exact arithmetic for overpartition statistics and truncated
q-series identities.

The package has four layers: series (truncated integer power series and
q-product building blocks), overpartitions (enumeration and minimal-
excludant statistics), bijections (the constructive weight maps), and
identities (the registry of verifiable statements with its reporting
harness). The cli module wires them to a command line.
"""

from .series import (
    TruncatedSeries,
    gauss_theta,
    monomial,
    one,
    overpartition_gf,
    partition_gf,
    pentagonal_series,
    poch_ratio,
    qproduct,
    theta_partial,
    zero,
)
from .overpartitions import (
    BadParamsError,
    DEFAULT_ENUMERATION_CAP,
    ENUMERATION_CAP_ENV,
    EnumerationCapError,
    MexQuery,
    MEX_2_1,
    Overpartition,
    Part,
    enumerate_overpartitions,
    enumeration_cap,
    mbar,
    mk_stat,
    nbar,
    op21,
    op_class_counts,
    overline_mex,
    partition_count,
    pbar,
)
from .bijections import (
    BijectionTrace,
    SetLabel,
    c_witness,
    check_staircase,
    check_weight_down,
    classify,
    map_a_to_b,
    map_b_to_a,
    staircase_insert,
    staircase_remove,
)
from .identities import (
    IdentityDescriptor,
    MAX_ORDER,
    UnknownIdentityError,
    VerificationReport,
    expand_grid,
    get_identity,
    list_identities,
    run_default_suite,
    verify_enumerative,
    verify_identity,
    verify_inequality,
    verify_series,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # series
    "TruncatedSeries",
    "zero",
    "one",
    "monomial",
    "qproduct",
    "pentagonal_series",
    "theta_partial",
    "gauss_theta",
    "partition_gf",
    "overpartition_gf",
    "poch_ratio",
    # overpartitions
    "Part",
    "Overpartition",
    "MexQuery",
    "MEX_2_1",
    "BadParamsError",
    "EnumerationCapError",
    "DEFAULT_ENUMERATION_CAP",
    "ENUMERATION_CAP_ENV",
    "enumeration_cap",
    "enumerate_overpartitions",
    "pbar",
    "partition_count",
    "overline_mex",
    "op_class_counts",
    "op21",
    "mbar",
    "nbar",
    "mk_stat",
    # bijections
    "SetLabel",
    "BijectionTrace",
    "classify",
    "map_a_to_b",
    "map_b_to_a",
    "c_witness",
    "staircase_insert",
    "staircase_remove",
    "check_weight_down",
    "check_staircase",
    # identities
    "IdentityDescriptor",
    "VerificationReport",
    "UnknownIdentityError",
    "MAX_ORDER",
    "list_identities",
    "get_identity",
    "expand_grid",
    "verify_series",
    "verify_enumerative",
    "verify_inequality",
    "verify_identity",
    "run_default_suite",
]
