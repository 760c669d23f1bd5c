"""binsums: exact verification and discovery of periodic weighted binomial sums.

The package evaluates identities of the shape

    sequence(n) == center * C(2n, n) + sum_{k>=1} C(2n, n+k) * w(k mod M)

(and several related shapes) in arbitrary-precision integer arithmetic,
checks them against independent recurrence oracles and bundled OEIS
b-files, and can solve exactly for the weight table that fits a target
sequence.
"""
from .core import RecurrenceSpec, binomial, central_row, kronecker, rec_eval
from .cyclo import (
    CycloVec,
    IntPolynomial,
    char_poly_from_roots,
    chebyshev_monic,
    cos_power_vector,
    centered_reduction,
    power_sum,
    power_sums,
    squared_root_poly,
)
from .discovery import ProfileSolution, derive_profile, identity_from_profile, profile_from_angles
from .identities import (
    Identity,
    OracleRef,
    VerificationReport,
    builtin_registry,
    identity_json,
    registry_json,
    rhs_eval,
    rhs_values,
    verify,
)
from .oeis import AlignmentReport, BFileTable, compare, fetch, load_fixture, parse_bfile
from .quadratic import QuadValue
from .sequences import SequenceOracle, registry, seq_eval, seq_slice

__version__ = "0.1.0"

__all__ = [
    "AlignmentReport",
    "BFileTable",
    "CycloVec",
    "Identity",
    "IntPolynomial",
    "OracleRef",
    "ProfileSolution",
    "QuadValue",
    "RecurrenceSpec",
    "SequenceOracle",
    "VerificationReport",
    "binomial",
    "builtin_registry",
    "central_row",
    "centered_reduction",
    "char_poly_from_roots",
    "chebyshev_monic",
    "compare",
    "cos_power_vector",
    "derive_profile",
    "fetch",
    "identity_from_profile",
    "identity_json",
    "kronecker",
    "load_fixture",
    "parse_bfile",
    "power_sum",
    "power_sums",
    "profile_from_angles",
    "rec_eval",
    "registry",
    "registry_json",
    "rhs_eval",
    "rhs_values",
    "seq_eval",
    "seq_slice",
    "verify",
]
