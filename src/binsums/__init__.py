"""binsums: exact verification and discovery of periodic weighted binomial sums.

The package evaluates identities of the shape

    sequence(n) == center * C(2n, n) + sum_{k>=1} C(2n, n+k) * w(k mod M)

(and several related shapes) in arbitrary-precision integer arithmetic,
checks them against independent recurrence oracles and bundled OEIS
b-files, and can solve exactly for the weight table that fits a target
sequence.
"""
from .core import RecurrenceSpec, binomial, kronecker
from .cyclo import IntPolynomial, chebyshev_monic, power_sums
from .discovery import ProfileSolution, derive_profile, identity_from_profile
from .identities import (
    Identity,
    OracleRef,
    VerificationReport,
    builtin_registry,
    find,
    identity_json,
    registry_json,
    rhs_values,
    verify,
)
from .oeis import AlignmentReport, compare, load_fixture, parse_bfile
from .sequences import SequenceOracle, registry, seq_eval

__version__ = "0.1.0"

__all__ = [
    "AlignmentReport",
    "Identity",
    "IntPolynomial",
    "OracleRef",
    "ProfileSolution",
    "RecurrenceSpec",
    "SequenceOracle",
    "VerificationReport",
    "binomial",
    "builtin_registry",
    "chebyshev_monic",
    "compare",
    "derive_profile",
    "find",
    "identity_from_profile",
    "identity_json",
    "kronecker",
    "load_fixture",
    "parse_bfile",
    "power_sums",
    "registry",
    "registry_json",
    "rhs_values",
    "seq_eval",
    "verify",
]
