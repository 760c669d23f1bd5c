"""binsums: exact verification and discovery of periodic weighted binomial sums.

The package evaluates identities of the shape

    sequence(n) == center * C(2n, n) + sum_{k>=1} C(2n, n+k) * w(k mod M)

(and several related shapes) in arbitrary-precision integer arithmetic,
checks them against independent recurrence oracles and bundled OEIS
b-files, and can solve exactly for the weight table that fits a target
sequence.
"""
from importlib import import_module

from .core import RecurrenceSpec, binomial, kronecker
from .cyclo import IntPolynomial, chebyshev_monic, power_sums
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
from .sequences import SequenceOracle, registry, seq_eval

# names of the modules that only `derive` and `oeis-check` run, imported on
# first read, so that no other command compiles them
_LAZY = {
    "ProfileSolution": "discovery",
    "derive_profile": "discovery",
    "identity_from_profile": "discovery",
    "AlignmentReport": "oeis",
    "compare": "oeis",
    "load_fixture": "oeis",
    "parse_bfile": "oeis",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)

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
