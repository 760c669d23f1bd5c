"""core.Frozen against an oracle: each of the package's value classes beside
a frozen dataclass twin, made by dataclasses.make_dataclass with the fields
of the class's __init__ signature.  A value and its twin, holding the same
field values, must print and hash alike, compare alike with values that
differ in one field and with values of another class, and refuse an
assignment or a deletion with the same message."""
import dataclasses
import inspect
import itertools

import pytest

from binsums.core import Frozen
from binsums.cyclo import chebyshev_monic
from binsums.discovery import derive_profile
from binsums.identities import Constant, DiagonalSum, OracleRef, builtin_registry, find, verify
from binsums.oeis import compare, load_fixture
from binsums.sequences import registry

CLASSES = Frozen.__subclasses__()
FIELDS = {cls: [p.name for p in inspect.signature(cls).parameters.values()] for cls in CLASSES}
TWINS = {cls: dataclasses.make_dataclass(cls.__name__, FIELDS[cls], frozen=True)
         for cls in CLASSES}


def twin(x):
    return TWINS[type(x)](**{name: getattr(x, name) for name in FIELDS[type(x)]})


def _instances() -> list:
    """Every registry identity with its terms, the values inside them and
    its domain, every oracle with its recurrence, and one of each report."""
    out = []
    for ident in builtin_registry():
        out += [ident, ident.lhs, ident.domain, *ident.terms]
        out += [v for t in ident.terms for v in vars(t).values() if isinstance(v, Frozen)]
    for oracle in registry().values():
        out.append(oracle)
        if oracle.recurrence is not None:
            out.append(oracle.spec(None if oracle.param_name is None else oracle.param_min))
    out += [chebyshev_monic(5), Constant(5), DiagonalSum(5),
            verify(find("fib-even")[0], 10), derive_profile(OracleRef("fib", a=2), 5),
            compare("pell", load_fixture("A000129")), compare("fib", load_fixture("A000129"))]
    return out


INSTANCES = _instances()
BY_CLASS = {cls: [x for x in INSTANCES if type(x) is cls] for cls in CLASSES}


def test_the_package_has_18_value_classes_each_with_instances():
    assert len(CLASSES) == 18
    assert [cls.__name__ for cls in CLASSES if not BY_CLASS[cls]] == []


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_a_value_prints_and_hashes_as_its_twin(cls):
    for x in BY_CLASS[cls]:
        assert list(vars(x)) == FIELDS[cls]
        assert repr(x) == repr(twin(x))
        assert hash(x) == hash(twin(x))


def _with(x, name: str, value):
    """x with one field replaced, made through the base's setter, so that
    no check of __init__ refuses the value."""
    out = object.__new__(type(x))
    out._set(**{**vars(x), name: value})
    return out


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_a_value_compares_as_its_twin_when_one_field_differs(cls):
    outcomes = set()
    for name in FIELDS[cls]:
        # each value the field takes in the class's instances, and one that equals none
        donors = {id(v): v for v in (getattr(x, name) for x in BY_CLASS[cls])}
        for x in BY_CLASS[cls]:
            tx = twin(x)
            for value in [*donors.values(), object()]:
                y, ty = _with(x, name, value), dataclasses.replace(tx, **{name: value})
                assert (x == y, y == x, x != y) == (tx == ty, ty == tx, tx != ty)
                if x == y:
                    assert hash(x) == hash(y)
                outcomes.add(x == y)
    assert outcomes == ({True, False} if FIELDS[cls] else set())


def test_values_of_two_classes_with_equal_field_tuples_are_unequal_as_their_twins():
    # Constant(5) holds (Fraction(5),) and DiagonalSum(5) holds (5,): equal tuples
    pairs = [(Constant(5), DiagonalSum(5))]
    for a, b in itertools.combinations(CLASSES, 2):
        if len(FIELDS[a]) == len(FIELDS[b]):
            x, y = object.__new__(a), object.__new__(b)
            x._set(**dict.fromkeys(FIELDS[a], 0))
            y._set(**dict.fromkeys(FIELDS[b], 0))
            pairs.append((x, y))
    assert len(pairs) > 1
    for x, y in pairs:
        assert tuple(vars(x).values()) == tuple(vars(y).values())
        assert x.__eq__(y) is NotImplemented and y.__eq__(x) is NotImplemented
        assert (x == y, x != y) == (twin(x) == twin(y), twin(x) != twin(y)) == (False, True)
        assert (x == twin(x), twin(x) == x) == (False, False)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_a_value_refuses_assignment_and_deletion_as_its_twin(cls):
    x = BY_CLASS[cls][0]
    tx = twin(x)
    for name in [*FIELDS[cls], "other"]:
        for change in (lambda v: setattr(v, name, 1), lambda v: delattr(v, name)):
            with pytest.raises(dataclasses.FrozenInstanceError) as expected:
                change(tx)
            with pytest.raises(AttributeError) as got:
                change(x)
            assert str(got.value) == str(expected.value)
    assert repr(x) == repr(tx)  # neither changed
