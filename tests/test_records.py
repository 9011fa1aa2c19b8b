"""The package's plain data classes: construction, equality, hashing, freezing, pickling.

These classes carry reports and pickled scan tasks, so callers rely on what
``@dataclass`` gave them: positional and keyword construction with defaults,
a fresh list per instance for list fields, field-wise equality within one
class, field hashes on the frozen classes and none on the others.
"""

import pickle
from fractions import Fraction
from functools import partial

import pytest

from quadorbit.algebra.factorint import Factorization
from quadorbit.census import CensusReport, CensusRow, CoefficientBox
from quadorbit.certify import CertificateChain, StabilityEvidence
from quadorbit.dynamics import FiniteOrbitAnswer, GeneratorSet, OrbitCaps, OrbitStatus, SequenceCoding
from quadorbit.primescan import PrimeOrbitResult, PrimeScanReport, ScanRow, ZeroPattern, _scan_range, zero_pattern
from quadorbit.process import ProcessLevel, ProcessReport, SampleReport

TWO_MAPS = GeneratorSet.from_constants([1, 3])
CODING = SequenceCoding((1,), (1, 2))

# One instance of each frozen class and two equal, distinct ones beside it.
EQUAL_PAIRS = {
    "GeneratorSet": (GeneratorSet(constants=(1, Fraction(6, 2))), TWO_MAPS, GeneratorSet.from_constants([1, 4])),
    "SequenceCoding": (SequenceCoding([1], [1, 2]), CODING, SequenceCoding((1,), (2, 1))),
    "PrimeOrbitResult": (
        PrimeOrbitResult("yes", 3),
        PrimeOrbitResult(status="yes", first_index=3),
        PrimeOrbitResult("yes"),
    ),
    "FiniteOrbitAnswer": (FiniteOrbitAnswer("yes", witness=0), FiniteOrbitAnswer("yes", 0), FiniteOrbitAnswer("no")),
}


@pytest.mark.parametrize("a, b, other", list(EQUAL_PAIRS.values()), ids=list(EQUAL_PAIRS))
def test_equal_fields_are_equal_and_hash_alike(a, b, other):
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other
    assert len({a, b, other}) == 2


def test_equality_needs_the_same_class():
    # Both hold ("no", None), but they are different kinds of answer.
    assert PrimeOrbitResult("no") != FiniteOrbitAnswer("no")
    assert PrimeOrbitResult("no") != ("no", None)
    assert ScanRow(10, 4, 4) != CensusRow(10, 4, 4)


@pytest.mark.parametrize(
    "instance",
    [
        ScanRow(100, 12, 25),
        PrimeScanReport(["x^2+1"], "|1", "0"),
        CensusRow(1, Fraction(1, 2), Fraction(1, 4)),
        CensusReport(2, 2, "even"),
        ProcessLevel(1, 3, 4),
        ProcessReport(0, 2, 10, [True, True], "hold"),
        SampleReport(0, 4, 2, ["1/2", "1/2"], {}, {}),
        CertificateChain(["x^2+1"], "|1", "q", 3),
        Factorization(1),
        zero_pattern(TWO_MAPS, CODING, -1),
    ],
    ids=lambda instance: type(instance).__name__,
)
def test_mutable_classes_are_unhashable_and_assignable(instance):
    with pytest.raises(TypeError, match="unhashable"):
        hash(instance)
    field = next(iter(vars(instance)))
    setattr(instance, field, None)
    assert getattr(instance, field) is None


@pytest.mark.parametrize(
    "instance, field",
    [
        (TWO_MAPS, "constants"),
        (CODING, "cycle"),
        (PrimeOrbitResult("no"), "status"),
        (FiniteOrbitAnswer("no"), "witness"),
        (OrbitCaps(), "max_points"),
        (OrbitStatus("escaping"), "cut"),
        (CoefficientBox(2, 3), "B"),
        (StabilityEvidence("failed"), "witness"),
    ],
    ids=lambda x: type(x).__name__ if not isinstance(x, str) else x,
)
def test_frozen_classes_refuse_assignment(instance, field):
    before = getattr(instance, field)
    with pytest.raises(AttributeError):
        setattr(instance, field, None)
    with pytest.raises(AttributeError):
        delattr(instance, field)
    assert getattr(instance, field) == before


@pytest.mark.parametrize(
    "make, fields",
    [
        (lambda: CertificateChain(["x^2+1"], "|1", "q", 3), ("levels", "maximal_levels")),
        (lambda: PrimeScanReport(["x^2+1"], "|1", "0"), ("rows", "excluded", "over_cap")),
        (lambda: CensusReport(2, 2, "even"), ("rows",)),
        (lambda: ProcessReport(0, 2, 10, [True, True], "hold"), ("levels",)),
        (lambda: SampleReport(0, 4, 2, ["1/2", "1/2"], {}, {}), ("certificates",)),
        (lambda: Factorization(1), ("factors",)),
    ],
    ids=["CertificateChain", "PrimeScanReport", "CensusReport", "ProcessReport", "SampleReport", "Factorization"],
)
def test_each_instance_gets_its_own_default_list(make, fields):
    first, second = make(), make()
    for name in fields:
        getattr(first, name).append(1)
        assert getattr(first, name) == [1]
        assert getattr(second, name) == []
        assert getattr(make(), name) == []


def test_constructor_signatures():
    assert OrbitCaps() == OrbitCaps(4096, 10**60)
    assert Factorization(-1, [(2, 3)], 5) == Factorization(sign=-1, cofactor=5, factors=[(2, 3)])
    with pytest.raises(TypeError):
        PrimeOrbitResult()
    with pytest.raises(TypeError):
        PrimeOrbitResult("yes", 3, 4)
    with pytest.raises(TypeError):
        PrimeOrbitResult("yes", first=3)


def test_post_init_still_validates_and_normalizes():
    assert SequenceCoding([1], [1, 2]).prefix == (1,)
    assert GeneratorSet(constants=(Fraction(4, 2),)).constants == (2,)
    with pytest.raises(ValueError, match="cycle must be nonempty"):
        SequenceCoding((1,), ())
    with pytest.raises(ValueError, match="pairwise distinct"):
        GeneratorSet(constants=(1, 1))
    with pytest.raises(ValueError, match="need d >= 1 and B >= 1"):
        CoefficientBox(0, 1)


def test_repr_names_the_class_and_fields():
    assert repr(CODING) == "SequenceCoding(prefix=(1,), cycle=(1, 2))"
    assert repr(PrimeOrbitResult("yes", 3)) == "PrimeOrbitResult(status='yes', first_index=3)"
    assert repr(ScanRow(100, 12, 25)) == "ScanRow(cutoff=100, in_p=12, pi_x=25)"


@pytest.mark.parametrize("a0", [-1, Fraction(1, 6)])
def test_scan_task_survives_a_pickle_round_trip(a0):
    # The primes pool sends exactly this partial to its worker processes.
    pattern = zero_pattern(TWO_MAPS, CODING, a0)
    task = partial(_scan_range, TWO_MAPS, CODING, pattern, 1_000_000)
    copy = pickle.loads(pickle.dumps(task))
    assert copy.args == task.args
    assert isinstance(copy.args[2], ZeroPattern) and copy.args[2] is not pattern
    assert hash(copy.args[0]) == hash(TWO_MAPS) and hash(copy.args[1]) == hash(CODING)
    for bounds in [(2, 5000), (5001, 10_000)]:
        assert copy(bounds) == task(bounds)
