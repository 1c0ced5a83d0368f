"""The package's record classes: constructors, equality, repr, immutability.

Each record keeps the constructor of the declaration it replaced: the
field names in positional order, the same defaults (a new dict for each
:class:`~hkgeo.models.Model`), equality over the fields between records
of one class, a ``Name(field=value, ...)`` repr, and no assignment after
construction.  ``SampleSpec``, still a dataclass, is held to the same.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from hkgeo import checks, fields, kahler, mechanics, models, sampling

#: (class, field names in constructor order, required arguments, defaults of the rest)
RECORDS = [
    (checks.CheckReport, ("check_id", "description", "samples", "max_abs_error", "tolerance",
                          "passed", "elapsed_ms", "error"),
     ("id", "what", 3, 0.5, 1.0, True, 7), (None,)),
    (checks.RunManifest, ("seed", "samples", "a", "a_sweep", "version", "checks"),
     (1, 2, 1.0, (0.5, 2.0), "v", ()), ()),
    (checks.CheckContext, ("seed", "samples", "a"), (1, 2, 1.0), ()),
    (fields.Chart, ("names",), (("x", "y"),), ()),
    (kahler.Triple, ("omega_I", "omega_J", "omega_K", "I", "J", "K", "g"),
     ("wI", "wJ", "wK", "I", "J", "K", "g"), ()),
    (mechanics.PhasePoint, ("q", "p"), ((1.0, 2.0), (3.0, 4.0)), ()),
    (models.ScalarFieldSpec, ("name", "fn", "box", "exclusions"),
     ("f", abs, ((0.0, 1.0),)), ((),)),
    (models.Model, ("name", "a", "chart", "metric", "forms", "killing", "embeddings",
                    "targets", "box", "exclusions", "cyclic", "fiber_index", "invariant",
                    "level", "cartesian"),
     ("m", 1.0, fields.Chart(("x",)), "g"),
     ({}, {}, {}, {}, (), (), (), None, None, None, None)),
    (sampling.Exclusion, ("name", "predicate"), ("n", abs), ()),
    (sampling.SampleSpec, ("box", "count", "seed", "exclusions"), (((0.0, 1.0),), 5),
     (0, ())),
]
IDS = [r[0].__name__ for r in RECORDS]


@pytest.mark.parametrize("cls, names, args, defaults", RECORDS, ids=IDS)
def test_constructor_order_defaults_and_keywords(cls, names, args, defaults):
    rec = cls(*args)
    assert [getattr(rec, n) for n in names] == [*args, *defaults]
    assert cls(**dict(zip(names, args))) == rec
    full = cls(*args, *defaults)
    assert full == rec and cls(**dict(zip(names, [*args, *defaults]))) == rec
    with pytest.raises(TypeError):
        cls(*args, *defaults, None)  # no field beyond the declared ones


@pytest.mark.parametrize("cls, names, args, defaults", RECORDS, ids=IDS)
def test_equality_is_over_the_fields(cls, names, args, defaults):
    rec = cls(*args)
    assert rec == cls(*args) and not rec != cls(*args)
    other = list(args)
    other[0] = other[0] + 1 if isinstance(other[0], (int, float)) else "other"
    if cls is mechanics.PhasePoint:
        other[0] = (1.0, 5.0)
    if cls is sampling.SampleSpec:
        other[0] = ((0.0, 2.0),)
    assert rec != cls(*other)
    assert rec != tuple(args)  # a record equals only records of its own class


@pytest.mark.parametrize("cls, names, args, defaults", RECORDS, ids=IDS)
def test_repr_names_every_field_in_order(cls, names, args, defaults):
    values = [*args, *defaults]
    assert repr(cls(*args)) == (
        f"{cls.__qualname__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")")


def test_repr_examples():
    assert repr(fields.Chart(("x", "y"))) == "Chart(names=('x', 'y'))"
    assert repr(sampling.SampleSpec(((0.0, 1.0),), 5)) == (
        "SampleSpec(box=((0.0, 1.0),), count=5, seed=0, exclusions=())")
    assert repr(checks.CheckReport("id", "what", 3, 0.5, 1.0, True, 7)) == (
        "CheckReport(check_id='id', description='what', samples=3, max_abs_error=0.5, "
        "tolerance=1.0, passed=True, elapsed_ms=7, error=None)")


@pytest.mark.parametrize("cls, names, args, defaults", RECORDS, ids=IDS)
def test_frozen_records_reject_assignment_and_hash_by_value(cls, names, args, defaults):
    rec = cls(*args)
    for name in names:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.other = 1  # no field of that name
    assert [getattr(rec, n) for n in names] == [*args, *defaults]
    if cls is not models.Model:  # a model's dict fields have no hash
        assert hash(rec) == hash(cls(*args))


@pytest.mark.parametrize("cls, names, args, defaults", RECORDS, ids=IDS)
def test_records_copy_and_pickle_to_equal_records(cls, names, args, defaults):
    rec = cls(*args)
    assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_model_is_read_only_with_a_new_dict_per_instance():
    chart = fields.Chart(("x",))
    one, two = models.Model("m", 1.0, chart, "g"), models.Model("m", 1.0, chart, "g")
    for name in ("forms", "killing", "embeddings", "targets"):
        assert getattr(one, name) == {} and getattr(one, name) is not getattr(two, name)
    one.targets["t"] = 1.0  # a dict field is its own object: filling one fills no other
    assert two.targets == {} and one != two
    with pytest.raises(TypeError):
        hash(one)  # a dict field has no hash


def test_check_report_dict_drops_only_a_missing_error():
    row = checks.CheckReport("id", "what", 3, 0.5, 1.0, False, 7)
    assert row.to_dict() == {"check_id": "id", "description": "what", "samples": 3,
                             "max_abs_error": 0.5, "tolerance": 1.0, "passed": False,
                             "elapsed_ms": 7}
    raised = checks.CheckReport("id", "what", 0, np.nan, np.nan, False, 1, "E: m")
    assert list(raised.to_dict()) == list(RECORDS[0][1]) and raised.to_dict()["error"] == "E: m"
    # a non-finite number is null in the report and NaN on the record
    assert raised.to_dict()["max_abs_error"] is None and raised.to_dict()["tolerance"] is None
    assert np.isnan(raised.max_abs_error) and np.isnan(raised.tolerance)


def test_sample_spec_is_rebuilt_by_dataclasses_replace():
    # the benchmark's tracer swaps in counting exclusions this way
    spec = sampling.SampleSpec(((0.0, 1.0),), 5, 2, (sampling.Exclusion("n", abs),))
    other = dataclasses.replace(spec, exclusions=())
    assert other == sampling.SampleSpec(((0.0, 1.0),), 5, 2)
    with pytest.raises(ValueError, match=r"^count must be >= 1, got 0$"):
        dataclasses.replace(spec, count=0)


def test_sample_spec_keeps_its_box_as_float_pairs():
    one, two = (sampling.SampleSpec(np.array([[0.0, 1.0]]), 5) for _ in range(2))
    assert one.box == ((0.0, 1.0),) and type(one.box[0][0]) is float
    assert one == two and hash(one) == hash(two)
    assert one != sampling.SampleSpec(np.array([[0.0, 2.0]]), 5)


def test_array_fields_compare_by_shape_and_entries():
    eye = np.eye(4)
    triple = kahler.Triple(*[eye] * 7)
    assert triple == kahler.Triple(*[eye.copy() for _ in range(7)])
    assert triple != kahler.Triple(*[eye] * 6, 2.0 * eye)
    assert triple != kahler.Triple(*[eye] * 6, np.eye(3))
    assert mechanics.PhasePoint(np.zeros((2, 3)), np.ones((2, 3))) == (
        mechanics.PhasePoint(np.zeros((2, 3)), np.ones((2, 3))))


@pytest.mark.parametrize("args, message", [
    ((((0.0, 1.0),), 0), r"^count must be >= 1, got 0$"),
    ((((0.0, 1.0), (2.0, 2.0)), 3), r"^empty interval 2\.0 >= 2\.0 in coordinate 1$"),
    ((np.array([[1.0, 0.5]]), 3), r"^empty interval np\.float64\(1\.0\) >= np\.float64\(0\.5\) "
                                  r"in coordinate 0$"),
])
def test_sample_spec_validation_messages(args, message):
    with pytest.raises(ValueError, match=message):
        sampling.SampleSpec(*args)


@pytest.mark.parametrize("q, p, message", [
    ((1.0, 2.0), (3.0,), r"^q and p must have the same length$"),
    (np.zeros((4, 2)), np.zeros((4, 3)), r"^q and p must have the same length$"),
    ((1.0, np.nan), (3.0, 4.0), r"^non-finite phase-space entries$"),
    (np.zeros((2, 1)), np.array([[0.0], [np.inf]]), r"^non-finite phase-space entries$"),
])
def test_phase_point_validation_messages(q, p, message):
    with pytest.raises(ValueError, match=message):
        mechanics.PhasePoint(q, p)
