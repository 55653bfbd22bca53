"""reglang's record classes behave as the `dataclasses` declarations they
replaced: each is checked against a twin made by `make_dataclass` from
the same fields, defaults and frozenness."""

import dataclasses
from dataclasses import field, make_dataclass

import pytest

from reglang._record import record
from reglang.automata import Dfa, LabeledGraph, Nfa, Product
from reglang.errors import AlphabetError
from reglang.graphs import ComponentReport
from reglang.metrics import AxiomReport, CesaroConfig, DistanceResult
from reglang.oracle import OracleBudget
from reglang.regex import Alt, Concat, Empty, Epsilon, Literal, Repeat, Star
from reglang.spectral import ComponentSpectrum, SpectralReport

SPECTRUM = ComponentSpectrum((0, 1), 2, 1.5, 10, 1e-13)

# class, frozen, fields as (name,) or (name, default), and two argument
# tuples: the fields of one instance and of an unequal one
RECORDS = [
    (Nfa, False, [("alphabet",), ("symbols",), ("follow",), ("accepting",)],
     (("a",), (None, "a"), ((1, 1), (0, 0)), frozenset({1})),
     (("a",), (None, "a"), ((1, 1), (0, 0)), frozenset())),
    (Dfa, True, [("alphabet",), ("transitions",), ("accepting",), ("initial", 0)],
     (("a", "b"), ((1, 0), (1, 1)), frozenset({1}), 0),
     (("a", "b"), ((1, 0), (1, 1)), frozenset({1}), 1)),
    (LabeledGraph, True, [("vertices",), ("edges",), ("role",)],
     ((0, 1), ((0, "a", 1),), "trim"), ((0, 1), ((0, "a", 1),), "essential")),
    (Product, True, [("alphabet",), ("transitions",), ("left",), ("right",)],
     (("a",), ((0,),), frozenset({0}), frozenset()),
     (("a",), ((0,),), frozenset(), frozenset({0}))),
    (ComponentReport, True,
     [("components",), ("periods",), ("trivial",), ("residue_period",), ("internal",)],
     ((frozenset({0}),), (1,), (False,), 1, (((0, 0),),)),
     ((frozenset({0}),), (2,), (False,), 2, (((0, 0),),))),
    (CesaroConfig, True, [("mode", "auto"), ("sequence", "cum")],
     ("auto", "cum"), ("analytic", "exact")),
    (DistanceResult, False, [("metric",), ("value",), ("mode",), ("diagnostics", dict)],
     ("cesaro", 0.5, "exact", {"n": 3}), ("entropy", 1.0, "exact", {})),
    (AxiomReport, False,
     [("kind",), ("n_languages",), ("n_pairs",), ("n_triples",), ("violations",)],
     ("pseudo", 3, 3, 1, []), ("ultra-pseudo", 3, 3, 1, [("symmetry", 0, 1)])),
    (OracleBudget, True, [("n_max", 8), ("max_alphabet", 7)], (8, 7), (4, 3)),
    (Empty, True, [], (), ()),
    (Epsilon, True, [], (), ()),
    (Literal, True, [("symbol",)], ("a",), ("b",)),
    (Concat, True, [("parts",)], ((Literal("a"), Literal("b")),), ((Literal("b"),),)),
    (Alt, True, [("options",)], ((Literal("a"), Epsilon()),), ((Literal("a"),),)),
    (Star, True, [("child",)], (Literal("a"),), (Empty(),)),
    (Repeat, True, [("child",), ("count",)], (Literal("a"), 3), (Literal("a"), 4)),
    (ComponentSpectrum, True,
     [("vertices",), ("period",), ("radius",), ("iterations",), ("residual",)],
     ((0, 1), 2, 1.5, 10, 1e-13), ((0, 1), 1, 1.5, 10, 1e-13)),
    (SpectralReport, True,
     [("components",), ("spectral_radius",), ("entropy_bits",), ("lambda_class",), ("index",)],
     ((SPECTRUM,), 2.0, 1.0, "expanding", 1), ((), 0.0, 0.0, "finite", 0)),
]


def _twin(cls, frozen, spec):
    """The `dataclasses` declaration of `cls`."""
    fields = []
    for name, *default in spec:
        if not default:
            fields.append(name)
        elif default[0] is dict:
            fields.append((name, object, field(default_factory=dict)))
        else:
            fields.append((name, object, field(default=default[0])))
    namespace = {"initial": 0} if cls is Nfa else {}  # a class attribute, not a field
    if cls is Dfa:
        namespace["__post_init__"] = Dfa.__post_init__
    return make_dataclass(cls.__name__, fields, frozen=frozen, namespace=namespace)


INVALID_DFAS = [
    ((), ((0,),), frozenset(), 0),
    (("b", "a"), ((0, 0),), frozenset(), 0),
    (("a",), ((0,),), frozenset(), 1),
    (("a",), ((0, 0),), frozenset(), 0),
    (("a",), ((1,),), frozenset(), 0),
    (("a",), ((0,),), frozenset({1}), 0),
]


def _outcome(call):
    """The repr of what a call returns, or the type of what it raises."""
    try:
        return repr(call())
    except Exception as exc:  # the exception is the outcome compared
        return type(exc)


@pytest.mark.parametrize("cls, frozen, spec, one, other", RECORDS, ids=lambda v: getattr(v, "__name__", ""))
def test_record_behaves_as_its_dataclass_twin(cls, frozen, spec, one, other):
    twin = _twin(cls, frozen, spec)
    names = [name for name, *_ in spec]
    assert cls.__match_args__ == twin.__match_args__ == tuple(names)
    for args in (one, other):
        record, double = cls(*args), twin(*args)
        assert repr(record) == repr(double)
        keywords = dict(zip(names, args))
        assert repr(cls(**keywords)) == repr(twin(**keywords)) == repr(record)
        assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(double))
        assert (record == cls(*args)) is (double == twin(*args)) is True
        # what an instance keeps in its `__dict__` is no field
        record.__dict__["_kept"] = object()
        assert repr(record) == repr(double)
        assert record == cls(*args)
        assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(double))
    assert (cls(*one) == cls(*other)) is (twin(*one) == twin(*other))
    assert (cls(*one) != cls(*other)) is (twin(*one) != twin(*other))
    assert cls(*one) != twin(*one) and twin(*one) != cls(*one)
    stranger = Star(Literal("a"))  # of another class for every record but Star
    if cls is not Star:
        assert cls(*one).__eq__(stranger) is NotImplemented
        assert cls(*one) != stranger

    required = [arg for arg, (_name, *default) in zip(one, spec) if not default]
    assert repr(cls(*required)) == repr(twin(*required))
    if cls is DistanceResult:
        assert cls(*required).diagnostics == {}
        assert cls(*required).diagnostics is not cls(*required).diagnostics

    calls = [lambda c: c(), lambda c: c(*one, None), lambda c: c(*one, unknown=1)]
    if names:
        calls.append(lambda c: c(*one, **{names[0]: one[0]}))
        calls.append(lambda c: c(*one[1:], **{names[0]: one[0]}))
    for call in calls:
        assert _outcome(lambda: call(cls)) == _outcome(lambda: call(twin))
    if cls is Dfa:
        for args in INVALID_DFAS:
            got = _outcome(lambda: cls(*args))
            assert got == _outcome(lambda: twin(*args)) and got in (AlphabetError, ValueError)

    record, double = cls(*one), twin(*one)
    for name in [*names, "unknown"]:
        for change in (lambda x: setattr(x, name, None), lambda x: delattr(x, name)):
            got, want = _outcome(lambda: change(record)), _outcome(lambda: change(double))
            if frozen:
                assert want is dataclasses.FrozenInstanceError
                assert isinstance(got, type) and issubclass(got, AttributeError)
            else:
                assert got == want


def test_a_method_the_class_defines_is_kept():
    @record(frozen=True)
    class Point:
        x: int
        y: int

        def __init__(self, x, y):
            object.__setattr__(self, "x", x)
            object.__setattr__(self, "y", y)

        def __repr__(self):
            return f"<{self.x}, {self.y}>"

        def __hash__(self):
            return self.x

    point = Point(1, 2)
    assert repr(point) == "<1, 2>" and hash(point) == 1
    assert point == Point(1, 2) and point != Point(1, 3)
    with pytest.raises(AttributeError):
        point.x = 3
