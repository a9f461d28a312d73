"""Every frozen record in the library: construction, equality, hashing,
immutability and repr."""

import copy
import itertools

import pytest

from opticat.base import Box, Just, Left, Nothing, Record, Right
from opticat.cli import PathExpr, Step
from opticat.encode import Functorization, ProfEncoding
from opticat.families import AchLens, Adapter, FamilyTag, Lens, Optional, Prism, Setter
from opticat.functors import (
    ANY_FUNCTOR,
    ID_SHAPE,
    IS_PRODUCT,
    Comp,
    ContainerShape,
    FunctorFamily,
    Id,
    PointCap,
    ProductCap,
    SumCap,
    joined,
)
from opticat.iso import IsoOptic
from opticat.laws import (
    PASS,
    CapabilityFixture,
    FamilyFixture,
    LawReport,
    MorphismSpec,
    Natural,
)
from opticat.prof import ProfOptic, ProfunctorCapability

# One example per record class, with its repr; a class that was a dataclass
# prints as it did then.  Law reports print counterexamples with repr, so it
# must not move.
EXAMPLES = {
    Left: ((1,), "Left(value=1)"),
    Right: (("r",), "Right(value='r')"),
    Just: (((1, "a"),), "Just(value=(1, 'a'))"),
    Nothing: ((), "Nothing()"),
    Id: (("x",), "Id(value='x')"),
    Comp: ((Id(0),), "Comp(value=Id(value=0))"),
    ProductCap: (("to", "from"), "ProductCap(to_product='to', from_product='from')"),
    SumCap: (("to", "from"), "SumCap(to_sum='to', from_sum='from')"),
    PointCap: ((Id(()),), "PointCap(unit=Id(value=()))"),
    ContainerShape: (("S", "map", None, None, None, None, ()), "ContainerShape(S)"),
    FunctorFamily: (("F", "member"), "FunctorFamily(F)"),
    Lens: (("get", "put"), "Lens(get='get', put='put')"),
    Prism: (("match", "build"), "Prism(match='match', build='build')"),
    Adapter: (("fwd", "bwd"), "Adapter(fwd='fwd', bwd='bwd')"),
    Setter: (("over",), "Setter(over='over')"),
    AchLens: (("get", "put", "create"), "AchLens(get='get', put='put', create='create')"),
    Optional: (("match", "put"), "Optional(match='match', put='put')"),
    IsoOptic: (
        (ANY_FUNCTOR, ID_SHAPE, "forward", "backward"),
        "IsoOptic(family=FunctorFamily(Functor), shape=ContainerShape(Id), "
        "forward='forward', backward='backward')",
    ),
    ProfunctorCapability: (
        ("P", "dimap", "enhance"),
        "ProfunctorCapability(name='P', dimap='dimap', enhance='enhance')",
    ),
    ProfOptic: ((ANY_FUNCTOR, "run"), "ProfOptic(family=FunctorFamily(Functor), run='run')"),
    Functorization: (
        (FamilyTag.LENS, ANY_FUNCTOR, "enhance_op", "residual"),
        "Functorization(family_tag=<FamilyTag.LENS: 'LENS'>, "
        "functor_family=FunctorFamily(Functor), enhance_op='enhance_op', "
        "residual='residual')",
    ),
    ProfEncoding: (("encode", "decode"), "ProfEncoding(encode='encode', decode='decode')"),
    Natural: (
        ("n", ID_SHAPE, ID_SHAPE, "fn"),
        "Natural(name='n', source=ContainerShape(Id), target=ContainerShape(Id), fn='fn')",
    ),
    FamilyFixture: (
        ("f", "inj", "triples", "doms", "inj_tables"),
        "FamilyFixture(name='f', inj='inj', triples='triples', doms='doms', "
        "inj_tables='inj_tables')",
    ),
    CapabilityFixture: (
        ("cap", "values", "eq"),
        "CapabilityFixture(cap='cap', values='values', eq='eq')",
    ),
    MorphismSpec: (
        ("m", "theta", "inj_src", "inj_dst", "pairs", "doms"),
        "MorphismSpec(name='m', theta='theta', inj_src='inj_src', inj_dst='inj_dst', "
        "pairs='pairs', doms='doms')",
    ),
    Step: (("key", "v"), "Step(kind='key', arg='v')"),
    PathExpr: (
        ((Step("fst"), Step("idx", 2)),),
        "PathExpr(steps=(Step(kind='fst', arg=None), Step(kind='idx', arg=2)))",
    ),
}


def _record_classes():
    """Every record class of the package but the field-less ``Box`` base."""
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("opticat.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found - {Box}


def test_examples_cover_every_record_class():
    # the imports above load every module of the package
    assert _record_classes() == set(EXAMPLES)


def test_every_one_value_record_is_a_box():
    # a one-field payload box states its constructor, equality and hash
    # once, in Box, and not again in its own class
    boxes = {cls for cls in _record_classes() if cls.__slots__ == ("value",)}
    assert boxes == {Left, Right, Just, Id, Comp}
    for cls in boxes:
        assert issubclass(cls, Box), cls
        assert not {"__init__", "__eq__", "__hash__"} & set(vars(cls)), cls


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    args, expected_repr = EXAMPLES[cls]
    names = cls.__slots__
    record = cls(*args)
    assert repr(record) == expected_repr

    # built by position or keyword, equal and hashing equal to its twin
    twin = cls(**dict(zip(names, args)))
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    if cls is not FunctorFamily:
        assert hash(record) == hash(tuple(getattr(record, name) for name in names))

    # frozen
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == tuple(
        getattr(twin, name) for name in names
    )
    assert copy.copy(record) == record == copy.deepcopy(record)

    # missing, surplus and unknown fields
    if names:
        with pytest.raises(TypeError):
            cls()
    with pytest.raises(TypeError):
        cls(*args, "surplus")
    with pytest.raises(TypeError):
        cls(*args, unknown=0)


@pytest.mark.parametrize(
    "group",
    [
        (Left, Right, Just, Nothing, Id, Comp, Setter, PointCap, PathExpr),
        (Lens, Prism, Adapter, Optional, ProductCap, SumCap, ProfEncoding),
    ],
    ids=["one_field", "two_fields"],
)
def test_records_of_different_classes_are_unequal(group):
    def build(cls):
        return cls(*[1, 2][: len(cls.__slots__)])

    for a, b in itertools.product(group, repeat=2):
        assert (build(a) == build(b)) == (a is b), (a, b)
    assert Left(1) != Right(1) and Just(1) != Id(1) and Comp(1) != Id(1)
    assert Just(Left(1)) == Just(Left(1)) != Just(Right(1))


def test_step_arg_defaults_to_none():
    assert Step("fst") == Step("fst", None) == Step(kind="fst")
    assert Step("fst").arg is None
    assert Step("key", "a") != Step("key", "b")


def test_container_shape_defaults_and_point_check():
    shape = ContainerShape("S", "map")
    assert (shape.product, shape.sum, shape.point) == (None,) * 3
    assert (shape.payloads, shape.parts) == (None, None)
    with pytest.raises(ValueError, match="point requires product"):
        ContainerShape("S", "map", point=PointCap(Id(())))


def test_functor_family_compares_as_a_record():
    assert FunctorFamily("F", len) == FunctorFamily("F", len)
    assert hash(FunctorFamily("F", len)) == hash(FunctorFamily("F", len))
    assert FunctorFamily("F", len) != FunctorFamily("F", abs)
    assert FunctorFamily("F", len) != FunctorFamily("G", len)
    assert FunctorFamily("F", len).__eq__("F") is NotImplemented
    assert copy.deepcopy(IS_PRODUCT) == IS_PRODUCT
    assert joined(IS_PRODUCT, copy.deepcopy(IS_PRODUCT)) is IS_PRODUCT


def test_law_report_compares_by_field_and_stays_mutable():
    report = LawReport("a.law")
    assert report == LawReport("a.law", 0, [], PASS)
    assert report != LawReport("a.law", 1, [], PASS)
    assert report.__eq__("a.law") is NotImplemented
    assert LawReport("a.law").failures is not LawReport("a.law").failures
    report.cases += 1
    assert report.cases == 1
    with pytest.raises(TypeError):
        hash(report)
