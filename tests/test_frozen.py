"""The exact side's value classes behave as the frozen dataclasses they replace."""

import copy
import pickle
from fractions import Fraction as F

import pytest

import frieze_lab as fl
from frieze_lab.cluster import TangentVector
from frieze_lab.jets import Jet
from frieze_lab.recurrence import DiscreteHillEquation, ModuliPoint

ONES = (F(1), F(1), F(1))

# (class, field values in order, the frozen dataclass's repr of them)
CASES = [
    (
        fl.FriezePattern,
        {"width": 0, "rows": ((F(0), F(0), F(0)), ONES, ONES)},
        "FriezePattern(width=0, rows=((Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), "
        "(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(1, 1), Fraction(1, 1))))",
    ),
    (
        fl.DiagonalCoords,
        {"base": 4, "values": (F(1), F(1, 2))},
        "DiagonalCoords(base=4, values=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    (
        fl.ZigzagPath,
        {"start": 3, "moves": ("SE", "SW"), "width": 3},
        "ZigzagPath(start=3, moves=('SE', 'SW'), width=3)",
    ),
    (
        fl.ZigzagCoords,
        {"path": fl.ZigzagPath(1, ("SW",)), "values": (F(2), F(-3, 4))},
        "ZigzagCoords(path=ZigzagPath(start=1, moves=('SW',), width=2), values=(Fraction(2, 1), Fraction(-3, 4)))",
    ),
    (
        DiscreteHillEquation,
        {"c": (F(1), 2, F(1, 3))},
        "DiscreteHillEquation(c=(Fraction(1, 1), 2, Fraction(1, 3)))",
    ),
    (
        ModuliPoint,
        {"points": ((0, 1), (F(1), F(2))), "coordinates": (F(-1, 2),)},
        "ModuliPoint(points=((0, 1), (Fraction(1, 1), Fraction(2, 1))), coordinates=(Fraction(-1, 2),))",
    ),
    (
        TangentVector,
        {"base": fl.DiagonalCoords(4, (1, 2)), "components": (F(0), 5)},
        "TangentVector(base=DiagonalCoords(base=4, values=(1, 2)), components=(Fraction(0, 1), 5))",
    ),
    (
        Jet,
        {"val": F(3, 2), "grad": (F(1), F(0))},
        "Jet(val=Fraction(3, 2), grad=(Fraction(1, 1), Fraction(0, 1)))",
    ),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_construction_repr_equality_and_hash(cls, fields, text):
    positional = cls(*fields.values())
    keyword = cls(**fields)
    assert repr(positional) == repr(keyword) == text
    assert positional == keyword and not positional != keyword
    assert hash(positional) == hash(keyword)
    assert len({positional, keyword}) == 1
    for name, value in fields.items():
        assert getattr(keyword, name) == value
    assert copy.deepcopy(keyword) == keyword
    assert pickle.loads(pickle.dumps(keyword)) == keyword


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_fields_differ_unequal(cls, fields, text):
    changes = {name: "other" for name in fields}
    if cls is fl.ZigzagPath:  # moves are SE or SW and fix the width; see the path test below
        changes = {"start": 4, "moves": ("SW", "SE")}
    for name, value in changes.items():
        assert cls(**{**fields, name: value}) != cls(**fields), name


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_assignment_raises(cls, fields, text):
    obj = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.other = 1
    assert repr(obj) == text


def test_different_classes_with_equal_fields_are_unequal():
    values = (F(1), F(2))
    same_fields = [cls(4, values) for cls in (fl.DiagonalCoords, fl.ZigzagCoords, TangentVector, ModuliPoint)]
    for i, a in enumerate(same_fields):
        for b in same_fields[i + 1 :]:
            assert a != b and b != a
    assert fl.DiagonalCoords(4, values) != (4, values)


def test_zigzag_path_from_a_list_equals_the_tuple_path():
    from_list = fl.ZigzagPath(start=2, moves=["SE", "SW", "SE"])
    from_tuple = fl.ZigzagPath(2, ("SE", "SW", "SE"), 4)
    assert from_list.moves == ("SE", "SW", "SE") and from_list.width == 4
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert {from_list: 1}[from_tuple] == 1
    assert fl.ZigzagPath(0, []) == fl.ZigzagPath(0, (), 1)
    assert fl.ZigzagPath(0, [], 0) != fl.ZigzagPath(0, [], 1)
    with pytest.raises(ValueError, match="w-1 moves"):
        fl.ZigzagPath(0, ["SE"], width=3)
    with pytest.raises(ValueError, match="'SE' or 'SW'"):
        fl.ZigzagPath(0, ["NE"])


def test_jet_compares_with_scalars():
    assert Jet(F(2), (F(0), F(0))) == 2
    assert Jet(F(2), (F(1), F(0))) != 2
