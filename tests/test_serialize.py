from fractions import Fraction as Fr

import pytest

import frieze_lab as fl
from frieze_lab import serialize


def test_fraction_strings():
    assert serialize.fraction_to_str(Fr(3)) == "3"
    assert serialize.fraction_to_str(Fr(-7, 2)) == "-7/2"
    assert serialize.str_to_fraction("5/3") == Fr(5, 3)
    assert serialize.str_to_fraction("4") == Fr(4)
    assert serialize.str_to_fraction(2) == Fr(2)


def test_exponent_bound():
    assert serialize.str_to_fraction("1e4300") == 10**4300
    assert serialize.str_to_fraction("-15E-4300") == Fr(-15, 10**4300)
    assert serialize.str_to_fraction("2.5e0_0_3") == 2500
    for text in ("1e4301", "1E-4301", "7e+000099999", "1e0_4301", "1.5e999999999 "):
        with pytest.raises(ValueError, match="exceeds 4300 in magnitude"):
            serialize.str_to_fraction(text)


def test_frieze_doc_roundtrip():
    f = fl.diagonal_to_frieze((Fr(1, 2), Fr(3)))
    doc = serialize.frieze_to_doc(f)
    assert doc["width"] == 2 and doc["period"] == 5
    assert serialize.frieze_from_doc(doc) == f


def test_frieze_doc_tamper_detected():
    f = fl.diagonal_to_frieze((1, 2))
    doc = serialize.frieze_to_doc(f)
    doc["rows"][1][0] = "99"
    with pytest.raises(ValueError):
        serialize.frieze_from_doc(doc)


def test_polygon_and_equation_docs():
    f = fl.diagonal_to_frieze((1, 2))
    p = fl.polygon_from_frieze(f)
    doc = serialize.polygon_to_doc(p)
    assert doc["vertices"][0] == ["0", "1"]
    # float scalars serialize as numbers
    assert serialize.polygon_to_doc([(2.0, 2.5)])["vertices"] == [[2.0, 2.5]]


def test_csv_rfc4180():
    text = serialize.csv_string(("a", "b"), [(1, 0.5), (2, 1.0 / 3.0)])
    lines = text.split("\r\n")
    assert lines[0] == "a,b"
    assert lines[1] == "1,0.5"
    assert lines[2] == "2," + repr(1.0 / 3.0)
