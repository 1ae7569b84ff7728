"""Exact-rational genus machinery; no floats anywhere in these checks."""

from fractions import Fraction as F

import pytest

from curvlab import charclasses as cc
from curvlab.errors import MissingMonomial, NonIntegerSpinWarning


def test_series_values():
    q = cc.ahat_series(2)
    assert q[0] == 1
    assert q[1] == F(-1, 24)
    assert q[2] == F(7, 2**7 * 3**2 * 5)


def test_series_order_zero():
    assert cc.ahat_series(0) == [F(1)]


def test_first_polynomials():
    a1, a2 = cc.ahat_polynomials(2)
    assert a1 == {(1,): F(-1, 24)}
    assert a2 == {(2,): F(-4, 5760), (1, 1): F(7, 5760)}


def test_dual_implementation_agreement():
    main = cc.ahat_polynomials(4)
    oracle = cc.ahat_polynomials_bruteforce(4)
    for k in range(4):
        assert main[k] == oracle[k]


def test_weight_grading():
    for w, poly in enumerate(cc.ahat_polynomials(4), start=1):
        for mono in poly:
            assert sum(mono) == w


def test_vanishing_on_zero_classes():
    # every monomial has positive weight, so evaluation at p_i = 0 is exactly 0
    for poly in cc.ahat_polynomials(4):
        assert () not in poly
        value_at_zero = sum((coeff * 0 for coeff in poly.values()), F(0))
        assert value_at_zero == 0


def test_pontryagin_from_chern_k3():
    data = cc.CharacteristicData(4, chern={(1, 1): F(0), (2,): F(24)}, spin=True)
    out = cc.pontryagin_from_chern(data)
    assert out.pontryagin[(1,)] == F(-48)  # signature -16 = p1 / 3


def test_pontryagin_from_chern_torus():
    data = cc.CharacteristicData(4, chern={(1, 1): F(0), (2,): F(0)})
    assert cc.pontryagin_from_chern(data).pontryagin[(1,)] == 0


def test_pontryagin_weight_two():
    # p2 = c2^2 - 2 c1 c3 + 2 c4; p1^2 = c1^4 - 4 c1^2 c2 + 4 c2^2
    chern = {(1, 1, 1, 1): F(0), (2, 1, 1): F(0), (2, 2): F(5),
             (3, 1): F(7), (4,): F(11)}
    data = cc.CharacteristicData(8, chern=chern)
    out = cc.pontryagin_from_chern(data)
    assert out.pontryagin[(2,)] == F(5) - 2 * F(7) + 2 * F(11)
    assert out.pontryagin[(1, 1)] == 4 * F(5)


def test_genus_k3():
    data = cc.CharacteristicData(4, chern={(1, 1): F(0), (2,): F(24)}, spin=True)
    assert cc.ahat_genus(data) == 2


def test_genus_inoue():
    data = cc.CharacteristicData(4, chern={(1, 1): F(0), (2,): F(0)}, spin=False)
    assert cc.ahat_genus(data) == 0


def test_genus_torus():
    data = cc.CharacteristicData(4, pontryagin={(1,): F(0)}, spin=True)
    assert cc.ahat_genus(data) == 0


def test_genus_dimension_rule():
    data = cc.CharacteristicData(6, pontryagin={})
    assert cc.ahat_genus(data) == 0
    assert "mod 4" in data.notes


def test_non_integer_spin_warning():
    data = cc.CharacteristicData(4, pontryagin={(1,): F(-47)}, spin=True)
    with pytest.warns(NonIntegerSpinWarning):
        val = cc.ahat_genus(data)
    assert val == F(47, 24)


def test_missing_monomial():
    with pytest.raises(MissingMonomial):
        cc.ahat_genus(cc.CharacteristicData(8, pontryagin={(2,): F(1)}))
    with pytest.raises(MissingMonomial):
        cc.pontryagin_from_chern(cc.CharacteristicData(4, chern={(2,): F(24)}))


def test_multiplicativity_on_products():
    k3 = cc.CharacteristicData(4, pontryagin={(1,): F(-48)}, spin=True)
    prod = cc.product_characteristic_data(k3, k3)
    assert prod.pontryagin == {(2,): F(2304), (1, 1): F(4608)}
    assert cc.ahat_genus(prod) == cc.ahat_genus(k3) * cc.ahat_genus(k3) == 4

    torus = cc.CharacteristicData(4, pontryagin={(1,): F(0)}, spin=True)
    mixed = cc.product_characteristic_data(k3, torus)
    assert cc.ahat_genus(mixed) == 0


def test_lichnerowicz_verdicts():
    k3 = cc.CharacteristicData(4, pontryagin={(1,): F(-48)}, spin=True)
    torus = cc.CharacteristicData(4, pontryagin={(1,): F(0)}, spin=True)
    nonspin = cc.CharacteristicData(4, pontryagin={(1,): F(3)}, spin=False)
    assert cc.lichnerowicz_verdict(torus, True).status == "consistent"
    assert cc.lichnerowicz_verdict(k3, True).status == "InconsistentInput"
    assert cc.lichnerowicz_verdict(nonspin, True).status == "no-conclusion"
    assert cc.lichnerowicz_verdict(k3, False).status == "no-conclusion"


def test_parser():
    kind, nums = cc.parse_characteristic_numbers("c1^2=0,c2=24")
    assert kind == "c" and nums == {(1, 1): F(0), (2,): F(24)}
    kind, nums = cc.parse_characteristic_numbers("p1=-48")
    assert kind == "p" and nums == {(1,): F(-48)}
    kind, nums = cc.parse_characteristic_numbers("c1c3=1/3")
    assert nums == {(3, 1): F(1, 3)}
    with pytest.raises(ValueError):
        cc.parse_characteristic_numbers("c1p2=3")
    with pytest.raises(ValueError):
        cc.parse_characteristic_numbers("bogus=3")
    with pytest.raises(ValueError):
        cc.parse_characteristic_numbers("")
    with pytest.raises(ValueError, match="zero denominator in 'p1=1/0'"):
        cc.parse_characteristic_numbers("p1=1/0")


def test_partitions():
    assert set(cc.partitions(4)) == {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}
