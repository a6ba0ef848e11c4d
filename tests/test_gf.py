"""Field arithmetic tests: exhaustive axiom checks over small orders."""

import pytest

from frcodes.gf import GF, MAX_ORDER, Field, _is_irreducible, _prime_power

SMALL_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]
INVERSE_ORDERS = SMALL_ORDERS + [(17, 1), (5, 2), (3, 3), (2, 5), (2, 6), (59, 1), (61, 1)]


def test_pinned_moduli():
    assert GF(2, 2).modulus == (1, 1, 1)
    assert GF(2, 3).modulus == (1, 1, 0, 1)
    assert GF(2, 4).modulus == (1, 1, 0, 0, 1)
    # x is primitive in neither field, so both generators are x + 1
    assert (GF(3, 2).modulus, GF(3, 2).generator) == ((1, 0, 1), 4)
    assert (GF(5, 2).modulus, GF(5, 2).generator) == ((2, 0, 1), 6)


def test_gf8_primitive_element_relation():
    f = GF(2, 3)
    a = f.generator
    assert a == 2
    # a^3 = a + 1 under the pinned modulus
    assert f.pow(a, 3) == f.add(a, 1)
    assert f.pow(a, 7) == 1
    powers = {f.pow(a, i) for i in range(7)}
    assert powers == set(range(1, 8))


def test_generator_is_primitive_everywhere():
    for p, e in SMALL_ORDERS:
        f = GF(p, e)
        q = f.q
        seen = set()
        x = 1
        for _ in range(q - 1):
            seen.add(x)
            x = f.mul(x, f.generator)
        assert seen == set(range(1, q)), (p, e)
        assert x == 1


@pytest.mark.parametrize("p,e", SMALL_ORDERS)
def test_field_axioms_exhaustive(p, e):
    f = GF(p, e)
    els = list(f.elements())
    assert len(els) == p**e
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_inverses_up_to_64():
    for p, e in INVERSE_ORDERS:
        f = GF(p, e)
        if f.q > 64:
            continue
        for a in range(1, f.q):
            assert f.mul(a, f.inv(a)) == 1, (p, e, a)


def test_freshman_dream_gf8():
    # (a + b)^2 = a^2 + b^2 in characteristic 2
    f = GF(2, 3)
    for a in f.elements():
        for b in f.elements():
            assert f.pow(f.add(a, b), 2) == f.add(f.pow(a, 2), f.pow(b, 2))


def test_frobenius_properties():
    for p, e in [(2, 3), (2, 4), (3, 2)]:
        f = GF(p, e)
        for a in f.elements():
            assert f.frobenius(a, 0) == a
            assert f.frobenius(a, e) == a  # full cycle, exponent taken mod e
            b = a
            for i in range(1, e):
                b = f.pow(b, p)
                assert f.frobenius(a, i) == b
        # additivity of the Frobenius map
        for a in f.elements():
            for b in f.elements():
                assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))


def test_frobenius_invariant_subset_gf8():
    f = GF(2, 3)
    a = f.generator
    subset = {0, a, f.pow(a, 2), f.pow(a, 4)}
    assert {f.frobenius(v) for v in subset} == subset
    # closed under addition as well: it is a 2-dimensional GF(2)-subspace
    for u in subset:
        for v in subset:
            assert f.add(u, v) in subset


def test_pow_negative_and_zero():
    f = GF(2, 3)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    assert f.pow(3, -1) == f.inv(3)
    assert f.pow(3, -2) == f.mul(f.inv(3), f.inv(3))
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)


def test_digit_roundtrip():
    for p, e in [(2, 4), (3, 2), (5, 2)]:
        f = GF(p, e)
        for a in f.elements():
            assert f.from_digits(f.digits(a)) == a


def test_errors():
    with pytest.raises(ZeroDivisionError):
        GF(2, 3).inv(0)
    with pytest.raises(ValueError):
        GF(4)  # 4 is not prime
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(2, 13)  # order 8192 > 4096
    with pytest.raises(ValueError):
        GF(2, 0)
    f = GF(2, 3)
    with pytest.raises(ValueError):
        f.add(1, 8)  # out of range
    with pytest.raises(ValueError):
        f.mul(-1, 3)
    with pytest.raises(ValueError):
        f.add(1, 2.0)  # not an int


def test_orders_past_the_maximum_fail_before_trial_division(monkeypatch):
    # trial division of p and the power p ** e take time growing with p
    # and e, so the order is checked first
    from frcodes import gf

    prime_factors = gf._prime_factors

    def bounded(n):
        assert n <= MAX_ORDER, f"trial division of {n}"
        return prime_factors(n)

    monkeypatch.setattr(gf, "_prime_factors", bounded)
    for p, e in [(2**61 - 1, 1), (MAX_ORDER + 3, 1), (2, 13), (3, 40), (4, 7)]:
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            Field(p, e)
    for q in [2**61 - 1, MAX_ORDER + 1]:
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            _prime_power(q)


def test_prime_power_splits_field_orders():
    assert [_prime_power(q) for q in (2, 4, 9, 4093, 4096)] == [
        (2, 1), (2, 2), (3, 2), (4093, 1), (2, 12)]
    with pytest.raises(ValueError, match="at least 2, got 1"):
        _prime_power(1)
    for q in (6, 12, 4095):
        with pytest.raises(ValueError, match=f"{q} is not a prime power"):
            _prime_power(q)


def test_cross_field_values_rejected():
    # an element of GF(16) is not accepted by GF(8) operations
    f8, f16 = GF(2, 3), GF(2, 4)
    v = f16.q - 1
    with pytest.raises(ValueError):
        f8.mul(v, 1)


def test_field_identity_and_equality():
    assert GF(2, 3) is GF(2, 3)
    assert GF(2, 3) == Field(2, 3)
    assert GF(2, 3) != GF(2, 4)
    assert hash(GF(3, 2)) == hash(Field(3, 2))


def test_largest_supported_order():
    f = GF(2, 12)
    assert f.q == MAX_ORDER
    assert f.mul(f.generator, f.inv(f.generator)) == 1


def test_irreducibility_checker():
    assert _is_irreducible((1, 1, 1), 2)       # x^2 + x + 1
    assert not _is_irreducible((1, 0, 1), 2)   # x^2 + 1 = (x+1)^2
    assert _is_irreducible((1, 0, 1), 3)       # x^2 + 1 over GF(3)
    assert not _is_irreducible((0, 0, 1), 2)   # x^2
