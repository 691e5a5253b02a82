import random
from fractions import Fraction

import pytest

from ybnichols.exact import (
    PHI_LIMIT,
    BadPrime,
    CycloElement,
    PrimeFieldElement,
    cyclotomic_polynomial,
    cyclotomic_root,
    euler_phi,
    format_rational,
    is_prime,
    parse_rational,
    primes_for_order,
    q_analogues,
    specialize,
    unity_root_mod,
)


def random_element(rng, order):
    phi = euler_phi(order)
    return CycloElement(
        order,
        [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(phi)],
    )


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def eval_poly(poly, x):
    acc = CycloElement.zero(x.order)
    power = CycloElement.one(x.order)
    for c in poly:
        acc = acc + power * c
        power = power * x
    return acc


def test_roots_kill_their_polynomial_up_to_24():
    for order in range(1, 25):
        z = cyclotomic_root(order)
        assert not eval_poly(cyclotomic_polynomial(order), z)
        assert z.multiplicative_order() == order


def test_root_examples():
    assert cyclotomic_root(1) == 1
    assert cyclotomic_root(2) == -1
    z3 = cyclotomic_root(3)
    assert z3 * z3 + z3 + 1 == CycloElement.zero(3)


def test_field_axioms_randomized():
    rng = random.Random(20240809)
    one = None
    for order in range(1, 13):
        checked = 0
        while checked < 1000:
            x = random_element(rng, order)
            y = random_element(rng, order)
            z = random_element(rng, order)
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if x:
                assert x * x.inverse() == CycloElement.one(order)
            checked += 3 if x else 2


def test_q_analogue_examples():
    assert q_analogues(3, Fraction(1)) == (3, 6)
    two = q_analogues(2, CycloElement.zeta(2))
    assert not two[0] and not two[1]
    z3 = cyclotomic_root(3)
    n_q, fact = q_analogues(3, z3)
    assert not n_q and not fact


def test_q_analogue_vanishing_pattern():
    # (n)_q = 0 exactly when the order d of q divides n with d > 1
    for order in range(1, 13):
        z = cyclotomic_root(order)
        for power in range(order):
            q = z ** power
            d = q.multiplicative_order()
            for n in range(1, 9):
                n_q, _ = q_analogues(n, q)
                vanishes = not n_q
                assert vanishes == (d > 1 and n % d == 0), (order, power, n)


def test_to_order_embedding():
    z3 = cyclotomic_root(3)
    z6 = cyclotomic_root(6)
    assert z3.to_order(6) == z6 ** 2
    assert CycloElement.zeta(2).to_order(6) == z6 ** 3
    with pytest.raises(ValueError):
        z3.to_order(4)


def test_orders_beyond_the_phi_limit_are_refused():
    # the limit is checked before any coefficient tuple is built, and a huge
    # order is refused without factoring it
    assert euler_phi(128) == PHI_LIMIT
    assert len(CycloElement.zeta(128).coeffs) == PHI_LIMIT
    for order in (256, 1000, 10 ** 9, 10 ** 30):
        for build in (CycloElement.zeta, CycloElement.zero, lambda n: CycloElement(n, [])):
            with pytest.raises(ValueError, match=f"cyclotomic order {order} is too large"):
                build(order)
    with pytest.raises(ValueError, match="cyclotomic order 256 is too large"):
        CycloElement.one(2).to_order(256)


def test_mixed_order_arithmetic_rejected():
    with pytest.raises(ValueError):
        cyclotomic_root(3) * cyclotomic_root(4)


def test_multiplicative_order():
    assert CycloElement.from_rational(2).multiplicative_order() is None
    assert CycloElement.from_rational(-1).multiplicative_order() == 2
    assert CycloElement.from_rational(1).multiplicative_order() == 1
    assert (cyclotomic_root(12) ** 2).multiplicative_order() == 6
    assert CycloElement.zero(3).multiplicative_order() is None


def test_rational_serialization():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-2, 7)) == "-2/7"
    assert parse_rational("-2/7") == Fraction(-2, 7)
    x = CycloElement(6, [Fraction(1, 2), Fraction(-3)])
    assert CycloElement.from_json(x.to_json()) == x
    assert x.to_json() == {"order": 6, "coeffs": ["1/2", "-3"]}


def test_parse_rational_refuses_exponent_notation():
    # integers, a/b and plain decimals read exactly; an exponent would let a
    # short text ask for an integer of any size
    assert parse_rational("12") == 12 and parse_rational(" -3/4 ") == Fraction(-3, 4)
    assert parse_rational("0.25") == Fraction(1, 4) and parse_rational("-.5") == Fraction(-1, 2)
    for text in ("1e5", "1E5", "2.5e-3", "1e99999999", "3/4e2"):
        with pytest.raises(ValueError, match="exponent notation"):
            parse_rational(text)


def test_specialize_examples_and_errors():
    assert specialize(CycloElement.one(1), 5) == 1
    assert specialize(CycloElement.zeta(2), 5) == 4
    w = specialize(cyclotomic_root(3), 7)
    assert w ** 3 == 1 and w != 1
    with pytest.raises(BadPrime):
        specialize(cyclotomic_root(3), 5)  # 5 is not 1 mod 3
    with pytest.raises(BadPrime):
        specialize(CycloElement(1, [Fraction(1, 5)]), 5)  # denominator dies mod 5


def test_specialize_is_homomorphism():
    rng = random.Random(99)
    for order in (3, 4, 6):
        primes = primes_for_order(order, count=3)
        for _ in range(20):
            x = random_element(rng, order)
            y = random_element(rng, order)
            for p in primes:
                try:
                    lhs = specialize(x * y + x, p)
                except BadPrime:
                    continue
                assert lhs == specialize(x, p) * specialize(y, p) + specialize(x, p)


def test_prime_selection():
    primes = primes_for_order(2)
    assert primes == [1073741827, 1073741831]
    for p in primes:
        assert is_prime(p) and p > 2 ** 30 and (p - 1) % 2 == 0
    for p in primes_for_order(12):
        assert is_prime(p) and (p - 1) % 12 == 0


def test_unity_root_is_smallest():
    # brute-force comparison on small primes
    for order, p in [(2, 13), (3, 13), (4, 13), (6, 13), (4, 17), (8, 17)]:
        candidates = [
            w
            for w in range(1, p)
            if pow(w, order, p) == 1
            and all(pow(w, order // q, p) != 1 for q in (2, 3) if order % q == 0)
        ]
        assert unity_root_mod(order, p) == min(candidates)


def test_prime_field_arithmetic():
    a = PrimeFieldElement(3, 7)
    b = PrimeFieldElement(5, 7)
    assert a + b == 1
    assert a * b == 1
    assert a / b == a * b.inverse()
    assert (a ** -1) * a == 1
    assert not PrimeFieldElement(0, 7)
    with pytest.raises(ZeroDivisionError):
        PrimeFieldElement(0, 7).inverse()
