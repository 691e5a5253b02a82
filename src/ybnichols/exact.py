"""Exact coefficient arithmetic: rationals, cyclotomic field elements, prime fields.

Every braiding coefficient in this package lives in a fixed cyclotomic field
Q(zeta_N), represented in the power basis 1, z, ..., z^{phi(N)-1} modulo the
N-th cyclotomic polynomial.  Elements are immutable, arithmetic is exact and
zero-testing is plain coefficient comparison, which is the hot path of every
rank computation.  Prime fields with p = 1 (mod N) receive ring-homomorphic
images of cyclotomic elements and back the fast modular rank checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .ybe import _json_int

#: Arbitrary-precision rational scalar.  ``fractions.Fraction`` already keeps
#: values reduced with a positive denominator, exactly the invariant we need.
Rational = Fraction


class BadPrime(ValueError):
    """The prime cannot host a specialization of the requested cyclotomic field."""


# ---------------------------------------------------------------------------
# integer / polynomial helpers


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs a positive integer")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


#: The largest phi(N) of a field Q(zeta_N) the package computes in.  Engine
#: arrays carry phi coordinates per entry and the structure tensor phi^3, so
#: ``dims z3-shift`` takes about 7 s at phi = 40 (zeta100) and 50 s at
#: phi = 64 (zeta128) on 2 cores, while zeta5000 would need a 60 GiB tensor.
PHI_LIMIT = 64


@lru_cache(maxsize=None)  # every order it returns for is at most 2 * PHI_LIMIT^2
def checked_phi(order: int) -> int:
    """phi(order); ValueError naming the order unless phi(order) <= PHI_LIMIT."""
    # phi(n) >= sqrt(n / 2), so a huge order is refused before it is factored
    phi = euler_phi(order) if order <= 2 * PHI_LIMIT ** 2 else None
    if phi is None or phi > PHI_LIMIT:
        raise ValueError(
            f"cyclotomic order {order} is too large: phi({order}) exceeds {PHI_LIMIT}"
        )
    return phi


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Divide integer polynomials (coefficients low-to-high), assuming exactness."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    quot = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num[k + dd]
        if c % den[dd] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[dd]
        quot[k] = q
        if q:
            for i, dc in enumerate(den):
                num[k + i] -= q * dc
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low-to-high, monic."""
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n):
        if d < n:
            poly = _poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(order: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_order for k = phi, ..., 2*phi-2 as integer coefficient rows."""
    phi = euler_phi(order)
    poly = cyclotomic_polynomial(order)
    rows = []
    # x^phi = -(poly[0] + poly[1] x + ...) since Phi is monic of degree phi
    current = [-poly[i] for i in range(phi)]
    rows.append(tuple(current))
    for _ in range(phi - 2):
        shifted = [0] + current[:-1]
        top = current[-1]
        if top:
            for i in range(phi):
                shifted[i] += top * rows[0][i]
        current = shifted
        rows.append(tuple(current))
    return tuple(rows)


# ---------------------------------------------------------------------------
# cyclotomic field elements


class CycloElement:
    """An element of Q(zeta_N) in the power basis modulo Phi_N.

    ``coeffs`` has length phi(N); entry i is the coordinate of zeta^i.
    Arithmetic requires matching orders -- callers pick one common order up
    front (the lcm of all parameter orders) and coerce with :meth:`to_order`.
    Plain ints and Fractions mix freely as scalars.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        phi = checked_phi(order)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for order {order}, got {len(coeffs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycloElement is immutable")

    # -- constructors

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CycloElement":
        phi = checked_phi(order)
        return cls(order, (Fraction(value),) + (Fraction(0),) * (phi - 1))

    @classmethod
    def zero(cls, order: int = 1) -> "CycloElement":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CycloElement":
        return cls.from_rational(1, order)

    @classmethod
    def zeta(cls, order: int) -> "CycloElement":
        """A primitive ``order``-th root of unity (the power-basis generator)."""
        phi = checked_phi(order)
        if order == 1:
            return cls.one(1)
        if order == 2:
            return cls(2, (Fraction(-1),))
        coeffs = [Fraction(0)] * phi
        coeffs[1] = Fraction(1)
        return cls(order, coeffs)

    # -- conversions

    def to_order(self, order: int) -> "CycloElement":
        """Embed into Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into order {order}")
        step = order // self.order
        result = CycloElement.zero(order)
        z = CycloElement.zeta(order) ** step
        power = CycloElement.one(order)
        for c in self.coeffs:
            if c:
                result = result + power * c
            power = power * z
        return result

    # -- arithmetic

    def _lift(self, other):
        if isinstance(other, CycloElement):
            if other.order != self.order:
                raise ValueError(
                    f"mixed cyclotomic orders {self.order} and {other.order};"
                    " coerce with to_order first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycloElement.from_rational(other, self.order)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return CycloElement(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloElement(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return CycloElement(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        phi = len(self.coeffs)
        conv = [Fraction(0)] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        conv[i + j] += a * b
        if phi == 1:
            return CycloElement(self.order, (conv[0],))
        rows = _reduction_rows(self.order)
        out = conv[:phi]
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                row = rows[k - phi]
                for i in range(phi):
                    if row[i]:
                        out[i] += c * row[i]
        return CycloElement(self.order, out)

    __rmul__ = __mul__

    def inverse(self) -> "CycloElement":
        """Multiplicative inverse via the extended Euclidean algorithm mod Phi_N."""
        if not self:
            raise ZeroDivisionError("cyclotomic element is zero")
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi_poly, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                inv_c = 1 / r1[0]
                coeffs = [c * inv_c for c in s1]
                coeffs += [Fraction(0)] * (len(self.coeffs) - len(coeffs))
                return CycloElement(self.order, coeffs[: len(self.coeffs)])
            q, r = _poly_divmod(r0, r1)
            s = _poly_sub(s0, _poly_mul(q, s1))
            r0, r1 = r1, r
            s0, s1 = s1, s

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        lifted = self._lift(other)
        return lifted * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = CycloElement.one(self.order)
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- predicates

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CycloElement.from_rational(other, self.order)
        if not isinstance(other, CycloElement):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def multiplicative_order(self) -> int | None:
        """The order of self in Q(zeta_N)^x, or None when not a root of unity.

        The torsion of Q(zeta_N)^x is the group of lcm(2, N)-th roots of
        unity, so only divisors of that lcm need testing.
        """
        if not self:
            return None
        bound = self.order if self.order % 2 == 0 else 2 * self.order
        one = CycloElement.one(self.order)
        for k in divisors(bound):
            if self ** k == one:
                return k
        return None

    # -- serialization

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [format_rational(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict, what: str = "cyclotomic element") -> "CycloElement":
        """Read {"order": N, "coeffs": [...]}: N a positive JSON integer and
        phi(N) coefficients, each a JSON integer or a rational string such as
        "-3/4" (a JSON float is binary: 0.1 is not 1/10), else ValueError
        names ``what``."""
        if not isinstance(data, dict):
            raise ValueError(f'{what}: {data!r} is not an object with keys "order" and "coeffs"')
        for key in ("order", "coeffs"):
            if key not in data:
                raise ValueError(f'{what} needs key "{key}"')
        order, coeffs = _json_int(data["order"], f"{what} order"), data["coeffs"]
        if order < 1:
            raise ValueError(f"{what} order: {order} is not positive")
        if not isinstance(coeffs, list):
            raise ValueError(f"{what} coeffs: {coeffs!r} is not a list")
        phi = checked_phi(order)
        if len(coeffs) != phi:
            raise ValueError(f"{what}: need {phi} coefficients for order {order}, got {len(coeffs)}")
        return cls(order, [_json_rational(c, f"{what} coefficient") for c in coeffs])

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z" if c != 1 else "z")
            else:
                terms.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        body = " + ".join(terms) if terms else "0"
        return f"Cyclo({self.order}; {body})"


def _json_rational(value, what: str) -> Fraction:
    """A JSON integer, or a string Fraction reads with a nonzero denominator,
    else ValueError names ``what``."""
    if not isinstance(value, str):
        return Fraction(_json_int(value, what))
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what}: {value!r} is not a rational number") from None


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    db = len(b) - 1
    while b and not b[-1]:
        b = b[:-1]
        db -= 1
    q = [Fraction(0)] * max(len(a) - db, 1)
    for k in range(len(a) - db - 1, -1, -1):
        c = a[k + db] / b[db]
        q[k] = c
        if c:
            for i in range(db + 1):
                a[k + i] -= c * b[i]
    return q, a[:db]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def cyclotomic_root(order: int) -> CycloElement:
    """A primitive ``order``-th root of unity zeta_order."""
    return CycloElement.zeta(order)


def q_analogues(n: int, q) -> tuple:
    """The pair ((n)_q, (n)_q!) with (n)_q = 1 + q + ... + q^(n-1)."""
    if n < 1:
        raise ValueError("n must be positive")
    one = q ** 0
    total = one
    power = one
    factorial = one
    q_int = one
    for k in range(2, n + 1):
        power = power * q
        q_int = q_int + power
        factorial = factorial * q_int
    if n == 1:
        return one, one
    return q_int, factorial


# ---------------------------------------------------------------------------
# rational serialization


def format_rational(x) -> str:
    """Serialize a Fraction as "num/den", omitting "/den" when den == 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text)


# ---------------------------------------------------------------------------
# prime fields and specialization


class PrimeFieldElement:
    """An element of F_p for a prime p, value kept in [0, p)."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int) -> None:
        object.__setattr__(self, "value", value % modulus)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeFieldElement is immutable")

    def _lift(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.modulus != self.modulus:
                raise ValueError("mixed moduli")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other, self.modulus)
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.value + other.value, self.modulus)

    __radd__ = __add__

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.modulus)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.value - other.value, self.modulus)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return PrimeFieldElement(self.value * other.value, self.modulus)

    __rmul__ = __mul__

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("zero in prime field")
        return PrimeFieldElement(pow(self.value, self.modulus - 2, self.modulus), self.modulus)

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return PrimeFieldElement(pow(self.value, exponent, self.modulus), self.modulus)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.modulus
        if not isinstance(other, PrimeFieldElement):
            return NotImplemented
        return self.modulus == other.modulus and self.value == other.value

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __repr__(self):
        return f"F{self.modulus}({self.value})"


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs we use."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_for_order(order: int, count: int = 2, lower: int = 2 ** 30) -> list[int]:
    """The ``count`` smallest primes p > lower with p = 1 (mod order).

    Large enough for machine-word arithmetic headroom, small enough that
    products of two residues fit in int64.
    """
    found = []
    # first candidate > lower that is = 1 mod order
    p = lower + 1
    rem = (p - 1) % order
    if rem:
        p += order - rem
    while len(found) < count:
        if is_prime(p):
            found.append(p)
        p += order
    return found


#: Moduli stay below 2^31, so a product of two residues fits in int64.
MODULUS_LIMIT = 1 << 31


def check_modulus(p: int, order: int) -> None:
    """Raise BadPrime unless p can carry the modular kernels for Q(zeta_order):
    p prime, p = 1 (mod order), and p below MODULUS_LIMIT."""
    if not is_prime(p):
        raise BadPrime(f"{p} is not prime")
    if p >= MODULUS_LIMIT:
        raise BadPrime(f"{p} is not below 2^31, so residue products overflow int64")
    if (p - 1) % order:
        raise BadPrime(f"{p} is not 1 mod {order}")


@lru_cache(maxsize=None)
def unity_root_mod(order: int, p: int) -> int:
    """Smallest positive integer of multiplicative order ``order`` mod p.

    Deterministic choice so that modular runs are reproducible.  F_p^x is
    cyclic, so the elements of order exactly ``order`` are the primitive
    powers of any one of them; the minimum over those phi(order) values is
    the smallest such integer.
    """
    if (p - 1) % order != 0:
        raise BadPrime(f"{p} is not 1 mod {order}")
    if order == 1:
        return 1
    prime_divs = [q for q in divisors(order) if q > 1 and is_prime(q)]
    root = None
    for a in range(2, p):
        candidate = pow(a, (p - 1) // order, p)
        if candidate != 1 and all(
            pow(candidate, order // q, p) != 1 for q in prime_divs
        ):
            root = candidate
            break
    if root is None:  # unreachable for prime p
        raise BadPrime(f"no element of order {order} mod {p}")
    best = root
    value = root
    for k in range(2, order):
        value = value * root % p
        if k % order and math.gcd(k, order) == 1 and value < best:
            best = value
    return best


def specialize(x: CycloElement, p: int) -> PrimeFieldElement:
    """Ring homomorphism Q(zeta_N) -> F_p sending zeta_N to the canonical root.

    Raises BadPrime unless p = 1 (mod N) and no coefficient denominator
    vanishes mod p.
    """
    omega = unity_root_mod(x.order, p)
    total = 0
    w_pow = 1
    for c in x.coeffs:
        if c.denominator % p == 0:
            raise BadPrime(f"denominator {c.denominator} vanishes mod {p}")
        if c:
            total += c.numerator * pow(c.denominator, p - 2, p) % p * w_pow
        w_pow = w_pow * omega % p
    return PrimeFieldElement(total, p)
