"""Univariate polynomials over GF(2^k), homogeneous binary forms, and the
GL(2) substitution action on projective points.

A ``Poly`` is one packed int of ``field.Packing`` (coefficient i in bits
[i*w, (i+1)*w), w = 2k - 1; over GF(2) the GF(2)[t] bitmask), so its product
and division are the kernel's, the same that ``linalg`` runs Smith and
elimination on.  A ``BinaryForm`` is a ``Poly``, its dehomogenization, with
its total degree, which records the power of x2 dividing it; its arithmetic
and the GL(2) action run on the same packed ints.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .field import FieldError, FieldSpec


class PolyError(ValueError):
    """Precondition violation in polynomial arithmetic."""


@dataclass(frozen=True)
class Poly:
    """Element of GF(2^k)[t], packed into ``bits`` as ``spec.packing`` lays
    it out."""

    bits: int
    spec: FieldSpec

    # -- constructors --------------------------------------------------------

    @staticmethod
    def make(spec: FieldSpec, coeffs: Sequence[int]) -> "Poly":
        return Poly(spec.packing.pack(coeffs), spec)

    @staticmethod
    def zero(spec: FieldSpec) -> "Poly":
        return Poly(0, spec)

    @staticmethod
    def one(spec: FieldSpec) -> "Poly":
        return Poly(1, spec)

    @staticmethod
    def t(spec: FieldSpec) -> "Poly":
        return Poly(1 << spec.packing.w, spec)

    @staticmethod
    def constant(spec: FieldSpec, bits: int) -> "Poly":
        return Poly(bits, spec)

    # -- basic structure -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficient i at index i, no trailing zeros."""
        return self.spec.packing.unpack(self.bits, self.degree + 1)

    @property
    def degree(self) -> int:
        return (self.bits.bit_length() - 1) // self.spec.packing.w

    def is_zero(self) -> bool:
        return not self.bits

    def __bool__(self) -> bool:
        return bool(self.bits)

    @property
    def leading(self) -> int:
        if not self.bits:
            raise PolyError("zero polynomial has no leading coefficient")
        return self.bits >> (self.degree * self.spec.packing.w)

    def is_monic(self) -> bool:
        return bool(self.bits) and self.leading == 1

    def coeff(self, i: int) -> int:
        pk = self.spec.packing
        return self.bits >> (i * pk.w) & pk.mask if i >= 0 else 0

    def _check(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise FieldError(f"mixed fields: {self.spec} vs {other.spec}")
        return other

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self.bits ^ self._check(other).bits, self.spec)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(self.spec.packing.mul(self.bits, self._check(other).bits), self.spec)

    def scale(self, bits: int) -> "Poly":
        if bits == 1:
            return self
        return Poly(self.spec.packing.mul(bits, self.bits), self.spec)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        b = self._check(other).bits
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        pk, spec = self.spec.packing, self.spec
        # the division reads one multiple of b per coefficient of the quotient
        uses = (self.bits.bit_length() - b.bit_length()) // pk.w + 1
        q, r = pk.divmod(self.bits, b, pk.multiples(b, uses))
        return Poly(q, spec), Poly(r, spec)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if not self.bits:
            return self
        return self.scale(self.spec.inv(self.leading))

    # -- ordering and display --------------------------------------------------

    def sort_key(self) -> tuple:
        # for equal degrees the packed ints order like the coefficients read
        # from the leading one down
        return (self.degree, self.bits)

    def __str__(self) -> str:
        return format_poly(self)

    # mod-power helper used by factoring
    def powmod(self, n: int, modulus: "Poly") -> "Poly":
        """self^n mod modulus, every reduction reading one table of the
        multiples of the modulus."""
        base = (self % modulus).bits
        pk, m = self.spec.packing, modulus.bits
        t = pk.multiples(m, 2 * n.bit_length() * modulus.degree)
        r = 1
        while n:
            if n & 1:
                r = pk.divmod(pk.mul(r, base), m, t)[1]
            base = pk.divmod(pk.mul(base, base), m, t)[1]
            n >>= 1
        return Poly(r, self.spec)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd."""
    a._check(b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def derivative(f: Poly) -> Poly:
    """Formal derivative; even-exponent terms vanish in characteristic 2."""
    return Poly.make(f.spec, [c if i % 2 else 0 for i, c in enumerate(f.coeffs)][1:])


def poly_sqrt(f: Poly) -> Poly:
    """Square root of a perfect square (Frobenius inverse per coefficient);
    every caller has one by construction, so an odd term fails an invariant."""
    coeffs, spec = f.coeffs, f.spec
    if any(coeffs[1::2]):
        raise AssertionError("polynomial is not a square")
    return Poly.make(spec, [spec.sqrt(c) for c in coeffs[::2]])


# -- irreducibility and factorization -----------------------------------------


def _prime_divisors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f: Poly) -> bool:
    """Rabin irreducibility test over GF(q), q = 2^k."""
    d = f.degree
    if d < 1:
        return False
    f = f.monic()
    q = f.spec.order
    t = Poly.t(f.spec)
    if t.powmod(q**d, f) != t % f:
        return False
    for p in _prime_divisors(d):
        h = t.powmod(q ** (d // p), f) + (t % f)
        if poly_gcd(f, h).degree != 0:
            return False
    return True


def _squarefree_decomposition(f: Poly) -> dict[Poly, int]:
    """Monic f as a product of pairwise-coprime squarefree parts to powers.

    Characteristic-2 aware: when the derivative vanishes, f is a perfect
    square and the multiplicities double through the coefficient Frobenius
    inverse.
    """
    out: dict[Poly, int] = {}
    if f.degree < 1:
        return out
    df = derivative(f)
    if df.is_zero():
        for g, m in _squarefree_decomposition(poly_sqrt(f)).items():
            out[g] = out.get(g, 0) + 2 * m
        return out
    c = poly_gcd(f, df)
    w = f // c
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree > 0:
            out[z] = out.get(z, 0) + i
        c = c // y
        w = y
        i += 1
    if c.degree > 0:
        for g, m in _squarefree_decomposition(poly_sqrt(c)).items():
            out[g] = out.get(g, 0) + 2 * m
    return out


def _distinct_degree_split(f: Poly) -> list[tuple[Poly, int]]:
    """Squarefree monic f -> [(product of its degree-d factors, d)]."""
    spec = f.spec
    q = spec.order
    out = []
    t = Poly.t(spec)
    h = t % f
    d = 0
    while f.degree >= 2 * (d + 1):
        d += 1
        h = h.powmod(q, f)
        g = poly_gcd(h + t, f)
        if g.degree > 0:
            out.append((g, d))
            f = f // g
            h = h % f
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _equal_degree_split(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Split a squarefree product of degree-d irreducibles (char-2 trace maps)."""
    if f.degree == d:
        return [f]
    spec = f.spec
    n = f.degree
    while True:
        r = Poly.make(spec, [rng.randrange(spec.order) for _ in range(n)])
        if r.degree < 1:
            continue
        # trace to GF(2): r + r^2 + r^4 + ... over kd squarings
        acc = r % f
        term = r % f
        for _ in range(spec.k * d - 1):
            term = (term * term) % f
            acc = acc + term
        g = poly_gcd(acc, f)
        if 0 < g.degree < n:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)
        g = poly_gcd(acc + Poly.one(spec), f)
        if 0 < g.degree < n:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)


def factor(g: Poly) -> list[tuple[Poly, int]]:
    """Factor into monic irreducibles with multiplicities.

    Deterministic output order: by degree, then coefficient order from the
    leading term down.  The product of the factors times the leading
    coefficient of g reproduces g.  The equal-degree splitting draws from its
    own fixed-seed generator; the factors do not depend on the draws.
    """
    if g.is_zero():
        raise PolyError("cannot factor the zero polynomial")
    rng = random.Random(0x5EED)
    out: dict[Poly, int] = {}
    for part, mult in _squarefree_decomposition(g.monic()).items():
        for block, d in _distinct_degree_split(part):
            for irr in _equal_degree_split(block, d, rng):
                out[irr] = out.get(irr, 0) + mult
    return sorted(out.items(), key=lambda it: it[0].sort_key())


def monic_irreducibles(spec: FieldSpec, degree: int) -> Iterator[Poly]:
    """All monic irreducible polynomials of the given degree, in sort order."""
    return iter(_monic_irreducibles(spec, degree))


@lru_cache(maxsize=64)
def _monic_irreducibles(spec: FieldSpec, degree: int) -> tuple[Poly, ...]:
    q = spec.order
    monics = (
        Poly.make(spec, [idx // q**i % q for i in range(degree)] + [1]) for idx in range(q**degree)
    )
    return tuple(f for f in monics if is_irreducible(f))


def lagrange_interpolate(spec: FieldSpec, points: Sequence[int], values: Sequence[int]) -> Poly:
    """Unique polynomial of degree < len(points) through the given points."""
    if len(points) != len(values):
        raise PolyError("point/value length mismatch")
    if len(set(points)) != len(points):
        raise PolyError("interpolation points must be distinct")
    acc = Poly.zero(spec)
    for i, (xi, yi) in enumerate(zip(points, values)):
        if yi == 0:
            continue
        num = Poly.one(spec)
        denom = 1
        for j, xj in enumerate(points):
            if j == i:
                continue
            num = num * Poly.make(spec, (xj, 1))
            denom = spec.mul(denom, xi ^ xj)
        acc = acc + num.scale(spec.mul(yi, spec.inv(denom)))
    return acc


# -- homogeneous binary forms --------------------------------------------------


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous polynomial in (x1, x2) of total degree ``degree``, held as
    its dehomogenization ``poly`` = form(t, 1): coefficient i of ``poly`` is
    the x1^i x2^(degree - i) coefficient, and x2 divides the form
    degree - deg(poly) times.  The zero form has the zero ``poly`` and degree
    -1."""

    poly: Poly
    degree: int

    @staticmethod
    def make(spec: FieldSpec, coeffs: Sequence[int]) -> "BinaryForm":
        """The form whose x1^i x2^(d-i) coefficient is coeffs[i], d = len - 1."""
        poly = Poly.make(spec, coeffs)
        return BinaryForm(poly, len(coeffs) - 1 if poly else -1)

    @staticmethod
    def zero(spec: FieldSpec) -> "BinaryForm":
        return BinaryForm(Poly.zero(spec), -1)

    @staticmethod
    def one(spec: FieldSpec) -> "BinaryForm":
        return BinaryForm(Poly.one(spec), 0)

    @staticmethod
    def x1(spec: FieldSpec) -> "BinaryForm":
        return BinaryForm(Poly.t(spec), 1)

    @staticmethod
    def x2(spec: FieldSpec) -> "BinaryForm":
        return BinaryForm(Poly.one(spec), 1)

    @property
    def spec(self) -> FieldSpec:
        return self.poly.spec

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficient i at index i, all degree + 1 of them."""
        return self.poly.coeffs + (0,) * (self.degree - self.poly.degree)

    def is_zero(self) -> bool:
        return not self.poly

    def coeff(self, i: int) -> int:
        return self.poly.coeff(i)

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        poly = self.poly * other.poly
        return BinaryForm(poly, self.degree + other.degree if poly else -1)

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        poly = self.poly + other.poly
        if self.degree != other.degree and self.poly and other.poly:
            raise PolyError("cannot add forms of different degrees")
        return BinaryForm(poly, max(self.degree, other.degree) if poly else -1)

    def scale(self, bits: int) -> "BinaryForm":
        poly = self.poly.scale(bits)
        return BinaryForm(poly, self.degree if poly else -1)

    def power(self, n: int) -> "BinaryForm":
        acc = BinaryForm.one(self.spec)
        for _ in range(n):
            acc = acc * self
        return acc

    def sort_key(self) -> tuple:
        # for equal degrees the packed ints order like the coefficients read
        # from the x1^degree one down
        return (self.degree, self.poly.bits)

    def __str__(self) -> str:
        return format_form(self)


def homogenize(f: Poly, total_degree: int) -> BinaryForm:
    """x2^D * f(x1/x2) cleared of denominators; needs D >= deg f."""
    if f.is_zero():
        return BinaryForm(f, -1)
    if total_degree < f.degree:
        raise PolyError(f"total degree {total_degree} below deg f = {f.degree}")
    return BinaryForm(f, total_degree)


def dehomogenize(form: BinaryForm) -> tuple[Poly, int]:
    """Return (form(t, 1), exponent of x2 dividing the form)."""
    if form.is_zero():
        raise PolyError("cannot dehomogenize the zero form")
    return form.poly, form.degree - form.poly.degree


# -- projective points and the GL(2) substitution action ----------------------


class _EpsType:
    """The extra projective symbol for odd-dimensional blocks."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "eps"


EPS = _EpsType()

ProjPoint = _EpsType | BinaryForm


def point_sort_key(point: ProjPoint) -> tuple:
    """Total order on projective points: eps first, then by ``sort_key``."""
    if isinstance(point, _EpsType):
        return (0, -1, 0)
    return (1,) + point.sort_key()


def point_from_poly(f: Poly) -> BinaryForm:
    """The unital projective point attached to a monic irreducible f."""
    return BinaryForm(f.monic(), f.degree)


def moebius_act(q: Sequence[Sequence[int]], point: ProjPoint, spec: FieldSpec) -> ProjPoint:
    """Substitute (x1,x2) -> (x1,x2)Q into the form and renormalize.

    Row-vector convention: x1 -> q11*x1 + q21*x2, x2 -> q12*x1 + q22*x2.
    Eps is a fixed point.  Defines a left-compatible action:
    act(Q1*Q2, g) = act(Q1, act(Q2, g)).
    """
    (q11, q12), (q21, q22) = q
    rows = spec.mul_table
    if rows[q11][q22] ^ rows[q12][q21] == 0:
        raise PolyError("singular substitution matrix")
    if isinstance(point, _EpsType):
        return EPS
    # Horner on the packed coefficients with y1, y2 the images of x1, x2:
    # acc_{j+1} = acc_j * y1 + c_{d-j-1} * y2^(j+1), ending at sum c_i y1^i y2^(d-i).
    pk = spec.packing
    mul, w, mask = pk.mul, pk.w, pk.mask
    y1, y2 = q21 | q11 << w, q22 | q12 << w
    bits, d = point.poly.bits, point.degree
    acc, y2pow = bits >> (d * w), 1
    for s in range((d - 1) * w, -1, -w):
        acc = mul(acc, y1)
        y2pow = mul(y2pow, y2)
        if c := bits >> s & mask:
            acc ^= mul(c, y2pow)
    # the image of a point is a point: x2 itself when x2 divides it,
    # otherwise scaled to leading x1 coefficient 1
    if not (lead := acc >> (d * w)):
        return BinaryForm.x2(spec)
    if lead > 1:
        acc = mul(spec.inv(lead), acc)
    return BinaryForm(Poly(acc, spec), d)


# -- text forms ----------------------------------------------------------------

_POLY_TERM_RE = re.compile(
    r"^(?:\{(?P<coef>[0-9a-fA-F]+)\}\*?)?(?:(?P<var>t)(?:\^(?P<exp>\d+))?)?$"
)


def format_poly(f: Poly) -> str:
    if f.is_zero():
        return "0"
    terms = []
    for i in range(f.degree, -1, -1):
        c = f.coeff(i)
        if not c:
            continue
        if i == 0:
            terms.append("1" if c == 1 else f"{{{c:x}}}")
            continue
        v = "t" if i == 1 else f"t^{i}"
        terms.append(v if c == 1 else f"{{{c:x}}}*{v}")
    return "+".join(terms)


def parse_poly(spec: FieldSpec, text: str) -> Poly:
    s = text.replace(" ", "")
    if s in ("", "0"):
        return Poly.zero(spec)
    coeffs: dict[int, int] = {}
    for term in s.split("+"):
        if term == "1":
            coeffs[0] = coeffs.get(0, 0) ^ 1
            continue
        m = _POLY_TERM_RE.match(term)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise PolyError(f"bad polynomial term {term!r} in {text!r}")
        c = int(m.group("coef"), 16) if m.group("coef") is not None else 1
        spec.check(c)
        if m.group("var") is None:
            e = 0
        else:
            e = int(m.group("exp")) if m.group("exp") is not None else 1
        coeffs[e] = coeffs.get(e, 0) ^ c
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return Poly.make(spec, out)


def format_form(form: BinaryForm) -> str:
    if form.is_zero():
        return "0"
    d = form.degree
    terms = []
    for i in range(d, -1, -1):
        c = form.coeff(i)
        if not c:
            continue
        parts = []
        if c != 1:
            parts.append(f"{{{c:x}}}")
        if i > 0:
            parts.append("x1" if i == 1 else f"x1^{i}")
        if d - i > 0:
            parts.append("x2" if d - i == 1 else f"x2^{d - i}")
        if not parts:
            parts.append("1")
        terms.append("*".join(parts))
    return "+".join(terms)
