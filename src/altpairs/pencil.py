"""Classification engine for alternating pairs: validation, Pfaffian, and
decomposition into class functions.

A class function maps (projective point, n) to the multiplicity of the
corresponding canonical block.  Equality of class functions decides
congruence.  ``decompose`` reads it off the Kronecker data of t*A + B: one
Smith elimination gives the rank of the pencil and its invariant factors,
hence the elementary divisors at the finite points; Wong sequences of
n x n eliminations give the minimal indices of the singular part and the
divisors at the x2 point (``decompose`` has the proof).  The Pfaffian
comes from Krylov sequences of A^-1 B when A is invertible, and otherwise
from a Smith elimination, whose diagonal multiplies out to det(t*A + B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .blocks import AlternatingPair, BlockId, block_for_point, direct_sum
from .field import FieldError, FieldSpec
from .linalg import Mat, _charpoly, _kernel_images, _rref, _smith_diagonal, smith_form
from .polyring import (
    EPS,
    BinaryForm,
    Poly,
    ProjPoint,
    _EpsType,
    factor,
    format_form,
    homogenize,
    lagrange_interpolate,  # noqa: F401  (perfbench traces this name; see ROADMAP item 6)
    point_from_poly,
    point_sort_key,
    poly_sqrt,
)


class PencilError(ValueError):
    """Invalid pair or classification failure."""


# -- validation -----------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    matrix: str | None = None
    position: tuple[int, int] | None = None
    message: str = "ok"


def validate(pair: AlternatingPair) -> ValidationReport:
    """Both matrices must be alternating; reports the first offending entry."""
    for name, m in (("A", pair.a), ("B", pair.b)):
        if fault := _alternating_fault(name, m):
            return fault
    return ValidationReport(True)


def _alternating_fault(name: str, m: Mat) -> ValidationReport | None:
    """The first entry of the square matrix ``name`` that keeps it from being
    symmetric with zero diagonal (alternating in characteristic 2)."""
    for i, row in enumerate(m.rows):
        if row[i]:
            return ValidationReport(False, name, (i, i), f"matrix {name} has nonzero diagonal at ({i}, {i})")
        for j in range(i + 1, m.nrows):
            if row[j] != m.rows[j][i]:
                return ValidationReport(False, name, (i, j), f"matrix {name} is not symmetric at ({i}, {j})")
    return None


def require_valid(pair: AlternatingPair) -> None:
    report = validate(pair)
    if not report.ok:
        raise PencilError(report.message)


# -- class functions --------------------------------------------------------------


def point_text(point: ProjPoint) -> str:
    return "eps" if isinstance(point, _EpsType) else format_form(point)


@dataclass(frozen=True)
class ClassFunction:
    """Finitely supported multiplicity function on (projective point, n).

    Entries are kept sorted (eps first, then by point degree and
    coefficients, then by n) with strictly positive multiplicities.
    """

    entries: tuple[tuple[ProjPoint, int, int], ...]
    spec: FieldSpec

    @staticmethod
    def from_dict(spec: FieldSpec, data: Mapping[tuple[ProjPoint, int], int]) -> "ClassFunction":
        items = []
        for (point, n), mult in data.items():
            if mult < 0:
                raise PencilError("negative multiplicity")
            if n < 1:
                raise PencilError("block size must be positive")
            if mult:
                items.append((point, n, mult))
        items.sort(key=lambda e: (point_sort_key(e[0]), e[1]))
        return ClassFunction(tuple(items), spec)

    def get(self, point: ProjPoint, n: int) -> int:
        for p, k, mult in self.entries:
            if k == n and p == point:
                return mult
        return 0

    @property
    def total_dim(self) -> int:
        return sum(BlockId.of_point(p, n).dim * m for p, n, m in self.entries)

    def sort_key(self) -> tuple:
        return tuple((point_sort_key(p), n, m) for p, n, m in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "blocks": [
                {"g": point_text(p), "n": n, "mult": m} for p, n, m in self.entries
            ]
        }

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        return " + ".join(
            (f"{m}*" if m != 1 else "") + f"[{point_text(p)}, {n}]" for p, n, m in self.entries
        )


def assemble(rho: ClassFunction) -> AlternatingPair:
    """The canonical orthogonal direct sum realizing a class function."""
    parts = []
    for point, n, mult in rho.entries:
        block = block_for_point(point, n, rho.spec)
        parts.extend([block] * mult)
    return direct_sum(parts, spec=rho.spec)


# -- Pfaffian ---------------------------------------------------------------------


def pfaffian_form(pair: AlternatingPair) -> BinaryForm:
    """The unique square root of det(x1*A + x2*B) (squaring is injective in
    characteristic 2), as a binary form of degree dim/2; the zero form when
    the determinant vanishes identically.

    For A invertible, reducing [A | B] to [I | M] gives det A and
    M = A^-1 B, and t*A + B = A (t*I + M), so det(t*A + B) = det A * chi,
    chi = det(t*I + M).  The spans of the Krylov sequences of
    ``linalg._charpoly`` are invariant under x -> x M, so M is block
    triangular in a basis through them, with the companion matrices of the
    sequences' relative minimal polynomials on the diagonal: chi is their
    product.  chi = (Pf(t*A + B) / Pf(A))^2, and a square in characteristic
    2 is sum c_i^2 t^(2i), so chi has no odd terms (``poly_sqrt`` checks)
    and its root takes the field square root of each even coefficient.  As chi is monic of degree
    n and sqrt(det A) != 0, sqrt(det A) * sqrt(chi) has degree exactly n/2.

    Otherwise one Smith elimination of t*A + B gives a diagonal d_1, ...,
    d_r whose monic parts are the invariant factors.  For an alternating
    pencil they pair up, d_1 = d_2, d_3 = d_4, ..., so with c the product of
    the leading coefficients, det(t*A + B) = c * (d_2 d_4 ... d_n)^2 and the
    Pfaffian is sqrt(c) * d_2 d_4 ... d_n, homogenized.
    """
    require_valid(pair)
    n = pair.dim
    spec = pair.spec
    if n == 0:
        return BinaryForm.one(spec)
    if n % 2 == 1:
        return BinaryForm.zero(spec)
    pk = spec.packing
    rows = [pk.pack(ra + rb) for ra, rb in zip(pair.a.rows, pair.b.rows)]
    pivots, det = _rref(pk, rows, n)
    if len(pivots) == n:
        chi = Poly(_charpoly(pk, [r >> (n * pk.w) for r in rows], n), spec)
        return homogenize(poly_sqrt(chi).scale(spec.sqrt(det)), n // 2)
    diagonal = _smith_diagonal(pair.a, pair.b)
    if len(diagonal) < n:
        return BinaryForm.zero(spec)
    # The elimination only swaps rows or columns and adds a multiple of one
    # row or column to another; in characteristic 2 each of these has
    # determinant 1, so the raw diagonal multiplies out to det(t*A + B).
    c = 1
    for d in diagonal:
        c = spec.mul(c, d.leading)
    factors = [d.monic() for d in diagonal]
    half = Poly.constant(spec, spec.sqrt(c))
    for i in range(0, n, 2):
        if factors[i] != factors[i + 1]:
            raise AssertionError("invariant factors of an alternating pencil do not pair up")
        half = half * factors[i + 1]
    if half.degree > n // 2:
        raise AssertionError("pfaffian degree exceeds dim/2")
    return homogenize(half, n // 2)


# -- decomposition -----------------------------------------------------------------


def _wong_dims(a: Mat, b: Mat, stop: int | None = None) -> list[int]:
    """dim W_0, dim W_1, ... for W_0 = 0, W_(i+1) = {v : a v in b W_i}, up to
    dimension ``stop`` or until W_i repeats (the W_i increase, so then it
    stays).

    Rows of C a cut out W_i (C = I for W_1).  As b is symmetric, the images
    under b of their kernel basis are the rows of W_i^T b, whose kernel is
    the left kernel C' of b W_i; the images under a of its basis are the rows
    of C' a, which cut out W_(i+1).  So a step is two packed eliminations."""
    pk, rows_a, n = a._packed()
    rows_b = b._packed()[1]
    dims, rows = [0], list(rows_a)
    while True:
        image = _kernel_images(pk, rows, n, rows_b)
        if len(image) == dims[-1]:
            break
        dims.append(len(image))
        if len(image) == stop:
            break
        rows = _kernel_images(pk, image, n, rows_a)
    return dims


def _chains(dims: list[int], known: Mapping[int, int]) -> dict[int, int]:
    """Length -> number of the chains that Wong dimensions count, less the
    ``known`` ones: dims[i] - dims[i - 1] chains have length >= i."""
    top = max([len(dims) - 1, *known])
    at_least = [dims[i] - dims[i - 1] for i in range(1, len(dims))] + [0] * (top + 2 - len(dims))
    for s, count in known.items():
        at_least[:s] = [c - count for c in at_least[:s]]
    counts = {s: at_least[s - 1] - at_least[s] for s in range(1, top + 1)}
    if min(counts.values(), default=0) < 0:
        raise AssertionError(f"Wong sequence {dims} less {dict(known)} gives negative counts")
    return {s: c for s, c in counts.items() if c}


def decompose(pair: AlternatingPair) -> ClassFunction:
    """Class function of the pair, read off the Kronecker data of t*A + B:
    each minimal index i is one entry (eps, i + 1), and each pair of equal
    elementary divisors (g, e) is one entry (g, e).

    One Smith pass gives the rank r and the invariant factors d_1 | ... | d_r.
    Their irreducibles all divide d_r, so d_r is factored once and each
    exponent e > 0 of f in a d_i, read by division, is a divisor (f, e).
    The factors pair up, d_(2i-1) = d_(2i), so one of each pair is divided
    and each divisor found there is one block.
    There are n - r eps blocks, and x2 carries divisors iff rank A < r: the
    rank drops at a point by its number of divisors, and singular blocks
    keep their rank everywhere.

    The Wong sequence W_0 = 0, W_(i+1) = {v : A v in B W_i} (Berger,
    Ilchmann and Trenn, SIAM J. Matrix Anal. Appl. 33 (2012)) adds over
    direct sums, and congruence by S moves it to S^-T W_i.  In Kronecker
    form, L_eps (A-part [I | 0], B-part [0 | I]) has W_1 spanned by the last
    unit vector, each step adding the one before, which gives
    min(i, eps + 1); L_eps^T and finite blocks have an injective A-part and
    give 0; a nilpotent block t*N + I of size e, one divisor (x2, e), has
    W_i = ker N^i, which gives min(i, e).  An odd block holds one L_eps and
    one L_eps^T, so dim W_i is the sum of min(i, eps + 1) over the minimal
    indices and of mult * min(i, e) over the divisors (x2, e).  Swapping A
    and B keeps the minimal indices and moves the divisors (x1, e), at
    t = 0, into the nilpotent part.  So W(A, B) gives the minimal indices
    when x2 carries nothing and the x2 divisors when r = n; otherwise
    W(B, A) less the divisors at t = 0, two per x1 block, gives the minimal
    indices, and W(A, B) less those the x2 divisors, which must pair up.
    The limit of W(A, B), sum(eps + 1) plus the x2 degrees, is
    n - deg(d_1 ... d_r) - sum(eps), since the blocks fill n; without x2
    divisors they also give sum(eps) = (r - deg(d_1 ... d_r)) / 2.  W(A, B)
    stops there without a repeat step.
    """
    require_valid(pair)
    n, spec = pair.dim, pair.spec
    factors = smith_form(pair.a, pair.b)
    r, degree = len(factors), sum(d.degree for d in factors)
    if factors[::2] != factors[1::2]:
        raise AssertionError("invariant factors of an alternating pencil do not pair up")
    blocks: dict[tuple[ProjPoint, int], int] = {}
    for f, _ in factor(factors[-1]) if r and factors[-1].degree else ():
        for d in reversed(factors[1::2]):
            e = 0
            while d.degree >= f.degree and not (qr := divmod(d, f))[1]:
                d, e = qr[0], e + 1
            if not e:
                break  # nor does f divide the earlier factors
            key = (point_from_poly(f), e)
            blocks[key] = blocks.get(key, 0) + 1
    eps: dict[int, int] = {}  # eps + 1 -> number of odd blocks
    if pair.a.rank() == r:
        if r < n:
            eps = _chains(_wong_dims(pair.a, pair.b, n - (r + degree) // 2), {})
    else:
        if r < n:
            at_x1 = {e: 2 * m for (p, e), m in blocks.items() if p == BinaryForm.x1(spec)}
            eps = _chains(_wong_dims(pair.b, pair.a), at_x1)
        stop = n - degree - sum((s - 1) * m for s, m in eps.items())
        for e, m in _chains(_wong_dims(pair.a, pair.b, stop), eps).items():
            if m % 2:
                raise AssertionError(f"elementary divisor (x2, {e}) has odd multiplicity {m}")
            blocks[(BinaryForm.x2(spec), e)] = m // 2
    if sum(eps.values()) != n - r:
        raise AssertionError(f"{sum(eps.values())} minimal indices for rank {r} of {n}")
    blocks.update(((EPS, s), m) for s, m in eps.items())
    rho = ClassFunction.from_dict(spec, blocks)
    if rho.total_dim != n:
        raise AssertionError(f"decomposition dimension {rho.total_dim} != pair dimension {n}")
    return rho


def congruent(p: AlternatingPair, r: AlternatingPair) -> bool:
    """Congruence test: equality of class functions."""
    if p.spec != r.spec:
        raise FieldError(f"mixed fields: {p.spec} vs {r.spec}")
    if p.dim != r.dim:
        return False
    return decompose(p) == decompose(r)
