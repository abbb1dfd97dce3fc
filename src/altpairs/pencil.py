"""Classification engine for alternating pairs: validation, Pfaffian,
Kronecker invariants, and decomposition into class functions.

A class function maps (projective point, n) to the multiplicity of the
corresponding canonical block.  Equality of class functions decides
congruence; the minimal indices of the singular part come from nullity
counts of pencil staircase matrices, the elementary divisors from Smith
forms of t*A + B (finite points) and A + s*B (the x2 point).  The Pfaffian
comes from the same Smith elimination of t*A + B: its diagonal multiplies
out to det(t*A + B), and its invariant factors come in equal pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .blocks import AlternatingPair, BlockId, block_for_point, direct_sum
from .field import FieldError, FieldSpec
from .linalg import Mat, PolyMat, _smith_diagonal, congruence, smith_form
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
    parse_form,
    point_from_poly,
    point_sort_key,
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
    """Both matrices must be symmetric with zero diagonal (characteristic 2
    alternating); reports the first offending entry."""
    for name, m in (("A", pair.a), ("B", pair.b)):
        n = m.nrows
        for i in range(n):
            if m.rows[i][i]:
                return ValidationReport(
                    False, name, (i, i), f"matrix {name} has nonzero diagonal at ({i}, {i})"
                )
            for j in range(i + 1, n):
                if m.rows[i][j] != m.rows[j][i]:
                    return ValidationReport(
                        False, name, (i, j), f"matrix {name} is not symmetric at ({i}, {j})"
                    )
    return ValidationReport(True)


def require_valid(pair: AlternatingPair) -> None:
    report = validate(pair)
    if not report.ok:
        raise PencilError(report.message)


# -- class functions --------------------------------------------------------------


def point_dim(point: ProjPoint, n: int) -> int:
    """Dimension of the canonical block at (point, n)."""
    return BlockId.of_point(point, n).dim


def point_text(point: ProjPoint) -> str:
    return "eps" if isinstance(point, _EpsType) else format_form(point)


def parse_point(spec: FieldSpec, text: str) -> ProjPoint:
    if text.strip() == "eps":
        return EPS
    return parse_form(spec, text)


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

    @staticmethod
    def empty(spec: FieldSpec) -> "ClassFunction":
        return ClassFunction((), spec)

    def get(self, point: ProjPoint, n: int) -> int:
        for p, k, mult in self.entries:
            if k == n and p == point:
                return mult
        return 0

    def items(self) -> Iterable[tuple[ProjPoint, int, int]]:
        return self.entries

    @property
    def total_dim(self) -> int:
        return sum(point_dim(p, n) * m for p, n, m in self.entries)

    def sort_key(self) -> tuple:
        return tuple((point_sort_key(p), n, m) for p, n, m in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "blocks": [
                {"g": point_text(p), "n": n, "mult": m} for p, n, m in self.entries
            ]
        }

    @staticmethod
    def from_json_dict(spec: FieldSpec, data: Mapping) -> "ClassFunction":
        acc: dict[tuple[ProjPoint, int], int] = {}
        for blk in data["blocks"]:
            key = (parse_point(spec, blk["g"]), int(blk["n"]))
            acc[key] = acc.get(key, 0) + int(blk["mult"])
        return ClassFunction.from_dict(spec, acc)

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
    """The unique square root of det(x1*A + x2*B), as a binary form of
    degree dim/2; the zero form when the determinant vanishes identically.

    One Smith elimination of t*A + B gives a diagonal d_1, ..., d_r whose
    monic parts are the invariant factors.  For an alternating pencil they
    pair up, d_1 = d_2, d_3 = d_4, ..., so with c the product of the leading
    coefficients, det(t*A + B) = c * (d_2 d_4 ... d_n)^2 and the Pfaffian is
    sqrt(c) * d_2 d_4 ... d_n, homogenized.
    """
    require_valid(pair)
    n = pair.dim
    spec = pair.spec
    if n == 0:
        return BinaryForm.one(spec)
    if n % 2 == 1:
        return BinaryForm.zero(spec)
    diagonal = _smith_diagonal(PolyMat.pencil(pair.a, pair.b))
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


# -- Kronecker invariants ----------------------------------------------------------


@dataclass(frozen=True)
class KroneckerInvariants:
    """Minimal indices (one per odd block) and homogeneous elementary
    divisors with their raw (even) multiplicities."""

    minimal_indices: tuple[int, ...]
    elementary_divisors: tuple[tuple[tuple[ProjPoint, int], int], ...]


def _staircase_nullity(pair: AlternatingPair, k: int) -> int:
    """Dimension of {v(t) of degree < k : (tA + B) v(t) = 0}."""
    n = pair.dim
    spec = pair.spec
    zero = [0] * n
    rows = []
    for p in range(k + 1):
        for i in range(n):
            row: list[int] = []
            for j in range(k):
                if j == p - 1:
                    row.extend(pair.a.rows[i])
                elif j == p:
                    row.extend(pair.b.rows[i])
                else:
                    row.extend(zero)
            rows.append(row)
    m = Mat.from_rows(spec, rows, k * n)
    return k * n - m.rank()


def _minimal_indices(pair: AlternatingPair, count: int) -> tuple[int, ...]:
    """Recover the multiset of minimal indices from staircase nullities.

    nullity_k = sum over indices of max(0, k - eps), so the difference
    nullity_{k+1} - nullity_k counts the indices <= k.
    """
    if count == 0:
        return ()
    indices: list[int] = []
    prev_nullity = 0
    prev_le = 0
    k = 0
    while len(indices) < count:
        nullity = _staircase_nullity(pair, k + 1)
        le_k = nullity - prev_nullity
        indices.extend([k] * (le_k - prev_le))
        prev_nullity = nullity
        prev_le = le_k
        k += 1
        if k > pair.dim + 1:
            raise AssertionError("staircase failed to locate all minimal indices")
    return tuple(sorted(indices))


def kronecker_invariants(pair: AlternatingPair) -> KroneckerInvariants:
    require_valid(pair)
    spec = pair.spec
    finite_factors = smith_form(PolyMat.pencil(pair.a, pair.b))
    divisors: dict[tuple[ProjPoint, int], int] = {}
    for inv in finite_factors:
        for f, e in factor(inv):
            key = (point_from_poly(f), e)
            divisors[key] = divisors.get(key, 0) + 1
    infinite_factors = smith_form(PolyMat.pencil(pair.b, pair.a))
    t = Poly.t(spec)
    for inv in infinite_factors:
        e = 0
        while inv.degree > 0 and inv.coeff(0) == 0:
            inv = inv // t
            e += 1
        if e:
            key = (BinaryForm.x2(spec), e)
            divisors[key] = divisors.get(key, 0) + 1
    rank_generic = len(finite_factors)
    count = pair.dim - rank_generic
    minimal = _minimal_indices(pair, count)
    ordered = sorted(divisors.items(), key=lambda kv: (point_sort_key(kv[0][0]), kv[0][1]))
    return KroneckerInvariants(minimal, tuple(ordered))


def decompose(pair: AlternatingPair) -> ClassFunction:
    """Class function of the pair: minimal indices become eps entries, each
    elementary divisor pair (g, n) x 2 becomes one finite/infinite block."""
    inv = kronecker_invariants(pair)
    acc: dict[tuple[ProjPoint, int], int] = {}
    for eps in inv.minimal_indices:
        key = (EPS, eps + 1)
        acc[key] = acc.get(key, 0) + 1
    for (point, n), mult in inv.elementary_divisors:
        if mult % 2 != 0:
            raise AssertionError(
                f"elementary divisor ({point_text(point)}, {n}) has odd multiplicity {mult}"
            )
        key = (point, n)
        acc[key] = acc.get(key, 0) + mult // 2
    rho = ClassFunction.from_dict(pair.spec, acc)
    if rho.total_dim != pair.dim:
        raise AssertionError(
            f"decomposition dimension {rho.total_dim} != pair dimension {pair.dim}"
        )
    return rho


def congruent(p: AlternatingPair, r: AlternatingPair) -> bool:
    """Congruence test: equality of class functions."""
    if p.spec != r.spec:
        raise FieldError(f"mixed fields: {p.spec} vs {r.spec}")
    if p.dim != r.dim:
        return False
    return decompose(p) == decompose(r)


def transform_congruence(pair: AlternatingPair, s: Mat) -> AlternatingPair:
    """Simultaneous basis change (A, B) -> (S A S^T, S B S^T)."""
    return AlternatingPair(congruence(s, pair.a), congruence(s, pair.b))


def pfaffian_of_class(rho: ClassFunction) -> BinaryForm:
    """Product of g^(n * mult) over the non-eps entries."""
    acc = BinaryForm.one(rho.spec)
    for point, n, mult in rho.entries:
        if isinstance(point, _EpsType):
            continue
        acc = acc * point.power(n * mult)
    return acc
