"""Canonical indecomposable alternating pairs.

Three block families over GF(2^k):

* finite blocks: A = [[0,I],[I,0]], B = [[0,Phi],[Phi^T,0]] with Phi the
  companion matrix of f^n for a monic irreducible f;
* infinity blocks: A = [[0,J],[J^T,0]], B = [[0,I],[I,0]] with J the
  nilpotent lower Jordan block;
* plus blocks of odd dimension 2*eps+1 built from the eps x (eps+1)
  staircase matrices [I|0] and [0|I].
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldSpec
from .linalg import Mat
from .polyring import (
    BinaryForm,
    Poly,
    ProjPoint,
    _EpsType,
    dehomogenize,
    format_poly,
    is_irreducible,
    parse_poly,
)


class BlockError(ValueError):
    """Invalid block parameters."""


@dataclass(frozen=True)
class AlternatingPair:
    """A pair (A, B) of n x n alternating matrices over a common field."""

    a: Mat
    b: Mat

    def __post_init__(self):
        if self.a.spec != self.b.spec:
            raise BlockError("matrices over different fields")
        if self.a.shape != self.b.shape or self.a.nrows != self.a.cols:
            raise BlockError(f"need equal square shapes, got {self.a.shape} and {self.b.shape}")

    @property
    def dim(self) -> int:
        return self.a.nrows

    @property
    def spec(self) -> FieldSpec:
        return self.a.spec

    @property
    def matrices(self) -> tuple[Mat, Mat]:
        return (self.a, self.b)


def companion(g: Poly) -> Mat:
    """Companion (Frobenius) matrix: subdiagonal ones, coefficients of g in
    the last column."""
    if not g.is_monic() or g.degree < 1:
        raise BlockError("companion matrix needs a monic polynomial of degree >= 1")
    d, w = g.degree, g.spec.packing.w
    return Mat(tuple((i and 1 << ((i - 1) * w)) | g.coeff(i) << ((d - 1) * w) for i in range(d)), d, g.spec)


def _paired(upper: Mat) -> Mat:
    """[[0, U],[U^T, 0]], U of shape r x c: U's rows shifted past r columns,
    then the rows of U^T."""
    r, c = upper.shape
    shift = r * upper.spec.packing.w
    rows = [u << shift for u in upper.packed] + list(upper.transpose().packed)
    return Mat(tuple(rows), r + c, upper.spec)


def build_finite(f: Poly, n: int) -> AlternatingPair:
    """The 2d x 2d finite block for f^n, d = n * deg f."""
    if n < 1:
        raise BlockError("multiplicity must be positive")
    if not f.is_monic() or not is_irreducible(f):
        raise BlockError(f"{f} is not monic irreducible")
    g = f
    for _ in range(n - 1):
        g = g * f
    d = g.degree
    spec = f.spec
    a = _paired(Mat.identity(spec, d))
    b = _paired(companion(g))
    return AlternatingPair(a, b)


def build_infinity(n: int, spec: FieldSpec | None = None) -> AlternatingPair:
    """The 2n x 2n block at the infinite point: the finite block for t^n
    with its two matrices swapped (``companion(t^n)`` is the nilpotent
    lower Jordan block)."""
    if n < 1:
        raise BlockError("size must be positive")
    fin = build_finite(Poly.t(spec or FieldSpec.gf2()), n)
    return AlternatingPair(fin.b, fin.a)


def build_plus(eps: int, spec: FieldSpec | None = None) -> AlternatingPair:
    """Odd block of dimension 2*eps+1; eps = 0 is the 1 x 1 zero pair."""
    if eps < 0:
        raise BlockError("minimal index must be nonnegative")
    spec = spec or FieldSpec.gf2()
    w = spec.packing.w
    left = Mat(tuple(1 << (i * w) for i in range(eps)), eps + 1, spec)
    right = Mat(tuple(1 << ((i + 1) * w) for i in range(eps)), eps + 1, spec)
    return AlternatingPair(_paired(left), _paired(right))


def direct_sum(pairs: list[AlternatingPair], spec: FieldSpec | None = None) -> AlternatingPair:
    """Orthogonal direct sum: block-diagonal assembly of both matrices."""
    if not pairs:
        if spec is None:
            raise BlockError("empty direct sum needs an explicit field")
        return AlternatingPair(Mat.zeros(spec, 0, 0), Mat.zeros(spec, 0, 0))
    spec = pairs[0].spec
    for p in pairs:
        if p.spec != spec:
            raise BlockError("mixed fields in direct sum")
    a = Mat.block_diag(spec, [p.a for p in pairs])
    b = Mat.block_diag(spec, [p.b for p in pairs])
    return AlternatingPair(a, b)


# -- block identifiers ---------------------------------------------------------


@dataclass(frozen=True)
class BlockId:
    """Tagged name of an indecomposable block: finite (f, n), infinity (n),
    or plus (minimal index eps)."""

    kind: str  # "fin" | "inf" | "plus"
    f: Poly | None
    n: int

    @staticmethod
    def finite(f: Poly, n: int) -> "BlockId":
        if not f.is_monic() or not is_irreducible(f):
            raise BlockError(f"{f} is not monic irreducible")
        if n < 1:
            raise BlockError("multiplicity must be positive")
        return BlockId("fin", f, n)

    @staticmethod
    def infinity(n: int) -> "BlockId":
        if n < 1:
            raise BlockError("size must be positive")
        return BlockId("inf", None, n)

    @staticmethod
    def plus(eps: int) -> "BlockId":
        if eps < 0:
            raise BlockError("minimal index must be nonnegative")
        return BlockId("plus", None, eps)

    @property
    def dim(self) -> int:
        if self.kind == "fin":
            return 2 * self.n * self.f.degree
        if self.kind == "inf":
            return 2 * self.n
        return 2 * self.n + 1

    @staticmethod
    def of_point(point: ProjPoint, n: int) -> "BlockId":
        """The block labelled (point, n).

        This is the one place that tells eps, x2 and finite points apart.
        A finite point is taken as a unital irreducible form without a second
        irreducibility test.
        """
        if isinstance(point, _EpsType):
            return BlockId.plus(n - 1)
        f, x2_mult = dehomogenize(point)
        if x2_mult == 0:
            if n < 1:
                raise BlockError("multiplicity must be positive")
            return BlockId("fin", f, n)
        if point == BinaryForm.x2(point.spec):
            return BlockId.infinity(n)
        raise BlockError("projective point must be unital irreducible or x2")

    def build(self, spec: FieldSpec | None = None) -> AlternatingPair:
        if self.kind == "fin":
            return build_finite(self.f, self.n)
        if self.kind == "inf":
            return build_infinity(self.n, spec)
        return build_plus(self.n, spec)

    def __str__(self) -> str:
        if self.kind == "fin":
            return f"fin:{format_poly(self.f)}^{self.n}"
        if self.kind == "inf":
            return f"inf:{self.n}"
        return f"plus:{self.n}"

    @staticmethod
    def parse(text: str, spec: FieldSpec | None = None) -> "BlockId":
        spec = spec or FieldSpec.gf2()
        s = text.strip()
        for prefix, make in (("inf:", BlockId.infinity), ("plus:", BlockId.plus)):
            if s.startswith(prefix):
                try:
                    n = int(s[len(prefix):])
                except ValueError:
                    raise BlockError(f"bad block size in {text!r}") from None
                return make(n)
        if s.startswith("fin:"):
            body = s[4:]
            if "^" not in body:
                raise BlockError(f"finite block needs a ^<n> suffix: {text!r}")
            ptext, ntext = body.rsplit("^", 1)
            try:
                n = int(ntext)
            except ValueError:
                raise BlockError(f"finite block needs a ^<n> suffix: {text!r}") from None
            return BlockId.finite(parse_poly(spec, ptext), n)
        raise BlockError(f"bad block id {text!r}")

