"""Weak equivalence: the GL(2) action on class functions, canonical orbit
representatives over small fields, and witness-producing equivalence tests.

A weak transform recombines the two forms through an invertible 2x2 matrix
on top of a simultaneous basis change: B_k = sum_l q_lk (S A_l S^T).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .blocks import AlternatingPair
from .field import FieldError, FieldSpec
from .linalg import Mat, congruence
from .pencil import ClassFunction, decompose
from .polyring import _EpsType, moebius_act

ENUMERATION_CAP_K = 4


class CapError(ValueError):
    """Field too large for enumeration-based canonicalization."""


@dataclass(frozen=True)
class GL2Element:
    """Invertible 2x2 matrix over GF(2^k), raw bitmask entries."""

    q11: int
    q12: int
    q21: int
    q22: int
    spec: FieldSpec

    def __post_init__(self):
        if self.det == 0:
            raise ValueError("singular 2x2 matrix")

    @property
    def det(self) -> int:
        s = self.spec
        return s.mul(self.q11, self.q22) ^ s.mul(self.q12, self.q21)

    @staticmethod
    def identity(spec: FieldSpec) -> "GL2Element":
        return GL2Element(1, 0, 0, 1, spec)

    @staticmethod
    def swap(spec: FieldSpec) -> "GL2Element":
        return GL2Element(0, 1, 1, 0, spec)

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.q11, self.q12), (self.q21, self.q22))

    def transpose(self) -> "GL2Element":
        return GL2Element(self.q11, self.q21, self.q12, self.q22, self.spec)

    def entry(self, l: int, k: int) -> int:
        return self.rows()[l][k]

    def __mul__(self, other: "GL2Element") -> "GL2Element":
        if other.spec != self.spec:
            raise FieldError("mixed fields")
        m = self.spec.mul
        return GL2Element(
            m(self.q11, other.q11) ^ m(self.q12, other.q21),
            m(self.q11, other.q12) ^ m(self.q12, other.q22),
            m(self.q21, other.q11) ^ m(self.q22, other.q21),
            m(self.q21, other.q12) ^ m(self.q22, other.q22),
            self.spec,
        )

    def inv(self) -> "GL2Element":
        s = self.spec
        dinv = s.inv(self.det)
        return GL2Element(
            s.mul(dinv, self.q22),
            s.mul(dinv, self.q12),
            s.mul(dinv, self.q21),
            s.mul(dinv, self.q11),
            s,
        )

    def to_mat(self) -> Mat:
        return Mat.from_rows(self.spec, [[self.q11, self.q12], [self.q21, self.q22]])

    def __str__(self) -> str:
        return f"[[{self.q11:x},{self.q12:x}],[{self.q21:x},{self.q22:x}]]"


def _require_enumerable(spec: FieldSpec) -> None:
    if spec.k > ENUMERATION_CAP_K:
        raise CapError(
            f"GL(2) enumeration is capped at GF(2^{ENUMERATION_CAP_K}); got {spec}"
        )


def gl2_enumerate(spec: FieldSpec) -> Iterator[GL2Element]:
    """All invertible 2x2 matrices; identity first, then lexicographic."""
    _require_enumerable(spec)
    yield GL2Element.identity(spec)
    q = spec.order
    mul = spec.mul
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    if (a, b, c, d) == (1, 0, 0, 1):
                        continue
                    if mul(a, d) ^ mul(b, c):
                        yield GL2Element(a, b, c, d, spec)


def pgl2_enumerate(spec: FieldSpec) -> Iterator[GL2Element]:
    """One element per scalar class of GL(2), q^3 - q in all: the identity
    first, then the invertible matrices whose first nonzero entry is 1, in
    lexicographic order.

    Scalars fix every projective point, so this set covers every orbit
    move.  Each element is the first of its scalar class in gl2_enumerate
    order (the other members start with a larger entry), so a scan that
    keeps its first hit returns the matrix a full GL(2) scan would.
    """
    _require_enumerable(spec)
    yield GL2Element.identity(spec)
    q = spec.order
    mul = spec.mul
    for c in range(1, q):
        for d in range(q):
            yield GL2Element(0, 1, c, d, spec)
    for b in range(q):
        for c in range(q):
            for d in range(q):
                if (b, c, d) != (0, 0, 1) and d ^ mul(b, c):
                    yield GL2Element(1, b, c, d, spec)


def point_action(q: GL2Element, point):
    """The substitution action on projective points (eps is fixed)."""
    return moebius_act(q.rows(), point, q.spec)


def _relabel(rho: ClassFunction, q: GL2Element) -> ClassFunction:
    acc: dict = {}
    for point, n, mult in rho.entries:
        key = (point_action(q, point), n)
        acc[key] = acc.get(key, 0) + mult
    return ClassFunction.from_dict(rho.spec, acc)


def relabel_class(rho: ClassFunction, q: GL2Element) -> ClassFunction:
    """Class function of the pair recombined through Q with S = identity.

    The recombination B_k = sum_l q_lk A_l turns the pencil x1 A + x2 B into
    the original pencil evaluated at (x1, x2) Q^T, so the points move through
    the transposed substitution.
    """
    return _relabel(rho, q.transpose())


def act_on_class(q: GL2Element, rho: ClassFunction) -> ClassFunction:
    """The right action on class functions: (rho * Q)(g, n) = rho(Q*g, n).

    Composition is contravariant: act(Q1*Q2, rho) = act(Q2, act(Q1, rho)).
    """
    # The adjugate is det(Q) * Q^-1 in characteristic 2, and scalars fix
    # every projective point, so it moves points as Q^-1 does without a
    # field inversion.
    return _relabel(rho, GL2Element(q.q22, q.q12, q.q21, q.q11, q.spec))


def canonical_rep(rho: ClassFunction) -> tuple[ClassFunction, GL2Element]:
    """Minimum of the orbit under the serialization order, with a witness Q
    (the identity when rho is already canonical).

    The witness is the first minimiser in gl2_enumerate order.  The scan
    runs over pgl2_enumerate, which finds that same matrix: every scalar
    multiple of Q moves rho alike, and the scanned element is the first of
    its scalar class.
    """
    best = None
    best_q = None
    for q in pgl2_enumerate(rho.spec):
        moved = act_on_class(q, rho)
        key = moved.sort_key()
        if best is None or key < best[0]:
            best = (key, moved)
            best_q = q
    return best[1], best_q


def _orbit_invariant(rho: ClassFunction) -> list[tuple[int, int, int]]:
    """Sorted (point degree, n, mult) triples, eps as degree 0: the point
    action keeps degrees, so weakly equivalent pairs share this."""
    return sorted(
        (0 if isinstance(point, _EpsType) else point.degree, n, mult)
        for point, n, mult in rho.entries
    )


def transform_weak(pair: AlternatingPair, s: Mat, q: GL2Element) -> AlternatingPair:
    """Apply the weak transform: B_k = sum_l q_lk (S A_l S^T)."""
    if pair.spec != s.spec or pair.spec != q.spec:
        raise FieldError("mixed fields in weak transform")
    ca = congruence(s, pair.a)
    cb = congruence(s, pair.b)
    new_a = ca.scale(q.q11) + cb.scale(q.q21)
    new_b = ca.scale(q.q12) + cb.scale(q.q22)
    return AlternatingPair(new_a, new_b)


def weakly_equivalent(
    p: AlternatingPair, r: AlternatingPair
) -> tuple[bool, GL2Element | None]:
    """Decide weak equivalence; on success return a witness Q with
    r congruent to p recombined through Q, the first in gl2_enumerate order."""
    if p.spec != r.spec:
        raise FieldError(f"mixed fields: {p.spec} vs {r.spec}")
    if p.dim != r.dim:
        return False, None
    rho_p = decompose(p)
    rho_r = decompose(r)
    if _orbit_invariant(rho_p) != _orbit_invariant(rho_r):
        return False, None
    for q in pgl2_enumerate(p.spec):
        if relabel_class(rho_p, q) == rho_r:
            # confirm at pair level by re-applying the transform
            moved = transform_weak(p, Mat.identity(p.spec, p.dim), q)
            if decompose(moved) != rho_r:
                raise AssertionError("witness failed pair-level verification")
            return True, q
    return False, None
