"""Weak equivalence: the GL(2) action on class functions, canonical orbit
representatives with their witnesses, and witness-producing equivalence
tests.

A weak transform recombines the two forms through an invertible 2x2 matrix
on top of a simultaneous basis change: B_k = sum_l q_lk (S A_l S^T).

Canonical forms are found by lexicographic canonisation through point
stabilisers (McKay and Piperno, "Practical graph isomorphism, II",
J. Symbolic Comput. 60 (2014)): the degree-1 points of the class anchor the
few elements of PGL(2, q) that can reach the least form, and only a class
with fewer than two degree-1 points scans the whole group.
``canonical_rep`` carries the proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator

from .blocks import AlternatingPair
from .field import FieldError, FieldSpec
from .linalg import Mat, congruence
from .pencil import ClassFunction, decompose, require_valid
from .polyring import _EpsType, moebius_act

ENUMERATION_CAP_K = 4
# canonical_rep tries at most as many moves as a PGL(2, 2^ENUMERATION_CAP_K) scan
CANDIDATE_CAP = 2 ** (3 * ENUMERATION_CAP_K) - 2**ENUMERATION_CAP_K


class CapError(ValueError):
    """Field too large for GL(2) enumeration, or too many candidate moves."""


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

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.q11, self.q12), (self.q21, self.q22))

    def transpose(self) -> "GL2Element":
        return GL2Element(self.q11, self.q21, self.q12, self.q22, self.spec)

    def adj(self) -> "GL2Element":
        """The adjugate, det(Q) * Q^-1 in characteristic 2."""
        return GL2Element(self.q22, self.q12, self.q21, self.q11, self.spec)

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

    def to_mat(self) -> Mat:
        return Mat.from_rows(self.spec, [[self.q11, self.q12], [self.q21, self.q22]])

    def __str__(self) -> str:
        return f"[[{self.q11:x},{self.q12:x}],[{self.q21:x},{self.q22:x}]]"


def _require_k(spec: FieldSpec, cap: int, what: str) -> None:
    if spec.k > cap:
        raise CapError(f"{what} is capped at GF(2^{cap}); got {spec}")


def gl2_enumerate(spec: FieldSpec) -> Iterator[GL2Element]:
    """All invertible 2x2 matrices; identity first, then lexicographic."""
    _require_k(spec, ENUMERATION_CAP_K, "GL(2) enumeration")
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
    _require_k(spec, ENUMERATION_CAP_K, "GL(2) enumeration")
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
    # Scalars fix every projective point, so the adjugate moves points as
    # Q^-1 does without a field inversion.
    return _relabel(rho, q.adj())


def _anchored(spec: FieldSpec, za, zb, t11: int, t22: int) -> GL2Element:
    """adj(M) diag(t11, t22) with M = rows(za, zb): it moves the point with
    zero za to x2 and the one with zero zb to x1."""
    (m11, m12), (m21, m22) = za, zb
    m = spec.mul
    return GL2Element(m(m22, t11), m(m12, t22), m(m21, t11), m(m11, t22), spec)


def _candidates(rho: ClassFunction) -> Iterator[GL2Element]:
    """Elements of GL(2) that hold every minimiser of the orbit up to a
    scalar (see canonical_rep); CapError when there are too many."""
    spec, q, mul = rho.spec, rho.spec.order, rho.spec.mul
    points = [p for p, _, _ in rho.entries if not isinstance(p, _EpsType)]
    if not points:
        yield GL2Element.identity(spec)
        return
    zeros = list(dict.fromkeys(p.coeffs for p in points if p.degree == 1))
    s = len(zeros)
    if s < 2:
        yield from pgl2_enumerate(spec)
        return
    count = 2 * (q - 1) if s == 2 else s * (s - 1) * (s - 2)
    if count > CANDIDATE_CAP:
        raise CapError(
            f"the weak canonical form of a class with {s} degree-1 points over {spec} "
            f"tries {count} moves; capped at {CANDIDATE_CAP}"
        )
    if s == 2:
        for za, zb in permutations(zeros):
            for t22 in range(1, q):
                yield _anchored(spec, za, zb, 1, t22)
    else:
        for za, zb, (c1, c2) in permutations(zeros, 3):
            (m11, m12), (m21, m22) = za, zb
            alpha = mul(c1, m22) ^ mul(c2, m21)
            beta = mul(c1, m12) ^ mul(c2, m11)
            yield _anchored(spec, za, zb, beta, alpha)


def _minimisers(rho: ClassFunction) -> tuple[ClassFunction, list[GL2Element]]:
    """The least form in the orbit of rho and the candidates that reach it."""
    best, rep, found = None, None, []
    for q in _candidates(rho):
        moved = act_on_class(q, rho)
        key = moved.sort_key()
        if best is None or key < best:
            best, rep, found = key, moved, [q]
        elif key == best:
            found.append(q)
    return rep, found


def _first(qs: Iterable[GL2Element]) -> GL2Element:
    """The first of the scalar classes of qs in gl2_enumerate order: each is
    scaled so that its first nonzero entry is 1, and the identity comes
    before the rest, which follow in lexicographic order."""

    def scaled(q: GL2Element) -> GL2Element:
        lam, mul = q.spec.inv(q.q11 or q.q12), q.spec.mul
        return GL2Element(*(mul(lam, x) for x in (q.q11, q.q12, q.q21, q.q22)), q.spec)

    return min(map(scaled, qs), key=lambda q: (q.rows() != ((1, 0), (0, 1)), q.rows()))


def canonical_rep(rho: ClassFunction) -> tuple[ClassFunction, GL2Element]:
    """Minimum of the orbit under the serialization order, with a witness Q:
    the first minimiser in gl2_enumerate order, so the identity when rho is
    already canonical.

    Act(Q) moves the point with zero z to the one with zero zQ and fixes
    eps.  The key lists eps entries first, then points by degree, and the
    three least degree-1 points are x2 < x1 < x1 + x2, with zeros (1, 0),
    (0, 1) and (1, 1).  Let s be the number of distinct degree-1 points in
    the support.  A minimiser's image holds x2 when s >= 1: otherwise PGL(2)
    is transitive on degree-1 points, so some element moves the least
    degree-1 point of the image onto x2 and keeps the eps entries before it,
    which lowers the key.  Likewise it holds x1 when s >= 2, or the
    stabiliser of x2 would move the next degree-1 point onto x1 and keep
    every entry before it, and x1 + x2 when s >= 3, through the stabiliser
    of x2 and x1.  So every minimiser sends some distinct support points
    a, b, c to x2, x1, x1 + x2, as far as s reaches, and with
    M = rows(z_a, z_b) the candidates are, up to scalars:

    - s >= 3: adj(M) diag(beta, alpha) with (alpha, beta) = z_c adj(M),
      one per ordered triple, as PGL(2) is sharply 3-transitive;
    - s = 2: adj(M) diag(1, mu), mu != 0, q - 1 per ordered pair;
    - s <= 1: all of PGL(2, q), through pgl2_enumerate, unless every entry
      is eps: then every element fixes rho, and the identity, the first of
      them, stands alone.

    Scalars move no point, and in gl2_enumerate order the first member of a
    scalar class is the one whose first nonzero entry is 1, with the
    identity before all the rest.  So the scan's witness is the least
    minimiser, scaled so, under the key (not the identity, then
    (q11, q12, q21, q22) lexicographic).

    CapError when the candidates outnumber CANDIDATE_CAP, the size of
    PGL(2, 16): s(s - 1)(s - 2) of them for s >= 3 (so s <= 17 at any k),
    2(q - 1) for s = 2 (so k <= 10), and s <= 1 keeps pgl2_enumerate's
    cap of k <= ENUMERATION_CAP_K unless every entry is eps.
    """
    rep, found = _minimisers(rho)
    return rep, _first(found)


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
    r congruent to p recombined through Q, the first in gl2_enumerate order.

    The pairs are equivalent iff their canonical reps agree.  The moves g
    with act(g, rho_p) = rho_r are then M adj(Q_r) for M over the
    minimisers of rho_p and one minimiser Q_r of rho_r (act(g Q_r, rho_p)
    is the rep), and canonical_rep's candidates hold all of those M (or,
    when every entry is eps and every g qualifies, the identity).  The
    recombination moves points by act(adj(Q)^T), so Q = (Q_r adj(M))^T,
    and the witness is the first such scalar class, as in canonical_rep.
    """
    if p.spec != r.spec:
        raise FieldError(f"mixed fields: {p.spec} vs {r.spec}")
    require_valid(p)
    require_valid(r)
    if p.dim != r.dim:
        return False, None
    rho_p = decompose(p)
    rho_r = decompose(r)
    if _orbit_invariant(rho_p) != _orbit_invariant(rho_r):
        return False, None
    rep_p, found_p = _minimisers(rho_p)
    rep_r, found_r = _minimisers(rho_r)
    if rep_p != rep_r:
        return False, None
    q = _first((found_r[0] * m.adj()).transpose() for m in found_p)
    # confirm at pair level by re-applying the transform
    moved = transform_weak(p, Mat.identity(p.spec, p.dim), q)
    if decompose(moved) != rho_r:
        raise AssertionError("witness failed pair-level verification")
    return True, q
