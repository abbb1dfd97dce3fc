"""From classification data to class-2 nilpotent 2-groups.

The group has involutive top generators h_1..h_num_h over a central bottom
(Z/2^e)^m; the commutator [h_i, h_j] is a vector of order-2 bottom elements
read off a tuple of alternating matrices over GF(2).  A class function's
group reads the same table off its canonical pair, so the block matrices of
``blocks.py`` are the one definition of each block.  ``FiniteQuotient`` holds
the group once, as its commutator table in n strided lower-triangle rows,
form k at bits [k n, (k+1) n) (packed GF(2) rows, as in Albrecht, Bard and
Hart, ACM TOMS 2010).  The renderers spell the presentation out of those
rows, and the finite model multiplies through them as its 2-cocycle, so
h-lifts square to the identity and one xor pass over the set bits of x gives
all m forms.  A ``QuotientMap`` holds its top map and m quadratic
corrections in one such set of rows and its linear corrections as e
bit-planes per bottom coordinate, so ``apply`` also makes one pass.

``iso_from_witness`` turns a weak-equivalence witness (S, Q) into an explicit
isomorphism of finite models.  The top maps through S^-1 and the bottom
through a 0/1 lift of Q; a quadratic correction, in the same packed form as
the cocycle, absorbs the cocycle discrepancy introduced by S.  That
discrepancy is symmetric exactly when (S, Q) carries one tuple to the other,
so it also decides the witness, with no dense matrix products.  The linear
half of the correction needs a square root of a socle element, which exists
only for e >= 2; for e = 1 a nonzero diagonal discrepancy is a hard
obstruction (the two models can even be non-isomorphic groups) and is
reported as such.  Every map is checked by ``verify_quotient_map``, an exact
certificate for every order: the homomorphism defect is bilinear, so n^2
generator pairs decide it, read off one row per generator, and the map is
triangular, so two GF(2) ranks decide bijectivity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from .field import FieldSpec
from .linalg import LinAlgError, Mat, _rref, _transpose
from .pencil import ClassFunction, _alternating_fault, assemble
from .weakeq import GL2Element


# The finite model has order 2^(num_h + e*m); up to this exponent the order and
# 2^e print under Python's default 4,300-digit limit on int-to-str conversion.
MAX_ORDER_LOG2 = 10_000


class PresentationError(ValueError):
    """Invalid presentation input."""


class WitnessError(ValueError):
    """The supplied (S, Q) witness does not transform the tuples correctly."""


class IsoObstructionError(ValueError):
    """No isomorphism of the prescribed shape exists (e = 1 square
    obstruction)."""


Element = tuple[int, tuple[int, ...]]


def _xor_rows(rows: Sequence[int], x: int) -> int:
    """Bitmask vector x times the GF(2) matrix with packed ``rows``: the xor
    of the rows x selects."""
    acc = 0
    while x:
        low = x & -x
        acc ^= rows[low.bit_length() - 1]
        x ^= low
    return acc


@dataclass(frozen=True)
class FiniteQuotient:
    """The group of num_h involutive generators h_i over a central
    (Z/2^e)^m bottom, order 2^(num_h + e*m), fixed by its commutator table:
    bit k*n + i of row j of ``cocycle`` (n = num_h, i < j) is coordinate k
    of [h_i, h_j] in F_2^m.  Elements are pairs (x, a) of an exponent
    bitmask and a bottom vector, multiplied through that lower-triangle
    cocycle lifted into the socle."""

    num_h: int
    m: int
    e: int
    cocycle: tuple[int, ...]

    def __post_init__(self):
        if self.e < 1:
            raise PresentationError("quotient exponent must be positive")
        if self.m < 0:
            raise PresentationError("bottom rank must be non-negative")
        if (bits := self.num_h + self.e * self.m) > MAX_ORDER_LOG2:
            raise PresentationError(f"finite model order 2^{bits} exceeds 2^{MAX_ORDER_LOG2}")
        n = self.num_h
        if len(self.cocycle) != n:
            raise PresentationError(f"cocycle has {len(self.cocycle)} rows, need {n}")
        fields = sum(1 << (k * n) for k in range(self.m))
        for j, row in enumerate(self.cocycle):
            if row & ~(((1 << j) - 1) * fields):
                raise PresentationError(f"cocycle row {j} has a bit outside its lower triangle")

    @property
    def order(self) -> int:
        return 1 << (self.num_h + self.e * self.m)

    @property
    def identity(self) -> Element:
        return (0, (0,) * self.m)

    @property
    def socle_unit(self) -> int:
        return 1 << (self.e - 1)

    @property
    def commutators(self) -> tuple[tuple[tuple[int, int], tuple[int, ...]], ...]:
        """The nonzero [h_i, h_j] as ((i, j), F_2^m vector), 0-based, sorted by (i, j)."""
        n, rows = self.num_h, self.cocycle
        table = (
            ((i, j), tuple(rows[j] >> (k * n + i) & 1 for k in range(self.m)))
            for i in range(n)
            for j in range(i + 1, n)
        )
        return tuple(entry for entry in table if any(entry[1]))

    def mul(self, g: Element, h: Element) -> Element:
        x, a = g
        y, b = h
        n, socle, mask = self.num_h, self.socle_unit, (1 << self.e) - 1
        # beta_k(x, y): the parity of y masked by field k of the rows x selects
        acc = _xor_rows(self.cocycle, x)
        out = []
        for av, bv in zip(a, b):
            out.append((av + bv + socle * ((acc & y).bit_count() & 1)) & mask)
            acc >>= n
        return (x ^ y, tuple(out))

    # -- rendering -----------------------------------------------------------

    def generator_names(self) -> list[str]:
        return [f"h{i + 1}" for i in range(self.num_h)] + [
            f"a{k + 1}" for k in range(self.m)
        ]

    def relators(self) -> list[str]:
        """GAP-style relator spellings for the model at exponent e."""
        socle = self.socle_unit
        rel = [f"h{i + 1}^2" for i in range(self.num_h)]
        rel += [f"a{k + 1}^{1 << self.e}" for k in range(self.m)]
        rel += [
            f"Comm(a{k + 1},a{l + 1})"
            for k in range(self.m)
            for l in range(k + 1, self.m)
        ]
        rel += [
            f"Comm(h{i + 1},a{k + 1})"
            for i in range(self.num_h)
            for k in range(self.m)
        ]
        table = dict(self.commutators)
        for i in range(self.num_h):
            for j in range(i + 1, self.num_h):
                vec = table.get((i, j))
                word = "".join(
                    f"*a{k + 1}^-{socle}" for k, bit in enumerate(vec or ()) if bit
                )
                rel.append(f"Comm(h{i + 1},h{j + 1}){word}")
        return rel

    def to_gap_text(self) -> str:
        gens = ", ".join(self.generator_names())
        rels = ", ".join(self.relators())
        return f"F(<{gens}>) / [ {rels} ]"

    def to_json_dict(self) -> dict:
        return {
            "num_h": self.num_h,
            "m": self.m,
            "e": self.e,
            "generators": self.generator_names(),
            "relators": self.relators(),
            "commutators": [
                {"i": i + 1, "j": j + 1, "coeffs": list(vec)}
                for (i, j), vec in self.commutators
            ],
        }


# -- building presentations -----------------------------------------------------


def presentation_from_tuple(mats: Sequence[Mat], e: int = 1) -> FiniteQuotient:
    """The model whose commutator table is an m-tuple of alternating
    matrices over GF(2): row j of its cocycle is the lower triangle of row j
    of each matrix, matrix k in field k.  A refusal names a bad matrix by its
    position, from 1."""
    if not mats:
        raise PresentationError("need at least one matrix")
    spec = mats[0].spec
    if spec.k != 1:
        raise PresentationError("group construction is specific to GF(2)")
    n = mats[0].nrows
    for index, m in enumerate(mats, 1):
        if m.spec != spec or m.shape != (n, n):
            raise PresentationError("matrices must share a square GF(2) shape")
        if fault := _alternating_fault(str(index), m):
            raise PresentationError(fault.message)
    cocycle = tuple(
        sum((m.packed[j] & (1 << j) - 1) << (k * n) for k, m in enumerate(mats))
        for j in range(n)
    )
    return FiniteQuotient(n, len(mats), e, cocycle)


def presentation_from_class(rho: ClassFunction, e: int = 1) -> FiniteQuotient:
    """The model attached to a class function over GF(2): the commutator
    table of its canonical pair ``assemble(rho)``, so each block's
    commutators are its block matrices and cross-block ones vanish.
    ``presentation_from_tuple`` refuses any other field."""
    return presentation_from_tuple(list(assemble(rho).matrices), e)


# -- isomorphisms from weak-equivalence witnesses ---------------------------------


@dataclass(frozen=True)
class QuotientMap:
    """Explicit map between finite models: top through a GF(2) matrix,
    bottom through an integer matrix mod 2^e, plus a per-exponent-vector
    central correction."""

    src: FiniteQuotient
    dst: FiniteQuotient
    # n strided rows: bits [0, n) of row i are the top image of h_i, bits
    # [(k+1)*n, (k+2)*n) row i of the lower-triangle quadratic form q_k, read
    # as q_k(x) = parity of x masked by that field of the rows x selects
    rows: tuple[int, ...]
    bottom: tuple[tuple[int, ...], ...]  # m x m integer lift
    # per bottom coordinate, e bit-planes over the generators: bit i of
    # plane b is bit b of h_i's linear correction
    linear: tuple[tuple[int, ...], ...]

    def apply(self, g: Element) -> Element:
        x, a = g
        n, socle, mask = self.src.num_h, self.dst.socle_unit, (1 << self.dst.e) - 1
        acc = _xor_rows(self.rows, x)
        top = acc & ((1 << n) - 1)
        out = []
        for k, planes in enumerate(self.linear):
            acc >>= n
            v = socle * ((acc & x).bit_count() & 1)
            for b, plane in enumerate(planes):
                v += (x & plane).bit_count() << b
            for al, row in zip(a, self.bottom):
                v += al * row[k]
            out.append(v & mask)
        return (top, tuple(out))


def _discrepancy(p: FiniteQuotient, r: FiniteQuotient, tops: Sequence[int], q) -> Iterator[int]:
    """Row i of delta(x, y) = beta_R(T x, T y) - beta_P(x, y) Q mod 2, T e_i =
    ``tops[i]`` and Q = ``q`` mod 2, field k holding delta_k(e_i, .): the
    target cocycle row T e_i selects, pulled back through T^T (the pullback
    of a form with matrix L is T L T^T), plus the fields of P's row i."""
    n, full = p.num_h, (1 << p.num_h) - 1
    pull = [c << (k * n) for k in range(p.m) for c in _transpose(tops, n, 1)]
    for t, row_p in zip(tops, p.cocycle):
        row = _xor_rows(pull, _xor_rows(r.cocycle, t))
        for l, qrow in enumerate(q):
            for k, v in enumerate(qrow):
                if v & 1:
                    row ^= (row_p >> (l * n) & full) << (k * n)
        yield row


def iso_from_witness(
    p: FiniteQuotient,
    r: FiniteQuotient,
    s: Mat,
    q: GL2Element,
    e: int,
) -> QuotientMap:
    """Isomorphism from p to r, both taken at exponent e, from a witness
    with r's tuple equal to the S, Q transform of p's, that is
    R_k = sum_l q_lk S A_l S^T.

    Top vectors map through S^-1, the bottom through the 0/1 lift of Q; the
    cocycle discrepancy of the basis change is absorbed by a quadratic
    correction plus, for e >= 2, a linear half-socle part.

    The discrepancy also decides the witness.  With C_P,l and C_R,k the
    lower triangles of A_l and R_k (so C + C^T is the alternating matrix),
    the discrepancy form k has matrix

        delta_k = S^-1 C_R,k S^-T + sum_l q_lk C_P,l.

    In characteristic 2, delta_k + delta_k^T = S^-1 R_k S^-T + sum_l q_lk A_l,
    which is zero iff R_k = sum_l q_lk S A_l S^T.  So the tuples match iff
    every delta_k is symmetric; otherwise ``WitnessError`` is raised.
    Refusals come in this order: shape, singular S, witness, the e = 1
    obstruction, then ``PresentationError`` for e < 1 or a model order
    2^(n + 2e) beyond 2^MAX_ORDER_LOG2.  Before it is returned the map
    passes ``verify_quotient_map``: the exact certificate (one pulled-back
    row per generator for the homomorphism property, GF(2) ranks of S^-1
    and Q for bijectivity) and a random spot check of products.
    """
    if p.m != 2 or r.m != 2:
        raise WitnessError("witness maps need bottom rank 2")
    if p.num_h != r.num_h:
        raise WitnessError("presentations have different generator counts")
    if s.spec.k != 1 or q.spec.k != 1:
        raise WitnessError("witness must be over GF(2)")
    n = p.num_h
    if s.shape != (n, n):
        raise WitnessError(f"S has shape {s.shape}, need ({n}, {n})")
    try:
        minv = s.inv()
    except LinAlgError as exc:
        raise WitnessError("S is singular") from exc
    qrows = q.rows()
    mrows = minv.packed
    full = (1 << n) - 1
    delta = list(_discrepancy(p, r, mrows, qrows))
    forms = [tuple(row >> (k * n) & full for row in delta) for k in range(2)]
    if any(_transpose(form, n, 1) != form for form in forms):
        raise WitnessError("witness fails verification: tuples do not match")
    # half-socle root of the diagonal discrepancy (e >= 2), a plane per coordinate
    diag = [sum((row >> i & 1) << i for i, row in enumerate(form)) for form in forms]
    if e == 1 and any(diag):
        raise IsoObstructionError(
            "e = 1 quotients admit no map of the prescribed shape for this "
            "witness: the basis change flips the square of a lifted generator"
        )
    # off the diagonal delta is absorbed by q(x) = sum_{j < i} x_i x_j delta_ij
    lower = [((1 << i) - 1) * (1 | 1 << n) for i in range(n)]
    qmap = QuotientMap(
        src=replace(p, e=e),
        dst=replace(r, e=e),
        rows=tuple(t | (row & low) << n for t, row, low in zip(mrows, delta, lower)),
        bottom=tuple(tuple(qrows[l][k] for k in range(2)) for l in range(2)),
        linear=tuple(tuple(d if b == e - 2 else 0 for b in range(e)) for d in diag),
    )
    verify_quotient_map(qmap)
    return qmap


def verify_quotient_map(qmap: QuotientMap, rng: random.Random | None = None) -> None:
    """Exact certificate that ``qmap`` is an isomorphism, for every order.

    Notation: n = num_h, s = 2^(e-1) the socle unit, x, y exponent bitmasks
    read as 0/1 vectors.  The map is

        phi(x, a) = (T x, a Q + L(x) + s q(x))  mod 2^e,

    with T x the top field of the xor of the ``rows`` x selects, Q =
    ``bottom``, L(x) = sum_b 2^b popcount(x and plane_b) over the ``linear``
    bit-planes, the integer sum of the generators' corrections x selects,
    and q(x) the parity vector of the quadratic fields of the same xor,
    masked by x.  Both models multiply as
    (x, a)(y, b) = (x xor y, a + b + s beta(x, y)), beta GF(2)-bilinear.

    Homomorphism.  T is GF(2)-linear, so phi(gh) and phi(g) phi(h) have the
    same top; (a + b) Q = a Q + b Q, so their bottoms differ by

        D(x, y) = s beta_P(x, y) Q - 2 L(x and y)
                  + s (q(x xor y) - q(x) - q(y) - beta_R(T x, T y))  mod 2^e,

    whatever a and b are.  D is bilinear mod 2^e in the 0/1 coordinates:
    L(x and y) = sum_i x_i y_i L(e_i); a term s c depends on c mod 2 only,
    so a GF(2)-bilinear c gives s c(x, y) = sum_ij x_i y_j s c(e_i, e_j);
    beta_R(T x, T y) is GF(2)-bilinear because T is linear; and since
    (x xor y)_i = x_i + y_i mod 2, q(x xor y) - q(x) - q(y) is the polar
    form of q, GF(2)-bilinear too.  So phi is a homomorphism iff D vanishes on
    the n^2 generator pairs.  D(e_i, e_j) = s c_ij - 2 [i = j] L(e_i), and row
    i of c is ``_discrepancy``'s pulled-back row xor the polar form of q (field
    k + 1 of row i and of column i): 0 off the diagonal, s c_ii = 2 L(e_i).

    Bijectivity.  phi(x, a) = (T x, a Q + f(x)) is triangular.  If T is
    invertible over GF(2) and Q is invertible mod 2^e, the inverse is
    (y, c) -> (T^-1 y, (c - f(T^-1 y)) Q^-1).  If T is singular the tops
    miss some values; if Q is singular mod 2^e, a Q = a' Q for some a != a'
    and phi(x, a) = phi(x, a').  Q is invertible mod 2^e iff det Q is odd,
    that is iff Q is invertible mod 2.  Both ranks are taken over GF(2).

    A bit outside the fields (n rows of (m + 1) n bits, an m x m bottom, m
    times e planes of n bits) is refused first.  The literal product
    property is also spot-checked on 500 pairs of elements, each drawn
    uniformly from the group by one ``getrandbits(n + e m)``: x, then e bits
    per bottom coordinate.  Raises ``WitnessError`` if any check fails.
    """
    src, dst = qmap.src, qmap.dst
    n, m, e = src.num_h, src.m, src.e
    if (dst.num_h, dst.m, dst.e) != (n, m, e):
        raise WitnessError("source and target models differ in shape")
    if (
        len(qmap.rows) != n
        or any(row >> ((m + 1) * n) for row in qmap.rows)
        or len(qmap.bottom) != m
        or any(len(row) != m for row in qmap.bottom)
        or len(qmap.linear) != m
        or any(len(planes) != e or any(p >> n for p in planes) for planes in qmap.linear)
    ):
        raise WitnessError("map has a bit outside its field")
    gf2 = FieldSpec.gf2()
    full = (1 << n) - 1
    pk = gf2.packing
    bottom = [pk.pack([v & 1 for v in row]) for row in qmap.bottom]
    if (
        len(_rref(pk, [row & full for row in qmap.rows], n, reduced=False)[0]) < n
        or len(_rref(pk, bottom, m, reduced=False)[0]) < m
    ):
        raise WitnessError("map is not a bijection")
    quad = [[row >> ((k + 1) * n) & full for row in qmap.rows] for k in range(m)]
    cols = [_transpose(rows, n, 1) for rows in quad]
    mask = (1 << e) - 1
    for i, row in enumerate(_discrepancy(src, dst, [t & full for t in qmap.rows], qmap.bottom)):
        bad = 0
        for k, planes in enumerate(qmap.linear):
            c = (row >> (k * n) ^ quad[k][i] ^ cols[k][i]) & full
            lin = sum((plane >> i & 1) << b for b, plane in enumerate(planes))
            bad |= c & ~(1 << i) | bool(dst.socle_unit * (c >> i & 1) - 2 * lin & mask) << i
        if bad:
            raise WitnessError(f"homomorphism fails on generator pair h{i + 1}, h{(bad & -bad).bit_length()}")
    rng = rng or random.Random(0xC0C)

    def draw() -> Element:
        bits = rng.getrandbits(n + e * m)
        return (bits & full, tuple([bits >> (n + e * k) & mask for k in range(m)]))

    for _ in range(500):
        g, h = draw(), draw()
        if qmap.apply(src.mul(g, h)) != dst.mul(qmap.apply(g), qmap.apply(h)):
            raise WitnessError("homomorphism fails on a sampled pair")
