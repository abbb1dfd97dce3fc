"""Classification engine for alternating pairs: validation, Pfaffian, and
decomposition into class functions.

A class function maps (projective point, n) to the multiplicity of the
corresponding canonical block.  Equality of class functions decides
congruence.  ``decompose`` reads it off the Kronecker data of t*A + B.  For
A invertible, the divisors are those of M = A^-1 B, from Krylov sequences
and kernels of powers of f(M).  Otherwise the limit of the Wong sequence
splits the pencil: its dimensions give the minimal indices, and two
sub-pencils, one with B and one with A invertible, give the divisors at x2
and the finite ones by the same kernels, or for a regular pencil the x2
divisors straight from the Wong dimensions (``decompose`` has the proofs).
One elimination of [A | B] (``linalg._front``) serves both routes: it gives
M, or the echelon on which the Wong sequence is walked, staircase fashion,
without another elimination (``_wong_dims``: the free slots of G w vanish
iff B w is in im A, and then A G w = B w).  The Pfaffian comes from the
same Krylov sequences: on the whole pencil when A is invertible, and
otherwise zero when the Wong sequence shows the pencil singular, or a
product over the split when it is regular.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .blocks import AlternatingPair, BlockId, direct_sum
from .field import FieldError, FieldSpec, Packing
from .linalg import Mat, _front, _kernel_images, _nullities, _rref, _times, _transpose
from .linalg import smith_form  # noqa: F401  (perfbench traces this name; see ROADMAP item 2c)
from .polyring import (
    EPS,
    BinaryForm,
    Poly,
    ProjPoint,
    _EpsType,
    factor,
    format_form,
    homogenize,
    lagrange_interpolate,  # noqa: F401  (perfbench traces this name; see ROADMAP items 1 and 8)
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
    symmetric with zero diagonal (alternating in characteristic 2); as earlier
    rows match their columns, row i first differs from column i at j > i."""
    w, mask = m.spec.packing.w, m.spec.packing.mask
    for i, (row, col) in enumerate(zip(m.packed, _transpose(m.packed, m.cols, w))):
        if row >> (i * w) & mask:
            return ValidationReport(False, name, (i, i), f"matrix {name} has nonzero diagonal at ({i}, {i})")
        if diff := row ^ col:
            j = ((diff & -diff).bit_length() - 1) // w
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
        parts.extend([BlockId.of_point(point, n).build(rho.spec)] * mult)
    return direct_sum(parts, spec=rho.spec)


# -- Pfaffian ---------------------------------------------------------------------


def pfaffian_form(pair: AlternatingPair) -> BinaryForm:
    """The unique square root of det(x1*A + x2*B) (squaring is injective in
    characteristic 2), as a binary form of degree dim/2; the zero form when
    the determinant vanishes identically.

    For A invertible, reducing [A | B] to [I | M] gives det A and
    M = A^-1 B, and t*A + B = A (t*I + M), so det(t*A + B) = det A * chi,
    chi = det(t*I + M).  The spans of the Krylov sequences of
    ``_charpoly_root`` are invariant under x -> x M, so M is block
    triangular in a basis through them, with the companion matrices of the
    sequences' relative minimal polynomials on the diagonal: chi is their
    product.  chi = (Pf(t*A + B) / Pf(A))^2, and a square in characteristic
    2 is sum c_i^2 t^(2i), so chi has no odd terms (``poly_sqrt`` checks)
    and its root takes the field square root of each even coefficient.  As
    chi is monic of degree n and sqrt(det A) != 0, sqrt(det A) * sqrt(chi)
    has degree exactly n/2.  As M is similar to N + N (``decompose``),
    sqrt(chi) = det(t*I + N), and the first sequence's polynomial divides
    the minimal polynomial of N, which divides sqrt(chi): at degree n/2 it
    is sqrt(chi).  ``_charpoly_root`` checks that h = sqrt(chi) kills the
    second sequence's start, and on the square-root branch that the first
    sequence's polynomial kills e_0 (AssertionError, CLI exit 3).

    Otherwise the pencil is singular, and the Pfaffian zero, iff B is not
    injective on some W_i of the Wong sequence W_0 = 0,
    W_(i+1) = {v : A v in B W_i}, which ``_wong_dims`` walks.  Strict
    equivalence P (t*A + B) Q moves the W_i and ker B together (v -> Q^-1 v),
    and both split over Kronecker blocks.  On L_eps the W_i reach the whole
    block, and ker B is spanned by its first unit vector; on L_eps^T, finite
    blocks and nilpotent blocks t*N + I, the limit W* meets ker B in 0.  So
    W* meets ker B iff an L_eps block exists, and a square pencil has one iff
    it is singular.  A regular pencil has U = 0 in the split of
    ``decompose``; rows of S, a basis of X and then one of Y, take
    P = x1*A + x2*B to S P S^T = P_X + P_Y, and Pf(S P S^T) = det S * Pf(P).
    As B_X^-1 A_X is nilpotent, det P_X = det B_X * x2^(dim X), so
    Pf(P) = sqrt(det B_X * det A_Y) / det S * x2^(dim X / 2) * sqrt(chi_Y).
    """
    require_valid(pair)
    n, spec = pair.dim, pair.spec
    if n == 0:
        return BinaryForm.one(spec)
    if n % 2 == 1:
        return BinaryForm.zero(spec)
    pk = spec.packing
    pivots, det, m = _front(pk, pair.a.packed, pair.b.packed)
    if len(pivots) < n:
        split = _split(pair, pivots, m, injective=True)
        if split is None:
            return BinaryForm.zero(spec)
        _, x, (det, m), s = split
        det_x = _block_front(pk, *x)[0]
        pivots, det_s = _rref(pk, s, n, reduced=False)
        if len(pivots) < n:
            raise AssertionError(f"the bases of X and Y span {len(pivots)} of {n} dimensions")
        det = spec.mul(spec.mul(det_x, det), spec.inv(spec.mul(det_s, det_s)))
    return homogenize(_charpoly_root(spec, m).scale(spec.sqrt(det)), n // 2)


def _charpoly_root(spec: FieldSpec, m: list[int]) -> Poly:
    """h = sqrt(det(t*I + M)) for the rows m of M = A^-1 B, A invertible,
    from the Krylov sequences x, xM, xM^2, ... of M (Keller-Gehrig, TCS 36
    (1985)): the polynomial of the first sequence when it closes at degree
    n/2, and otherwise the square root of the product of all the sequences'
    polynomials (``pfaffian_form`` and ``decompose`` have the proofs).

    The sequences are reduced against one echelon, whose rows carry their
    coordinates in the current sequence from column n on, as ``Mat.inv``
    carries [M | I].  A sequence starts at the unit vector of the first
    column without a pivot, which is not in the span, and closes when a
    vector reduces to zero: its coordinates are then its minimal polynomial
    relative to the span of the sequences before it.  Closed rows drop their
    coordinates, which the next sequence's would read as its own.

    Checks, each one Horner pass over the tables of M's rows: h(M) must kill
    the second sequence's start, and when h is a square root the first
    sequence's polynomial must kill e_0 too.  A wrong factor can leave the
    product a square whose root still kills all of M: the sequences t^2,
    t^2, t^2, t^2, t, t of a nilpotent M with M^2 = 0 give t^4 (t + 1) when
    the first constant is flipped.
    """
    pk, n = spec.packing, len(m)
    w, mask, inv = pk.w, pk.mask, pk.inv_table
    shift = n * w
    low = (1 << shift) - 1
    tables = [pk.multiples(r, n) for r in m]
    echelon: list[tuple] = []  # (pivot column, row scaled to 1 there, its multiples)
    start, x, chi = 0, 1 if n else 0, 1
    first, second, shortcut = Poly.one(spec), 0, not n
    while x:
        coord = 1 << shift
        while True:
            v = x | coord
            for p, _, t in echelon:
                if f := v >> (p * w) & mask:
                    v ^= t[f]
            if not v & low:
                break
            p = ((v & -v).bit_length() - 1) // w  # the first nonzero column
            if (f := v >> (p * w) & mask) != 1:
                v = pk.mul(inv[f], v)
            echelon.append((p, v, pk.multiples(v, n - len(echelon))))
            x = _times(pk, x, tables)
            coord <<= w
        if len(echelon) == start:
            raise AssertionError("a Krylov sequence started inside the span")
        free = set(range(n)).difference(p for p, _, _ in echelon)
        x = 1 << (min(free) * w) if free else 0
        mu = v >> shift
        if not start:
            first, second = Poly(mu, spec), x
            if shortcut := 2 * first.degree == n:
                break
        chi = pk.mul(chi, mu)
        echelon[start:] = [(p, r & low, pk.multiples(r & low, n)) for p, r, _ in echelon[start:]]
        start = len(echelon)
    if shortcut:
        h = first
    else:
        chi = Poly(chi, spec)
        if chi.degree != n:
            raise AssertionError(f"characteristic polynomial of degree {chi.degree} in dimension {n}")
        h = poly_sqrt(chi)
    for f, y in [(h, second)] if shortcut else [(h, second), (first, 1)]:
        v = 0
        for c in reversed(f.coeffs):
            v = _times(pk, v, tables) ^ c * y  # y is a unit vector
        if v:
            raise AssertionError("h(M) or the first sequence's polynomial does not kill a Krylov start")
    return h


# -- decomposition -----------------------------------------------------------------


def _wong_dims(
    pk: Packing, pivots: list[int], front: list[int], rows_b: Sequence[int], injective: bool = False
) -> tuple[list[int], list[int]] | None:
    """dim W_0, dim W_1, ... for W_0 = 0, W_(i+1) = {v : A v in B W_i}, until
    W_i repeats (the W_i increase, so then it stays), and a basis of the
    limit W* whose vectors carry their A- and B-images (slots n to 3n); with
    ``injective``, None as soon as B kills a vector of some W_i.

    ``front`` holds the rows [R | EB] of ``_front`` for a singular A, R in
    reduced echelon form with the r < n pivot columns ``pivots``.
    W_1 = ker A has one basis vector per free column f of R: e_f plus R's
    column f at the pivots.  G puts row i < r of EB at the i-th pivot column
    and row r + j at the j-th free column.  The free slots of G w are the
    rows of EB below the rank, the left kernel of A times B w, so they
    vanish iff B w is in im A; then R (G w) is the top of E B w (R is the
    identity on the pivot columns), so E A (G w) = E B w, and as E is
    invertible A (G w) = B w.  As the slots of G w are those of E B w,
    G w = 0 iff B w = 0.

    So W_(i+1) = W_i + {G w : w in W_i, free slots of G w zero} for i >= 1,
    as W_1 = ker A lies in W_i, and the walk keeps one echelon across the
    steps, staircase fashion (Van Dooren, Linear Algebra Appl. 27 (1979)):
    that of the G w of every W vector so far, pivoting on free slots first.
    Reduced against it, the G w of a new vector becomes G w' for some w' in
    W_i: 0 if B kills w' (w' != 0, as the W vectors are independent), a
    constraint if a free slot leads, and otherwise a vector of W_(i+1) with
    A (G w') = B w'; the rows of the echelon with no free slot span the
    G w' whose free slots vanish.  Each W vector is one int v | Av | Bv | Gv:
    a new one from G w' takes Av = B w' from the reduction and Bv and Gv
    from one product, and joins the next layer if it is independent of the
    echelon of the W vectors.  So the walk costs no elimination beyond the
    front's, and one row product per vector of W*."""
    n, w, mask, inv = len(front), pk.w, pk.mask, pk.inv_table
    shift = n * w
    low = (1 << shift) - 1
    free = sorted(set(range(n)).difference(pivots))
    g = [0] * n
    for c, row in zip(pivots + free, front):
        g[c] = row >> shift
    products = [pk.multiples(b << 2 * shift | c << 3 * shift, n) for b, c in zip(rows_b, _transpose(g, n, w))]
    constraint = sum(mask << (f * w) for f in free)
    kernel = [1 << (f * w) | sum((row >> (f * w) & mask) << (p * w) for p, row in zip(pivots, front)) for f in free]
    spanned = [(f * w, pk.multiples(v, n)) for f, v in zip(free, kernel)]  # the W echelon, on v
    images: list[tuple[int, list]] = []  # the echelon of the G v, free slots first
    layer = [v | _times(pk, v, products) for v in kernel]
    dims, basis = [0], []
    while layer:
        dims.append(dims[-1] + len(layer))
        basis += layer
        found = []
        for x in layer:
            for bit, t in images:
                if f := x >> bit & mask:
                    x ^= t[f]
            if not (u := x >> 3 * shift):
                if injective:
                    return None
                continue
            lead = u & constraint or u
            bit = ((lead & -lead).bit_length() - 1) // w * w
            if (f := u >> bit & mask) != 1:
                x = pk.mul(inv[f], x)
            images.append((bit + 3 * shift, pk.multiples(x, n)))
            if u & constraint:
                continue
            y = x >> 3 * shift | (x >> 2 * shift & low) << shift
            for bit, t in spanned:
                if f := y >> bit & mask:
                    y ^= t[f]
            if v := y & low:
                bit = ((v & -v).bit_length() - 1) // w * w
                if (f := v >> bit & mask) != 1:
                    y, v = pk.mul(inv[f], y), pk.mul(inv[f], v)
                spanned.append((bit, pk.multiples(y, n)))
                found.append(y | _times(pk, v, products))
        layer = found
    return dims, [x & (1 << 3 * shift) - 1 for x in basis]


def _grams(pk: Packing, basis: list[int], n: int) -> tuple[list[int], list[int]]:
    """The Gram matrices of A and B on a basis whose vectors carry their A-
    and B-images (slots n to 3n): the stacked images times the basis^T."""
    shift, d = n * pk.w, len(basis)
    low = (1 << shift) - 1
    tables = [pk.multiples(r, 2 * d) for r in _transpose([v & low for v in basis], n, pk.w)]
    g = [_times(pk, v >> s & low, tables) for s in (shift, 2 * shift) for v in basis]
    return g[:d], g[d:]


def _principal(pk: Packing, g: list[int], p: list[int]) -> list[int]:
    """The block on rows and columns p of a symmetric matrix (packed rows g)."""
    t = _transpose([g[i] for i in p], len(g), pk.w)
    return [t[i] for i in p]


def _split(pair: AlternatingPair, pivots: list[int], front: list[int], injective: bool = False):
    """The split of a pencil with A singular (``decompose`` has the proof),
    from the pivots and rows ``front`` of ``_front``: the Wong dimensions,
    the rows of B_X and of A_X, det A_Y with the rows of A_Y^-1 B_Y, and
    the rows of a basis of X and then one of Y; with ``injective``, None for
    a singular pencil.  The walk hands over a basis of W* with its A- and
    B-images."""
    pk, n = pair.spec.packing, pair.dim
    walk = _wong_dims(pk, pivots, front, pair.b.packed, injective)
    if walk is None:
        return None
    dims, top = walk
    shift, low = n * pk.w, (1 << n * pk.w) - 1
    wide = [1 << (j * pk.w) | a << shift | b << 2 * shift for j, (a, b) in enumerate(zip(pair.a.packed, pair.b.packed))]
    ga, gb = _grams(pk, top, n)
    px = _rref(pk, list(gb), len(top), reduced=False)[0]
    part = _kernel_images(pk, [v >> 2 * shift for v in top], n, wide)
    ya, yb = _grams(pk, part, n)
    py = _rref(pk, list(ya), len(part), reduced=False)[0]
    x = _principal(pk, gb, px), _principal(pk, ga, px)
    y = _block_front(pk, _principal(pk, ya, py), _principal(pk, yb, py))
    return dims, x, y, [top[i] & low for i in px] + [part[i] & low for i in py]


def _block_front(pk: Packing, rows_a: list[int], rows_b: list[int]) -> tuple[int, list[int]]:
    """det A and the rows of A^-1 B for a principal block A on the pivots of
    a Gram matrix, which is nonsingular (``decompose`` has the proof)."""
    pivots, det, m = _front(pk, rows_a, rows_b)
    if len(pivots) < len(rows_a):
        raise AssertionError("a principal block on the pivots of a Gram matrix is singular")
    return det, m


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


def _divisor_blocks(pk: Packing, m: list[int], f: Poly, point: BinaryForm, top: int) -> dict:
    """One block (point, e) per pair of equal elementary divisors f^e of M
    (packed rows m), from the kernels of powers of f(M), which reach ``top``."""
    dims = _nullities(pk, m, len(m), f, top)
    if dims[-1] != top or any(k % f.degree for k in dims):
        raise AssertionError(f"kernels of powers of {format_form(point)} reach {dims}, not {top}")
    return _paired(point, _chains([0] + [k // f.degree for k in dims], {}))


def _paired(point: BinaryForm, chains: Mapping[int, int]) -> dict:
    """One block (point, e) per two chains of length e (divisors f^e)."""
    for e, c in chains.items():
        if c % 2:
            raise AssertionError(f"elementary divisor ({format_form(point)}, {e}) has odd multiplicity {c}")
    return {(point, e): c // 2 for e, c in chains.items()}


def _krylov_blocks(spec: FieldSpec, m: list[int]) -> dict[tuple[ProjPoint, int], int]:
    """The blocks of a pencil with A invertible, from the rows of M = A^-1 B."""
    h = _charpoly_root(spec, m)
    blocks: dict[tuple[ProjPoint, int], int] = {}
    for f, e in factor(h) if h.degree else ():
        p = point_from_poly(f)
        blocks.update({(p, 1): 1} if e == 1 else _divisor_blocks(spec.packing, m, f, p, 2 * e * f.degree))
    return blocks


def decompose(pair: AlternatingPair) -> ClassFunction:
    """Class function of the pair, read off the Kronecker data of t*A + B:
    each minimal index i is one entry (eps, i + 1), and each pair of equal
    elementary divisors (g, e) is one entry (g, e).

    One elimination of [A | B] (``_front``) gives A's pivots.  If A is invertible,
    t*A + B = A (t*I + M) with M = A^-1 B is strictly equivalent to t*I + M
    (multiply by A^-1 on the left): the pencil is regular, x2 carries
    nothing, and the divisors are the elementary divisors f^e of M.  M is
    similar to a sum of companion matrices C(f^e), the modules
    GF(q)[t]/(f^e); there f(M)^j has the kernel (f^(e - min(j, e))) of
    dimension deg f * min(j, e), and f(M) is invertible on C(g^e), g != f.
    So of the divisors f^e, (K_j - K_(j-1)) / deg f have e >= j, for
    K_j = dim ker f(M)^j, and K_j stops at deg f times the f-exponent of
    chi = det(t*I + M), the product of all divisors.  They pair up, so
    chi = h^2, and the f-exponent of h is the sum of e over the pairs at f:
    when it is 1, f has one pair (f, 1), the entry (f, 1, 1), and no kernel
    is computed.  h is factored once.  The pairing makes M similar to N + N
    with h = det(t*I + N), and the minimal polynomial of the first Krylov
    sequence divides that of N, which divides h: at degree n/2 it is h.
    ``_charpoly_root`` computes h either way, with the checks that
    ``pfaffian_form`` names.

    If A is singular, the Wong sequence W_0 = 0, W_(i+1) = {v : A v in B W_i}
    (Berger, Ilchmann and Trenn, SIAM J. Matrix Anal. Appl. 33 (2012)) splits
    the pencil.  It adds over direct sums, and congruence by S moves it to
    S^-T W_i.  In Kronecker form, L_eps (A-part [I | 0], B-part [0 | I]) has
    W_1 spanned by the last unit vector, each step adding the one before,
    which gives min(i, eps + 1); L_eps^T and finite blocks have an injective
    A-part and give 0; a nilpotent block t*N + I of size e, one divisor
    (x2, e), has W_i = ker N^i, which gives min(i, e).  An odd block holds
    one L_eps and one L_eps^T, so dim W_i is the sum of min(i, eps + 1) over
    the minimal indices and of min(i, e) over the divisors (x2, e).  In the
    canonical orthogonal sum the limit is W* = U + X: U the L_eps columns of
    the odd blocks, X the sum of the x2 blocks.  Each form pairs U only with
    the L_eps^T rows, through a matrix of rank eps, and B is nondegenerate
    on X.  So U is the radical of B on W*, and W*^perp_B = U + Y, Y the sum
    of the finite blocks, on which A is nondegenerate.  The pivot columns of
    an echelon form of a symmetric matrix span its columns, so by symmetry
    its rows there are a basis of its rows: they index a nonsingular
    principal block.  So the pivots of B's Gram matrix on a basis of W*, and
    of A's on one of W*^perp_B, pick complements X' and Y' of U, and as
    neither form pairs U with W* or Y, both restrict to X' and Y' as to X
    and Y.  N = B_X^-1 A_X is nilpotent, and the kernels of its powers give
    the x2 divisors as those of f(M) do for (A_Y, B_Y), which takes the route
    above.  Less two chains of length e per entry (x2, e), the Wong
    dimensions count the chains of length eps + 1 of the odd blocks.  When
    the pivots take all of W*, U = 0: there is no odd block, the Wong
    dimensions count the x2 chains alone, and no kernel of N is taken.
    """
    require_valid(pair)
    n, spec = pair.dim, pair.spec
    pk = spec.packing
    pivots, _, m = _front(pk, pair.a.packed, pair.b.packed)
    if len(pivots) == n:
        blocks = _krylov_blocks(spec, m)
    else:
        dims, x, (_, m), _ = _split(pair, pivots, m)
        if len(x[0]) == dims[-1]:  # U = 0: the walk's chains are the x2 chains
            x2 = _paired(BinaryForm.x2(spec), _chains(dims, {}))
        else:
            nil = _block_front(pk, *x)[1]
            x2 = _divisor_blocks(pk, nil, Poly.t(spec), BinaryForm.x2(spec), len(nil))
        eps = _chains(dims, {e: 2 * c for (_, e), c in x2.items()})
        blocks = {**_krylov_blocks(spec, m), **x2, **{(EPS, s): c for s, c in eps.items()}}
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
