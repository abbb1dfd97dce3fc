"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from itertools import product
from operator import xor

from altpairs.blocks import AlternatingPair, BlockError, BlockId
from altpairs.chernikov import GroupPresentation, PresentationError, WitnessError, iso_from_witness
from altpairs.field import FieldError, FieldSpec, _gf2_poly_mul
from altpairs.linalg import Mat, _kernel_images, congruence, smith_form
from altpairs.pencil import ClassFunction, assemble, decompose, require_valid
from altpairs.polyring import (
    EPS,
    BinaryForm,
    Poly,
    PolyError,
    ProjPoint,
    _EpsType,
    dehomogenize,
    factor,
    homogenize,
    is_irreducible,
    lagrange_interpolate,
    monic_irreducibles,
    point_from_poly,
    point_sort_key,
)
from altpairs.weakeq import GL2Element, act_on_class, gl2_enumerate, relabel_class, transform_weak

GF2 = FieldSpec.gf2()
GF4 = FieldSpec.gf(2)
GF16 = FieldSpec.gf(4)
GF512 = FieldSpec.gf(9)  # above the table limit: multiplication rows are computed


# -- small constructors that only the tests use -------------------------------


def enumerate_bits(spec: FieldSpec) -> range:
    """All 2^k elements by increasing bitmask: 0, 1, t, t + 1, ..."""
    return range(spec.order)


def monomial(spec: FieldSpec, deg: int) -> Poly:
    """The polynomial t^deg."""
    return Poly(1 << (deg * spec.packing.w), spec)


def gl2_swap(spec: FieldSpec) -> GL2Element:
    """The GL(2) element that exchanges the two matrices of a pair."""
    return GL2Element(0, 1, 1, 0, spec)


def mat_apply(m: Mat, vec: tuple[int, ...]) -> tuple[int, ...]:
    """Matrix times column vector."""
    assert len(vec) == m.cols
    return tuple(reduce(xor, map(m.spec.mul, row, vec), 0) for row in m.rows)


# -- random generators ---------------------------------------------------------


def random_matrix(spec: FieldSpec, rng: random.Random, nrows: int, ncols: int) -> Mat:
    return Mat.from_rows(
        spec, [[rng.randrange(spec.order) for _ in range(ncols)] for _ in range(nrows)], ncols
    )


def random_invertible(spec: FieldSpec, rng: random.Random, n: int) -> Mat:
    while True:
        m = random_matrix(spec, rng, n, n)
        if m.is_invertible():
            return m


def transform_congruence(pair: AlternatingPair, s: Mat) -> AlternatingPair:
    """Simultaneous basis change (A, B) -> (S A S^T, S B S^T)."""
    return AlternatingPair(congruence(s, pair.a), congruence(s, pair.b))


def random_alternating(spec: FieldSpec, rng: random.Random, n: int) -> Mat:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randrange(spec.order)
            rows[i][j] = rows[j][i] = v
    return Mat.from_rows(spec, rows, n)


def random_alternating_pair(spec: FieldSpec, rng: random.Random, n: int) -> AlternatingPair:
    return AlternatingPair(
        random_alternating(spec, rng, n), random_alternating(spec, rng, n)
    )


def small_irreducibles(spec: FieldSpec, max_deg: int = 3):
    out = []
    for d in range(1, max_deg + 1):
        out.extend(monic_irreducibles(spec, d))
    return out


def random_class_function(
    spec: FieldSpec, rng: random.Random, max_dim: int, max_eps: int = 2, max_deg: int = 3
) -> ClassFunction:
    """Random blocks until the dimension budget is spent; finite points have
    degree at most max_deg."""
    irr = small_irreducibles(spec, max_deg)
    acc: dict = {}
    dim = 0
    while True:
        kind = rng.randrange(4)
        if kind == 0:
            eps = rng.randrange(0, max_eps + 1)
            key, bd = (EPS, eps + 1), 2 * eps + 1
        elif kind == 1:
            n = rng.randrange(1, 4)
            key, bd = (BinaryForm.x2(spec), n), 2 * n
        else:
            f = irr[rng.randrange(len(irr))]
            n = rng.randrange(1, 3)
            key, bd = (point_from_poly(f), n), 2 * n * f.degree
        if dim + bd > max_dim:
            break
        acc[key] = acc.get(key, 0) + 1
        dim += bd
    return ClassFunction.from_dict(spec, acc)


def random_weak_pairs_with_witness(rng: random.Random, count: int, max_dim: int = 8) -> list:
    """(pair, moved, S, Q) with moved the weak transform of a random
    GF(2) pair of dimension at most max_dim."""
    qs = list(gl2_enumerate(GF2))
    out = []
    while len(out) < count:
        rho = random_class_function(GF2, rng, max_dim)
        pair = assemble(rho)
        if pair.dim == 0:
            continue
        s = random_invertible(GF2, rng, pair.dim)
        q = qs[rng.randrange(len(qs))]
        moved = transform_weak(pair, s, q)
        out.append((pair, moved, s, q))
    return out


# -- exhaustive GL(n, 2) and packed-congruence oracles ----------------------------


@lru_cache(maxsize=None)
def gl_n_2(n: int) -> tuple[Mat, ...]:
    """Every invertible n x n matrix over GF(2), by brute force: a bitmask
    rank filters the candidates, and only the invertible ones become Mats."""
    out = []
    full = (1 << n) - 1
    for bits in range(1 << (n * n)):
        if _gf2_rank([(bits >> (n * i)) & full for i in range(n)]) == n:
            rows = [[(bits >> (n * i + j)) & 1 for j in range(n)] for i in range(n)]
            out.append(Mat.from_rows(GF2, rows, n))
    return tuple(out)


def _gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of bitmask rows, by xor elimination on the lowest bit."""
    rank = 0
    rows = list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def pack_alternating(m: Mat) -> int:
    """Upper-triangle bits of an alternating GF(2) matrix as one int."""
    n = m.nrows
    acc = 0
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            if m.rows[i][j]:
                acc |= 1 << pos
            pos += 1
    return acc


def unpack_alternating(bits: int, n: int) -> Mat:
    rows = [[0] * n for _ in range(n)]
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            v = (bits >> pos) & 1
            rows[i][j] = rows[j][i] = v
            pos += 1
    return Mat.from_rows(GF2, rows, n)


@lru_cache(maxsize=None)
def congruence_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """For each S in GL(n,2), the images of the packed basis alternating
    matrices under A -> S A S^T (congruence is linear in A)."""
    nbits = n * (n - 1) // 2
    tables = []
    for s in gl_n_2(n):
        st = s.transpose()
        images = []
        for b in range(nbits):
            img = s @ unpack_alternating(1 << b, n) @ st
            images.append(pack_alternating(img))
        tables.append(tuple(images))
    return tuple(tables)


def apply_packed(table: tuple[int, ...], packed: int) -> int:
    acc = 0
    b = 0
    while packed:
        if packed & 1:
            acc ^= table[b]
        packed >>= 1
        b += 1
    return acc


def brute_congruent(pa: int, pb: int, ra: int, rb: int, n: int) -> bool:
    """Exhaustive congruence search over GL(n,2) on packed pairs."""
    for table in congruence_tables(n):
        if apply_packed(table, pa) == ra and apply_packed(table, pb) == rb:
            return True
    return False


GL2_COMBOS = (
    # (q11, q12, q21, q22) over GF(2), all six invertible matrices
    (1, 0, 0, 1),
    (0, 1, 1, 0),
    (1, 1, 0, 1),
    (1, 0, 1, 1),
    (0, 1, 1, 1),
    (1, 1, 1, 0),
)


def brute_weakly_equivalent(pa: int, pb: int, ra: int, rb: int, n: int) -> bool:
    """Exhaustive search over GL(n,2) x GL(2,2) on packed pairs."""
    target = (ra, rb)
    for table in congruence_tables(n):
        ca = apply_packed(table, pa)
        cb = apply_packed(table, pb)
        for q11, q12, q21, q22 in GL2_COMBOS:
            na = (ca if q11 else 0) ^ (cb if q21 else 0)
            nb = (ca if q12 else 0) ^ (cb if q22 else 0)
            if (na, nb) == target:
                return True
    return False


# -- reference GL(2) scans ----------------------------------------------------------


def gl2_inv(q: GL2Element) -> GL2Element:
    """The inverse of Q through its determinant."""
    s = q.spec
    dinv = s.inv(q.det)
    return GL2Element(
        s.mul(dinv, q.q22), s.mul(dinv, q.q12), s.mul(dinv, q.q21), s.mul(dinv, q.q11), s
    )


def pgl2_uncapped(spec: FieldSpec):
    """pgl2_enumerate without its field cap: the identity, then the
    invertible matrices whose first nonzero entry is 1, lexicographically."""
    yield GL2Element.identity(spec)
    q = spec.order
    for c in range(1, q):
        for d in range(q):
            yield GL2Element(0, 1, c, d, spec)
    for b in range(q):
        for c in range(q):
            for d in range(q):
                if (b, c, d) != (0, 0, 1) and d ^ spec.mul(b, c):
                    yield GL2Element(1, b, c, d, spec)


def canonical_rep_scan(rho: ClassFunction) -> tuple[ClassFunction, GL2Element]:
    """Reference canonical form: the first minimiser over all of PGL(2, q),
    which is the first minimiser in gl2_enumerate order."""
    best = None
    for q in pgl2_uncapped(rho.spec):
        moved = act_on_class(q, rho)
        key = moved.sort_key()
        if best is None or key < best[0]:
            best = (key, moved, q)
    return best[1], best[2]


def weakly_equivalent_scan(p: AlternatingPair, r: AlternatingPair):
    """Reference weak equivalence: the first Q over all of PGL(2, q) that
    moves the class of p onto that of r."""
    if p.dim != r.dim:
        return False, None
    rho_p, rho_r = decompose(p), decompose(r)
    for q in pgl2_uncapped(p.spec):
        if relabel_class(rho_p, q) == rho_r:
            return True, q
    return False, None


# -- reference GL(2) point action -------------------------------------------------


def moebius_act_reference(q, coeffs: tuple, spec: FieldSpec) -> tuple:
    """The substitution action on the coefficient tuple of a point of degree
    d = len(coeffs) - 1, on tuples and ``mul_table`` rows: x1 -> y1,
    x2 -> y2 with y1 = q11*x1 + q21*x2 and y2 = q12*x1 + q22*x2, summed as
    sum_i c_i y1^i y2^(d-i) by ``_poly_submul``, padded to d + 1
    coefficients and scaled to leading coefficient 1; x2, (1, 0), when x2
    divides the image."""
    (q11, q12), (q21, q22) = q
    rows = spec.mul_table
    if rows[q11][q22] ^ rows[q12][q21] == 0:
        raise PolyError("singular substitution matrix")
    d = len(coeffs) - 1

    def power(y: tuple, n: int) -> tuple:
        acc = (1,)
        for _ in range(n):
            acc = _poly_submul(rows, (), acc, y)
        return acc

    acc = ()
    for i, c in enumerate(coeffs):
        if c:
            term = _poly_submul(rows, (), power((q21, q11), i), power((q22, q12), d - i))
            acc = _poly_submul(rows, acc, (c,), term)
    acc += (0,) * (d + 1 - len(acc))
    if not acc[-1]:
        if d != 1:
            raise PolyError("form divisible by x2 is not an irreducible point")
        return (1, 0)
    row = rows[spec.inv(acc[-1])]
    return tuple(row[c] for c in acc)


def random_irreducible(spec: FieldSpec, rng: random.Random, degree: int) -> Poly:
    """A monic irreducible of the given degree, by rejection sampling."""
    while True:
        f = Poly.make(spec, [rng.randrange(spec.order) for _ in range(degree)] + [1])
        if is_irreducible(f):
            return f


def unital_normalize(form: BinaryForm) -> tuple[BinaryForm, int]:
    """Scale a nonzero form to unital shape; returns (normal form, scalar)."""
    if form.is_zero():
        raise PolyError("cannot normalize the zero form")
    lead = form.coeffs[-1]
    if lead != 0:
        if lead == 1:
            return form, 1
        return form.scale(form.spec.inv(lead)), lead
    # x2 divides the form; for irreducible points this is the x2 point itself
    f, mult = dehomogenize(form)
    if f.degree != 0 or mult != 1:
        raise PolyError("form divisible by x2 is not an irreducible point")
    return BinaryForm.x2(form.spec), f.coeff(0)


# -- text forms of points and class functions ----------------------------------------

_FORM_TERM_RE = re.compile(
    r"^(?:\{(?P<coef>[0-9a-fA-F]+)\}\*?)?"
    r"(?:x1(?:\^(?P<e1>\d+))?)?\*?(?:x2(?:\^(?P<e2>\d+))?)?$"
)


def parse_form(spec: FieldSpec, text: str) -> BinaryForm:
    """The inverse of ``polyring.format_form``."""
    s = text.replace(" ", "")
    if s in ("", "0"):
        return BinaryForm.zero(spec)
    seen: dict[int, int] = {}
    degree = None
    for term in s.split("+"):
        if term == "1":
            if degree is None:
                degree = 0
            elif degree != 0:
                raise PolyError(f"form {text!r} is not homogeneous")
            seen[0] = seen.get(0, 0) ^ 1
            continue
        m = _FORM_TERM_RE.match(term)
        if not m or term == "":
            raise PolyError(f"bad form term {term!r} in {text!r}")
        has_x1 = "x1" in term
        has_x2 = "x2" in term
        if m.group("coef") is None and not has_x1 and not has_x2:
            raise PolyError(f"bad form term {term!r} in {text!r}")
        c = int(m.group("coef"), 16) if m.group("coef") is not None else 1
        spec.check(c)
        e1 = (int(m.group("e1")) if m.group("e1") else 1) if has_x1 else 0
        e2 = (int(m.group("e2")) if m.group("e2") else 1) if has_x2 else 0
        total = e1 + e2
        if degree is None:
            degree = total
        elif degree != total:
            raise PolyError(f"form {text!r} is not homogeneous")
        seen[e1] = seen.get(e1, 0) ^ c
    out = [0] * (degree + 1)
    for e, c in seen.items():
        out[e] = c
    return BinaryForm.make(spec, out)


def parse_point(spec: FieldSpec, text: str):
    """The inverse of ``pencil.point_text``."""
    if text.strip() == "eps":
        return EPS
    return parse_form(spec, text)


def class_function_from_json(spec: FieldSpec, data) -> ClassFunction:
    """The inverse of ``ClassFunction.to_json_dict``."""
    acc: dict = {}
    for blk in data["blocks"]:
        key = (parse_point(spec, blk["g"]), int(blk["n"]))
        acc[key] = acc.get(key, 0) + int(blk["mult"])
    return ClassFunction.from_dict(spec, acc)


# -- subfield embeddings and truncated series -------------------------------------


@dataclass(frozen=True)
class Embedding:
    """Ring embedding GF(2^k) -> GF(2^(k*j)) determined by a root of the
    source modulus in the target field."""

    src: FieldSpec
    dst: FieldSpec
    root_powers: tuple[int, ...] = field(compare=False)
    _inverse: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        inverse = {self.map(b): b for b in enumerate_bits(self.src)}
        object.__setattr__(self, "_inverse", inverse)

    def map(self, bits: int) -> int:
        acc = 0
        i = 0
        while bits:
            if bits & 1:
                acc ^= self.root_powers[i]
            bits >>= 1
            i += 1
        return acc

    def unmap(self, bits: int) -> int:
        try:
            return self._inverse[bits]
        except KeyError:
            raise FieldError(
                f"0x{bits:x} is not in the image of {self.src} inside {self.dst}"
            ) from None


@lru_cache(maxsize=None)
def embed(src: FieldSpec, dst: FieldSpec) -> Embedding:
    """Find an embedding of src into dst (requires src.k | dst.k)."""
    if dst.k % src.k != 0:
        raise FieldError(f"{src} does not embed into {dst}")
    if src == dst or src.k == 1:
        powers = tuple(1 << i for i in range(src.k))
    else:
        root = None
        for x in enumerate_bits(dst):
            # evaluate the source modulus (a GF(2) polynomial) at x in dst
            acc = 0
            xp = 1
            m = src.modulus
            while m:
                if m & 1:
                    acc ^= xp
                xp = dst.mul(xp, x)
                m >>= 1
            if acc == 0 and x != 0:
                root = x
                break
        if root is None:
            raise AssertionError("no root of subfield modulus found")  # unreachable
        acc_powers = [1]
        for _ in range(src.k - 1):
            acc_powers.append(dst.mul(acc_powers[-1], root))
        powers = tuple(acc_powers)
    return Embedding(src, dst, powers)


def reverse_star(g: Poly) -> Poly:
    """Coefficient reversal t^d * g(1/t); requires g(0) != 0."""
    if g.is_zero():
        raise PolyError("reverse of the zero polynomial")
    if g.coeff(0) == 0:
        raise PolyError("reverse requires a nonzero constant term")
    return Poly.make(g.spec, g.coeffs[::-1])


def series_inverse_trunc(g: Poly, m: int) -> Poly:
    """The unique h of degree < m with g*h = 1 mod t^m (needs g(0) = 1).

    Coefficients follow the convolution recurrence
    h_j = g_1 h_{j-1} + g_2 h_{j-2} + ... + g_j h_0 with h_0 = 1.
    """
    if m < 1:
        raise PolyError("truncation order must be positive")
    if g.coeff(0) != 1:
        raise PolyError("series inverse requires constant term 1")
    spec = g.spec
    mul = spec.mul
    h = [0] * m
    h[0] = 1
    for j in range(1, m):
        acc = 0
        for i in range(1, j + 1):
            gi = g.coeff(i)
            if gi and h[j - i]:
                acc ^= mul(gi, h[j - i])
        h[j] = acc
    return Poly.make(spec, h)


# -- reference Pfaffian by evaluation and interpolation -----------------------------


def pfaffian_interpolation_reference(pair: AlternatingPair) -> BinaryForm:
    """The square root of det(x1*A + x2*B) by evaluation and interpolation,
    independent of Smith elimination: embed the pair into an extension with
    at least dim + 1 elements, take det(x*A + B) at dim + 1 points, take the
    characteristic-2 square root of each value, interpolate, check that the
    result squares to the interpolated determinant, homogenize."""
    require_valid(pair)
    n = pair.dim
    spec = pair.spec
    if n == 0:
        return BinaryForm.one(spec)
    if n % 2 == 1:
        return BinaryForm.zero(spec)
    k = spec.k
    while (1 << k) < n + 1:
        k += spec.k
    ext = spec if k == spec.k else FieldSpec.gf(k)
    emb = embed(spec, ext)
    a = Mat.from_rows(ext, [[emb.map(v) for v in row] for row in pair.a.rows], n)
    b = Mat.from_rows(ext, [[emb.map(v) for v in row] for row in pair.b.rows], n)
    points = list(range(n + 1))
    values = [(a.scale(x) + b).det() for x in points]
    if all(v == 0 for v in values):
        return BinaryForm.zero(spec)
    half = lagrange_interpolate(ext, points, [ext.sqrt(v) for v in values])
    delta = Poly.make(spec, [emb.unmap(c) for c in half.coeffs])
    det = lagrange_interpolate(ext, points, values)
    assert delta * delta == Poly.make(spec, [emb.unmap(c) for c in det.coeffs])
    assert delta.degree <= n // 2
    return homogenize(delta, n // 2)


# -- reference Kronecker invariants by two Smith passes and staircase nullities ----


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


@dataclass(frozen=True)
class KroneckerInvariants:
    """Minimal indices (one per odd block) and homogeneous elementary
    divisors with their raw (even) multiplicities."""

    minimal_indices: tuple[int, ...]
    elementary_divisors: tuple[tuple[tuple[ProjPoint, int], int], ...]


def kronecker_invariants(pair: AlternatingPair) -> KroneckerInvariants:
    """The Kronecker data that ``decompose`` reads off t*A + B, in the shape
    of ``kronecker_reference``: each eps block (eps, n) is the minimal index
    n - 1, and each other block (g, n) two elementary divisors (g, n)."""
    rho = decompose(pair)
    minimal = tuple(n - 1 for p, n, m in rho.entries if p is EPS for _ in range(m))
    divisors = tuple(((p, n), 2 * m) for p, n, m in rho.entries if p is not EPS)
    return KroneckerInvariants(minimal, divisors)


def kronecker_reference(pair: AlternatingPair) -> KroneckerInvariants:
    """Kronecker invariants independent of Wong sequences: every invariant
    factor of t*A + B factored on its own for the finite divisors, a second
    Smith pass of t*B + A for the powers of t that give the x2 divisors, and
    minimal indices from the nullities of (k + 1)n x kn staircase matrices."""
    require_valid(pair)
    spec = pair.spec
    finite_factors = smith_form(pair.a, pair.b)
    divisors: dict = {}
    for inv in finite_factors:
        for f, e in factor(inv):
            key = (point_from_poly(f), e)
            divisors[key] = divisors.get(key, 0) + 1
    infinite_factors = smith_form(pair.b, pair.a)
    t = Poly.t(spec)
    for inv in infinite_factors:
        e = 0
        while inv.degree > 0 and inv.coeff(0) == 0:
            inv = inv // t
            e += 1
        if e:
            key = (BinaryForm.x2(spec), e)
            divisors[key] = divisors.get(key, 0) + 1
    count = pair.dim - len(finite_factors)
    minimal = _minimal_indices(pair, count)
    ordered = sorted(divisors.items(), key=lambda kv: (point_sort_key(kv[0][0]), kv[0][1]))
    return KroneckerInvariants(minimal, tuple(ordered))


# -- test-only views of library objects --------------------------------------------


def submatrix(m: Mat, row_range: range, col_range: range) -> Mat:
    return Mat(
        tuple(tuple(m.rows[i][j] for j in col_range) for i in row_range), len(col_range), m.spec
    )


def nullspace(m: Mat) -> list[tuple[int, ...]]:
    """Reduced-echelon canonical basis of the right kernel of m."""
    pk, work, cols = m._packed()
    units = [1 << (j * pk.w) for j in range(cols)]
    return [pk.unpack(v, cols) for v in _kernel_images(pk, work, cols, units)]


def presentation_matrices(p: GroupPresentation) -> list[Mat]:
    """The m alternating matrices over GF(2) carrying the commutator data."""
    n = p.num_h
    rows = [[[0] * n for _ in range(n)] for _ in range(p.m)]
    for (i, j), vec in p.commutators:
        for k, bit in enumerate(vec):
            if bit:
                rows[k][i][j] = rows[k][j][i] = 1
    return [Mat.from_rows(GF2, r, n) for r in rows]


def poly_value(f: Poly, x: int) -> int:
    """f(x), by Horner's rule."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = f.spec.mul(acc, x) ^ c
    return acc


def form_value(g: BinaryForm, a: int, b: int) -> int:
    """g(a, b) = sum of c_i a^i b^(d - i) for the binary form g of degree d."""
    spec = g.spec
    acc = 0
    for i, c in enumerate(g.coeffs):
        acc ^= spec.mul(c, spec.mul(spec.pow(a, i), spec.pow(b, g.degree - i)))
    return acc


def is_unital(g: BinaryForm) -> bool:
    """Whether a binary form is x2 or has leading x1 coefficient 1."""
    return not g.is_zero() and (g.coeffs[-1] == 1 or g.coeffs == (1, 0))


def pfaffian_of_class(rho: ClassFunction) -> BinaryForm:
    """Product of g^(n * mult) over the non-eps entries."""
    acc = BinaryForm.one(rho.spec)
    for point, n, mult in rho.entries:
        if not isinstance(point, _EpsType):
            acc = acc * point.power(n * mult)
    return acc


def elements(g):
    """Every element (x, a) of a finite model, by exponent bitmask, then
    bottom vector."""
    for x in range(1 << g.num_h):
        for a in product(range(1 << g.e), repeat=g.m):
            yield (x, a)


# -- GF(2)[t] on int bitmasks, the oracle for the field tables and moduli --------


def _gf2_poly_divmod(a: int, b: int) -> tuple[int, int]:
    """(a // b, a % b) for b != 0."""
    db = b.bit_length()
    q = 0
    shift = a.bit_length() - db
    while shift >= 0:
        q |= 1 << shift
        a ^= b << shift
        shift = a.bit_length() - db
    return q, a


def _gf2_poly_mulmod(a: int, b: int, modulus: int) -> int:
    """Product of bitmask polynomials, reduced mod ``modulus``."""
    return _gf2_poly_divmod(_gf2_poly_mul(a, b), modulus)[1]


def _gf2_poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_poly_divmod(a, b)[1]
    return a


def _gf2_poly_powmod(a: int, n: int, m: int) -> int:
    r = 1
    a = _gf2_poly_divmod(a, m)[1]
    while n:
        if n & 1:
            r = _gf2_poly_mulmod(r, a, m)
        a = _gf2_poly_mulmod(a, a, m)
        n >>= 1
    return r


def is_irreducible_gf2(p: int) -> bool:
    """Irreducibility of a bitmask polynomial over GF(2) (Rabin's test)."""
    d = p.bit_length() - 1
    if d < 1:
        return False
    if d == 1:
        return True
    # x^(2^d) == x mod p, and x^(2^(d/q)) - x coprime to p for prime q | d
    x = 0b10
    x_mod_p = _gf2_poly_divmod(x, p)[1]
    if _gf2_poly_powmod(x, 1 << d, p) != x_mod_p:
        return False
    q = 2
    dd = d
    while q * q <= dd:
        if dd % q == 0:
            t = _gf2_poly_powmod(x, 1 << (d // q), p) ^ x_mod_p
            if _gf2_poly_gcd(p, t) != 1:
                return False
            while dd % q == 0:
                dd //= q
        q += 1
    if dd > 1:
        t = _gf2_poly_powmod(x, 1 << (d // dd), p) ^ x_mod_p
        if _gf2_poly_gcd(p, t) != 1:
            return False
    return True


# -- reference Smith elimination and row reduction, one entry at a time -----------


def _gf2_poly_submul(a: int, q: int, b: int) -> int:
    """a + q*b on GF(2)[t] bitmasks."""
    return a ^ _gf2_poly_mul(q, b)


def _poly_divmod(rows, inv, a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """(a // b, a % b) on coefficient tuples, b nonzero; rows[c][x] = c*x and
    inv[c] is the inverse of c."""
    db = len(b) - 1
    lead_row = rows[inv[b[-1]]]
    if db == 0:
        return tuple(lead_row[c] for c in a), ()
    rem = list(a)
    quot = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            f = lead_row[c]
            base = i - db
            quot[base] = f
            row = rows[f]
            for j, bc in enumerate(b):
                if bc:
                    rem[base + j] ^= row[bc]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(quot), tuple(rem)


def _poly_submul(rows, a: tuple, q: tuple, b: tuple) -> tuple:
    """a + q*b on coefficient tuples, trimmed; rows[c][x] = c*x."""
    if not q or not b:
        return a
    out = list(a)
    short = len(q) + len(b) - 1 - len(out)
    if short > 0:
        out.extend([0] * short)
    for i, qi in enumerate(q):
        if qi:
            row = rows[qi]
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] ^= row[bj]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _smith_raw(m: list[list], shape: tuple[int, int], size, divmod_, submul, one) -> list:
    """Diagonalize m in place by unimodular row and column operations and
    return the nonzero diagonal.

    Entries are raw polynomials whose zero is falsy; ``size(p)`` is
    deg p + 1, ``divmod_`` and ``submul`` (a + q*b) are the kernel
    operations and ``one`` is the unit polynomial.
    """
    nr, nc = shape
    invariants = []
    for k in range(min(nr, nc)):
        while True:
            best = None
            best_size = None
            for i in range(k, nr):
                row = m[i]
                for j in range(k, nc):
                    p = row[j]
                    if p:
                        d = size(p)
                        if best_size is None or d < best_size:
                            best = (i, j)
                            best_size = d
                            if d == 1:
                                break
                if best_size == 1:
                    break
            if best is None:
                return invariants
            bi, bj = best
            if bi != k:
                m[k], m[bi] = m[bi], m[k]
            if bj != k:
                for row in m:
                    row[k], row[bj] = row[bj], row[k]
            pivot = m[k][k]
            clean = True
            for i in range(k + 1, nr):
                if m[i][k]:
                    q, _ = divmod_(m[i][k], pivot)
                    if q:
                        mk = m[k]
                        m[i] = [submul(a, q, b) for a, b in zip(m[i], mk)]
                    if m[i][k]:
                        clean = False
            for j in range(k + 1, nc):
                if m[k][j]:
                    q, _ = divmod_(m[k][j], pivot)
                    if q:
                        for i in range(k, nr):
                            m[i][j] = submul(m[i][j], q, m[i][k])
                    if m[k][j]:
                        clean = False
            if not clean:
                continue
            if size(pivot) == 1:
                break  # a unit divides everything
            offender = None
            for i in range(k + 1, nr):
                row = m[i]
                for j in range(k + 1, nc):
                    if row[j] and divmod_(row[j], pivot)[1]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            off = m[offender]
            m[k] = [submul(a, one, b) for a, b in zip(m[k], off)]
        invariants.append(m[k][k])
    return invariants


def smith_reference(a: Mat, b: Mat) -> list[Poly]:
    """The raw Smith diagonal of t*a + b by elimination one entry at a time:
    GF(2)[t] bitmasks over GF(2), coefficient tuples and ``_poly_divmod``
    otherwise.  Independent of the packed rows of
    ``linalg._smith_diagonal``; for a square pencil of full rank the
    leading coefficients of either diagonal multiply out to its determinant."""
    spec = a.spec
    if spec.k == 1:
        raw = [[y | x << 1 for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]
        diagonal = _smith_raw(raw, a.shape, int.bit_length, _gf2_poly_divmod, _gf2_poly_submul, 1)
        return [Poly(v, spec) for v in diagonal]  # at k = 1 Poly packs the bitmask
    raw = [
        [(y, x) if x else (y,) if y else () for x, y in zip(ra, rb)]
        for ra, rb in zip(a.rows, b.rows)
    ]
    rows = spec.mul_table
    diagonal = _smith_raw(
        raw,
        a.shape,
        len,
        partial(_poly_divmod, rows, spec.inv_table),
        partial(_poly_submul, rows),
        (1,),
    )
    return [Poly.make(spec, v) for v in diagonal]


def rref_reference(m: Mat) -> tuple[list[list[int]], int, list[int]]:
    """Reduced row echelon form by Gaussian elimination on lists of entries,
    reading rows of ``FieldSpec.mul_table``; returns (rows, rank, pivot
    columns)."""
    spec = m.spec
    nr, nc = m.shape
    rows, inv = spec.mul_table, spec.inv
    work = [list(r) for r in m.rows]
    pivots = []
    row = 0
    for col in range(nc):
        piv = next((r for r in range(row, nr) if work[r][col]), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        pinv = inv(work[row][col])
        if pinv != 1:
            prow = rows[pinv]
            work[row] = [prow[v] for v in work[row]]
        for r in range(nr):
            if r != row and work[r][col]:
                frow = rows[work[r][col]]
                work[r] = [a ^ frow[b] for a, b in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
        if row == nr:
            break
    return work, len(pivots), pivots


# -- residue-form oracle for the finite blocks ------------------------------------


def res_at_infinity(num: Poly, den: Poly) -> int:
    """Residue at infinity of num/den: the t^-1 coefficient of the Laurent
    expansion in 1/t.  Matching coefficients in (num mod den) = den * (c1/t +
    c2/t^2 + ...) gives c1 as the t^(deg den - 1) coefficient of num mod den.
    """
    if den.is_zero():
        raise PolyError("residue needs a nonzero denominator")
    den = den.monic()
    r = num % den
    return r.coeff(den.degree - 1)


def residue_oracle(f: Poly, n: int) -> AlternatingPair:
    """Gram matrices of the residue pairing on the module for f^n, in the
    basis u_k = t^(d-k-1) u, v_k = t^k v; rebuilds the finite blocks
    independently of the companion construction of ``build_finite``.

    The pairing sends (u, v) to 1/f^n and (u, u), (v, v) to 0; the two Gram
    matrices take the residues of F(u_l, v_k) and F(t u_l, v_k).  Works for
    f = t as well (direct expansion in the same basis).
    """
    if n < 1:
        raise BlockError("multiplicity must be positive")
    if not f.is_monic() or not is_irreducible(f):
        raise BlockError(f"{f} is not monic irreducible")
    spec = f.spec
    g = f
    for _ in range(n - 1):
        g = g * f
    d = g.degree
    a_rows = [[0] * (2 * d) for _ in range(2 * d)]
    b_rows = [[0] * (2 * d) for _ in range(2 * d)]
    for l in range(d):
        for k in range(d):
            # F(u_l, v_k) = t^(d+k-l-1)/g; F(t u_l, v_k) = t^(d+k-l)/g
            av = res_at_infinity(monomial(spec, d + k - l - 1), g)
            bv = res_at_infinity(monomial(spec, d + k - l), g)
            if av:
                a_rows[l][d + k] = av
                a_rows[d + k][l] = av
            if bv:
                b_rows[l][d + k] = bv
                b_rows[d + k][l] = bv
    return AlternatingPair(
        Mat.from_rows(spec, a_rows), Mat.from_rows(spec, b_rows)
    )


# -- group-layer oracles ---------------------------------------------------------------


def _finite_block_commutators(g_coeffs: list[int], d: int) -> dict:
    """Local commutators of a finite block from the coefficients of f^n.

    g_coeffs[i] is the t^i coefficient of f^n (0 <= i < d); indices 1-based
    within the block, first group 1..d, second d+1..2d.
    """
    out: dict[tuple[int, int], list[int]] = {}

    def put(i: int, j: int, a1: int, a2: int):
        cur = out.setdefault((i - 1, j - 1), [0, 0])
        cur[0] ^= a1
        cur[1] ^= a2

    for i in range(1, d):
        put(i, d + i, 1, 0)
    for i in range(2, d + 1):
        put(i, d + i - 1, 0, 1)
    for i in range(1, d):
        if g_coeffs[i - 1]:
            put(i, 2 * d, 0, 1)
    put(d, 2 * d, 1, g_coeffs[d - 1])
    return out


def _infinity_block_commutators(n: int) -> dict:
    out = {}
    for i in range(1, n + 1):
        out[(i - 1, n + i - 1)] = [0, 1]
    for i in range(2, n + 1):
        out[(i - 1, n + i - 2)] = [1, 0]
    return out


def _plus_block_commutators(eps: int) -> dict:
    out = {}
    for i in range(1, eps + 1):
        out[(i - 1, eps + i - 1)] = [1, 0]
        out[(i - 1, eps + i)] = [0, 1]
    return out


def block_commutators_reference(rho: ClassFunction, e: int = 1) -> GroupPresentation:
    """The group presentation of a GF(2) class function from hand-written
    commutator tables, one per block family, with no block matrices: one
    generator batch per block, cross-block commutators zero.  Independent of
    ``chernikov.presentation_from_class``, which reads the canonical pair."""
    data: dict[tuple[int, int], tuple[int, ...]] = {}
    offset = 0
    for point, n, mult in rho.entries:
        bid = BlockId.of_point(point, n)
        for _ in range(mult):
            if bid.kind == "plus":
                local = _plus_block_commutators(bid.n)
            elif bid.kind == "inf":
                local = _infinity_block_commutators(n)
            else:
                g = bid.f
                for _ in range(n - 1):
                    g = g * bid.f
                local = _finite_block_commutators([g.coeff(i) for i in range(g.degree)], g.degree)
            for (i, j), vec in local.items():
                if any(vec):
                    data[(offset + i, offset + j)] = tuple(vec)
            offset += bid.dim
    return GroupPresentation.from_dict(offset, 2, data, e)


def iso_from_witness_dense(p, r, s: Mat, q: GL2Element, e: int):
    """``iso_from_witness`` with the witness first decided by dense products,
    R_k = sum_l q_lk S A_l S^T, on the presentations' matrices; the refusals
    before it (shape, singular S) and everything after are the library's."""
    n = p.num_h
    valid_shape = p.m == r.m == 2 and r.num_h == n and s.spec.k == q.spec.k == 1
    if valid_shape and s.shape == (n, n) and s.rank() == n:
        conj = [s @ a @ s.transpose() for a in presentation_matrices(p)]
        for k, target in enumerate(presentation_matrices(r)):
            acc = Mat.zeros(s.spec, n, n)
            for l, row in enumerate(q.rows()):
                if row[k]:
                    acc = acc + conj[l]
            if acc.rows != target.rows:
                raise WitnessError("witness fails verification: tuples do not match")
    return iso_from_witness(p, r, s, q, e)


def h_generator(g, i: int):
    """The lift of generator h_(i+1) of a finite model."""
    return (1 << i, (0,) * g.m)


def socle_element(g, k: int):
    """The order-2 element of bottom coordinate k of a finite model."""
    vec = [0] * g.m
    vec[k] = g.socle_unit
    return (0, tuple(vec))


def is_abelian(g) -> bool:
    return not any(g.cocycle)


def inverse(g, el):
    """(x, a)^-1 = (x, -a - c) in a finite model, where (x, 0)^2 = (0, c)."""
    x, a = el
    _, square = g.mul((x, (0,) * g.m), (x, (0,) * g.m))
    return (x, tuple((-(u + v)) % (1 << g.e) for u, v in zip(a, square)))


def commutator(g, a, b):
    return g.mul(g.mul(inverse(g, a), inverse(g, b)), g.mul(a, b))


def _xor_selected(rows, x: int) -> int:
    acc, i = 0, 0
    while x:
        if x & 1:
            acc ^= rows[i]
        x >>= 1
        i += 1
    return acc


def _parities_reference(forms, x: int, y: int) -> tuple[int, ...]:
    return tuple([(_xor_selected(rows, x) & y).bit_count() & 1 for rows in forms])


def cocycle_forms(g) -> tuple[tuple[int, ...], ...]:
    """The cocycle of a finite model per bottom coordinate: row i of form k
    is field k of strided row i."""
    n, full = g.num_h, (1 << g.num_h) - 1
    return tuple(tuple(row >> (k * n) & full for row in g.cocycle) for k in range(g.m))


def map_parts(qmap) -> tuple:
    """A quotient map's data per form: top rows, the m quadratic forms and
    the linear corrections per generator, read off the strided rows and the
    bit-planes."""
    n, m, full = qmap.src.num_h, qmap.dst.m, (1 << qmap.src.num_h) - 1
    top = tuple(row & full for row in qmap.rows)
    quad = tuple(tuple(row >> ((k + 1) * n) & full for row in qmap.rows) for k in range(m))
    linear = tuple(
        tuple(sum((plane >> i & 1) << b for b, plane in enumerate(planes)) for planes in qmap.linear)
        for i in range(n)
    )
    return top, quad, linear


def mul_reference(g, a, b):
    """FiniteQuotient.mul one form at a time, on the per-form cocycle."""
    x, av = a
    y, bv = b
    beta = _parities_reference(cocycle_forms(g), x, y)
    mod = 1 << g.e
    socle = mod >> 1
    return (x ^ y, tuple([(u + v + socle * p) % mod for u, v, p in zip(av, bv, beta)]))


def apply_reference(qmap, g):
    """QuotientMap.apply one form and one generator at a time, on the
    per-form data of ``map_parts``."""
    top, quad, linear = map_parts(qmap)
    x, a = g
    mod = 1 << qmap.dst.e
    socle = qmap.dst.socle_unit
    acc = [socle * p for p in _parities_reference(quad, x, x)]
    xi, i = x, 0
    while xi:
        if xi & 1:
            for k, v in enumerate(linear[i]):
                acc[k] += v
        xi >>= 1
        i += 1
    for al, row in zip(a, qmap.bottom):
        if al:
            for k, v in enumerate(row):
                acc[k] += al * v
    return (_xor_selected(top, x), tuple([v % mod for v in acc]))


MAX_BRUTE_ORDER = 1 << 12


def verify_exhaustive(qmap) -> bool:
    """Whether a quotient map is an isomorphism, by enumeration (orders up
    to ``MAX_BRUTE_ORDER``): bijectivity by mapping every element, and the
    product property on all 4^num_h pairs of pure exponent vectors, which
    decide it because the map is linear in the bottom part.  Independent of
    the certificate in ``chernikov.verify_quotient_map``."""
    src, dst = qmap.src, qmap.dst
    if src.order > MAX_BRUTE_ORDER:
        raise ValueError(f"exhaustive check is capped at order {MAX_BRUTE_ORDER}")
    if src.order != dst.order:
        return False
    image = {g: qmap.apply(g) for g in elements(src)}
    if len(set(image.values())) != src.order:
        return False
    tops, products = _pure_top_products(src)
    for g, row in zip(tops, products):
        fg = image[g]
        for h, gh in zip(tops, row):
            if image[gh] != dst.mul(fg, image[h]):
                return False
    return True


@lru_cache(maxsize=1)
def _pure_top_products(g) -> tuple[list, list]:
    """The pure exponent vectors of a model and the table of their products;
    the mutants of one map share it."""
    zero = (0,) * g.m
    tops = [(x, zero) for x in range(1 << g.num_h)]
    return tops, [[g.mul(a, b) for b in tops] for a in tops]


def order_of_element(g, el) -> int:
    acc = el
    n = 1
    while acc != g.identity:
        acc = g.mul(acc, el)
        n += 1
        if n > g.order:
            raise AssertionError("element order exceeded group order")
    return n


def _order_histogram(g) -> dict[int, int]:
    hist: dict[int, int] = {}
    for el in elements(g):
        o = order_of_element(g, el)
        hist[o] = hist.get(o, 0) + 1
    return hist


def _generating_set(g) -> list:
    gens: list = []
    closure = {g.identity}
    for el in elements(g):
        if el in closure:
            continue
        gens.append(el)
        closure = _closure(g, gens)
        if len(closure) == g.order:
            break
    return gens


def _closure(g, gens: list) -> set:
    seen = {g.identity}
    frontier = [g.identity]
    while frontier:
        w = frontier.pop()
        for x in gens:
            wx = g.mul(w, x)
            if wx not in seen:
                seen.add(wx)
                frontier.append(wx)
    return seen


def _try_hom(g1, g2, pairs: list) -> dict | None:
    hom = {g1.identity: g2.identity}
    frontier = [g1.identity]
    while frontier:
        w = frontier.pop()
        img = hom[w]
        for x, y in pairs:
            wx = g1.mul(w, x)
            imgy = g2.mul(img, y)
            if wx in hom:
                if hom[wx] != imgy:
                    return None
            else:
                hom[wx] = imgy
                frontier.append(wx)
    return hom


def brute_force_isomorphic(g1, g2) -> bool:
    """Backtracking isomorphism search between finite models; an oracle for
    orders up to ``MAX_BRUTE_ORDER``."""
    if g1.order > MAX_BRUTE_ORDER or g2.order > MAX_BRUTE_ORDER:
        raise PresentationError(f"brute force is capped at order {MAX_BRUTE_ORDER}")
    if g1.order != g2.order:
        return False
    if _order_histogram(g1) != _order_histogram(g2):
        return False
    gens = _generating_set(g1)
    by_order: dict[int, list] = {}
    for el in elements(g2):
        by_order.setdefault(order_of_element(g2, el), []).append(el)

    def backtrack(idx: int, pairs: list) -> bool:
        if idx == len(gens):
            hom = _try_hom(g1, g2, pairs)
            if hom is None or len(hom) != g1.order:
                return False
            return len(set(hom.values())) == g1.order
        gen = gens[idx]
        o = order_of_element(g1, gen)
        for cand in by_order.get(o, ()):
            pairs.append((gen, cand))
            hom = _try_hom(g1, g2, pairs)
            if hom is not None and len(set(hom.values())) == len(hom):
                if backtrack(idx + 1, pairs):
                    return True
            pairs.pop()
        return False

    return backtrack(0, [])
