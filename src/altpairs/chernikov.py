"""From classification data to class-2 nilpotent 2-groups.

A presentation has involutive top generators h_1..h_num_h over a central
bottom (Z/2^e)^m; the commutator [h_i, h_j] is a vector of order-2 bottom
elements read off a tuple of alternating matrices over GF(2).  The explicit
finite model multiplies exponent vectors with the standard lower-triangle
2-cocycle, so h-lifts square to the identity.

``iso_from_witness`` turns a weak-equivalence witness (S, Q) into an explicit
isomorphism of finite models.  The top maps through S^-1 and the bottom
through a 0/1 lift of Q; a quadratic correction absorbs the cocycle
discrepancy introduced by S.  The linear half of that correction needs a
square root of a socle element, which exists only for e >= 2; for e = 1 a
nonzero diagonal discrepancy is a hard obstruction (the two models can even
be non-isomorphic groups) and is reported as such.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .blocks import BlockId
from .field import FieldSpec, Packing
from .linalg import Mat
from .pencil import ClassFunction
from .weakeq import GL2Element

MAX_BRUTE_ORDER = 1 << 12


class PresentationError(ValueError):
    """Invalid presentation input."""


class WitnessError(ValueError):
    """The supplied (S, Q) witness does not transform the tuples correctly."""


class IsoObstructionError(ValueError):
    """No isomorphism of the prescribed shape exists (e = 1 square
    obstruction)."""


Element = tuple[int, tuple[int, ...]]
CommutatorTable = tuple[tuple[tuple[int, int], tuple[int, ...]], ...]


@dataclass(frozen=True)
class GroupPresentation:
    """Generators and relations: num_h involutive generators over a central
    (Z/2^e)^m bottom, commutators given by vectors in F_2^m."""

    num_h: int
    m: int
    commutators: CommutatorTable  # ((i, j) 0-based, i < j) -> F_2^m vector
    e: int = 1

    def __post_init__(self):
        for (i, j), vec in self.commutators:
            if not 0 <= i < j < self.num_h:
                raise PresentationError(f"bad commutator index ({i}, {j})")
            if len(vec) != self.m or any(v not in (0, 1) for v in vec):
                raise PresentationError("commutator vectors live in F_2^m")

    @staticmethod
    def from_dict(num_h: int, m: int, data: dict, e: int = 1) -> "GroupPresentation":
        items = tuple(sorted((ij, tuple(vec)) for ij, vec in data.items() if any(vec)))
        return GroupPresentation(num_h, m, items, e)

    def commutator_vector(self, i: int, j: int) -> tuple[int, ...]:
        if i > j:
            i, j = j, i
        for (a, b), vec in self.commutators:
            if (a, b) == (i, j):
                return vec
        return (0,) * self.m

    def matrices(self) -> list[Mat]:
        """The m alternating matrices over GF(2) carrying the commutator data."""
        spec = FieldSpec.gf2()
        n = self.num_h
        rows = [[[0] * n for _ in range(n)] for _ in range(self.m)]
        for (i, j), vec in self.commutators:
            for k, bit in enumerate(vec):
                if bit:
                    rows[k][i][j] = 1
                    rows[k][j][i] = 1
        return [Mat.from_rows(spec, r, n) for r in rows]

    # -- rendering -----------------------------------------------------------

    def generator_names(self) -> list[str]:
        return [f"h{i + 1}" for i in range(self.num_h)] + [
            f"a{k + 1}" for k in range(self.m)
        ]

    def relators(self) -> list[str]:
        """GAP-style relator spellings for the finite model at exponent e."""
        socle = 1 << (self.e - 1)
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
        table = {ij: vec for ij, vec in self.commutators}
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


def presentation_from_tuple(mats: Sequence[Mat], e: int = 1) -> GroupPresentation:
    """Read the commutator table directly off an m-tuple of alternating
    matrices over GF(2)."""
    if not mats:
        raise PresentationError("need at least one matrix")
    spec = mats[0].spec
    if spec.k != 1:
        raise PresentationError("group construction is specific to GF(2)")
    n = mats[0].nrows
    for m in mats:
        if m.spec != spec or m.shape != (n, n):
            raise PresentationError("matrices must share a square GF(2) shape")
        for i in range(n):
            if m.rows[i][i]:
                raise PresentationError(f"nonzero diagonal at ({i}, {i})")
            for j in range(i + 1, n):
                if m.rows[i][j] != m.rows[j][i]:
                    raise PresentationError(f"not symmetric at ({i}, {j})")
    data = {}
    for i in range(n):
        for j in range(i + 1, n):
            vec = tuple(m.rows[i][j] for m in mats)
            if any(vec):
                data[(i, j)] = vec
    return GroupPresentation.from_dict(n, len(mats), data, e)


def _finite_block_commutators(g_coeffs: list[int], d: int) -> dict:
    """Local commutators of a finite block from the coefficients of f^n.

    g_coeffs[i] is the t^i coefficient of f^n (0 <= i < d); indices 1-based
    within the block, first group 1..d, second d+1..2d.
    """
    out: dict[tuple[int, int], list[int]] = {}

    def put(i: int, j: int, a1: int, a2: int):
        key = (i - 1, j - 1)
        cur = out.setdefault(key, [0, 0])
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


def presentation_from_class(rho: ClassFunction, e: int = 1) -> GroupPresentation:
    """Presentation of the group attached to a class function over GF(2):
    one generator batch per block, commutators from the canonical block
    data, all cross-block commutators zero."""
    if rho.spec.k != 1:
        raise PresentationError("group construction is specific to GF(2)")
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
                d = g.degree
                local = _finite_block_commutators([g.coeff(i) for i in range(d)], d)
            for (i, j), vec in local.items():
                if any(vec):
                    data[(offset + i, offset + j)] = tuple(vec)
            offset += bid.dim
    return GroupPresentation.from_dict(offset, 2, data, e)


# -- explicit finite models ------------------------------------------------------


@dataclass(frozen=True)
class FiniteQuotient:
    """Explicit model of order 2^(num_h + e*m): pairs (x, a) of an exponent
    bitmask and a bottom vector, multiplied through the lower-triangle
    cocycle lifted into the socle."""

    num_h: int
    m: int
    e: int
    commutators: CommutatorTable

    @property
    def order(self) -> int:
        return 1 << (self.num_h + self.e * self.m)

    @property
    def identity(self) -> Element:
        return (0, (0,) * self.m)

    @property
    def socle_unit(self) -> int:
        return 1 << (self.e - 1)

    def _beta(self, x: int, y: int) -> tuple[int, ...]:
        """Cocycle parity vector: sum over i > j of x_i y_j c_ij (mod 2)."""
        par = [0] * self.m
        for (i, j), vec in self.commutators:
            if (x >> j) & 1 and (y >> i) & 1:
                for k, bit in enumerate(vec):
                    if bit:
                        par[k] ^= 1
        return tuple(par)

    def mul(self, g: Element, h: Element) -> Element:
        x, a = g
        y, b = h
        beta = self._beta(x, y)
        mod = 1 << self.e
        socle = self.socle_unit
        return (
            x ^ y,
            tuple((av + bv + socle * p) % mod for av, bv, p in zip(a, b, beta)),
        )

    def inv(self, g: Element) -> Element:
        x, a = g
        beta = self._beta(x, x)
        mod = 1 << self.e
        socle = self.socle_unit
        return (x, tuple((-(av + socle * p)) % mod for av, p in zip(a, beta)))

    def commutator(self, g: Element, h: Element) -> Element:
        return self.mul(self.mul(self.inv(g), self.inv(h)), self.mul(g, h))

    def order_of_element(self, g: Element) -> int:
        acc = g
        n = 1
        while acc != self.identity:
            acc = self.mul(acc, g)
            n += 1
            if n > self.order:
                raise AssertionError("element order exceeded group order")
        return n

    def h_generator(self, i: int) -> Element:
        return (1 << i, (0,) * self.m)

    def socle_element(self, k: int) -> Element:
        vec = [0] * self.m
        vec[k] = self.socle_unit
        return (0, tuple(vec))

    def elements(self) -> Iterator[Element]:
        mod = 1 << self.e
        for x in range(1 << self.num_h):
            for a in product(range(mod), repeat=self.m):
                yield (x, a)

    def is_abelian(self) -> bool:
        return not self.commutators


def build_quotient(pres: GroupPresentation, e: int) -> FiniteQuotient:
    if e < 1:
        raise PresentationError("quotient exponent must be positive")
    return FiniteQuotient(pres.num_h, pres.m, e, pres.commutators)


# -- isomorphisms from weak-equivalence witnesses ---------------------------------


@dataclass(frozen=True)
class QuotientMap:
    """Explicit map between finite models: top through a GF(2) matrix,
    bottom through an integer matrix mod 2^e, plus a per-exponent-vector
    central correction."""

    src: FiniteQuotient
    dst: FiniteQuotient
    top_rows: tuple[int, ...]  # packed rows of the top matrix
    bottom: tuple[tuple[int, ...], ...]  # m x m integer lift
    quad: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]  # socle corrections
    linear: tuple[tuple[int, ...], ...]  # per-generator corrections mod 2^e

    def apply(self, g: Element) -> Element:
        x, a = g
        mod = 1 << self.dst.e
        # top: row vector times matrix = xor of selected packed rows
        xx = 0
        acc = [0] * self.dst.m
        xi = x
        i = 0
        while xi:
            if xi & 1:
                xx ^= self.top_rows[i]
                for k in range(self.dst.m):
                    acc[k] += self.linear[i][k]
            xi >>= 1
            i += 1
        socle = self.dst.socle_unit
        for (i, j), vec in self.quad:
            if (x >> i) & 1 and (x >> j) & 1:
                for k, bit in enumerate(vec):
                    if bit:
                        acc[k] += socle
        for l in range(self.src.m):
            al = a[l]
            if al:
                for k in range(self.dst.m):
                    if self.bottom[l][k]:
                        acc[k] += al * self.bottom[l][k]
        return (xx, tuple(v % mod for v in acc))


def _vec_times_gl2(vec: tuple[int, ...], q: GL2Element) -> tuple[int, ...]:
    rows = q.rows()
    return tuple(
        (sum(vec[l] * rows[l][k] for l in range(2))) & 1 for k in range(2)
    )


def iso_from_witness(
    p: GroupPresentation,
    r: GroupPresentation,
    s: Mat,
    q: GL2Element,
    e: int,
) -> QuotientMap:
    """Isomorphism FiniteQuotient(p, e) -> FiniteQuotient(r, e) from a
    verified witness with r's tuple equal to the S, Q transform of p's.

    Top vectors map through S^-1, the bottom through the 0/1 lift of Q; the
    cocycle discrepancy of the basis change is absorbed by a quadratic
    correction plus, for e >= 2, a linear half-socle part.  The map is
    verified (exhaustively on exponent pairs, by enumeration for bijectivity)
    before being returned.
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
    # verify the witness: R_k = sum_l q_lk S A_l S^T
    amats = p.matrices()
    rmats = r.matrices()
    smat_t = s.transpose()
    conj = [s @ a @ smat_t for a in amats]
    qrows = q.rows()
    for k in range(2):
        acc = Mat.zeros(s.spec, n, n)
        for l in range(2):
            if qrows[l][k]:
                acc = acc + conj[l]
        if acc.rows != rmats[k].rows:
            raise WitnessError("witness fails verification: tuples do not match")
    src = build_quotient(p, e)
    dst = build_quotient(r, e)
    minv = s.inv()
    pack = Packing(s.spec, n).pack
    mrows = [pack(row) for row in minv.rows]
    # basis discrepancies delta(e_i, e_j) = beta_R(m_i, m_j) - beta_P(e_i, e_j) Q
    deltas: dict[tuple[int, int], tuple[int, ...]] = {}
    diag: list[tuple[int, ...]] = []
    for i in range(n):
        for j in range(i + 1):
            br = dst._beta(mrows[i], mrows[j])
            bp = src._beta(1 << i, 1 << j)
            d_ij = tuple(a ^ b for a, b in zip(br, _vec_times_gl2(bp, q)))
            # symmetry check against the transposed computation
            br2 = dst._beta(mrows[j], mrows[i])
            bp2 = src._beta(1 << j, 1 << i)
            d_ji = tuple(a ^ b for a, b in zip(br2, _vec_times_gl2(bp2, q)))
            if d_ij != d_ji:
                raise AssertionError("witness discrepancy is not symmetric")
            if i == j:
                diag.append(d_ij)
            elif any(d_ij):
                deltas[(j, i)] = d_ij
    if e == 1 and any(any(d) for d in diag):
        raise IsoObstructionError(
            "e = 1 quotients admit no map of the prescribed shape for this "
            "witness: the basis change flips the square of a lifted generator"
        )
    linear = []
    for i in range(n):
        if any(diag[i]):
            # half-socle square root of the diagonal discrepancy (e >= 2)
            linear.append(tuple((1 << (e - 2)) * bit for bit in diag[i]))
        else:
            linear.append((0,) * 2)
    bottom = tuple(tuple(qrows[l][k] for k in range(2)) for l in range(2))
    qmap = QuotientMap(
        src=src,
        dst=dst,
        top_rows=tuple(mrows),
        bottom=bottom,
        quad=tuple(sorted(deltas.items())),
        linear=tuple(linear),
    )
    verify_quotient_map(qmap)
    return qmap


def verify_quotient_map(qmap: QuotientMap, rng: random.Random | None = None) -> None:
    """Homomorphism and bijectivity verification.

    Within the exhaustive cap (order <= 2^12): the bottom part of the map is
    linear, so the homomorphism property for all pairs reduces exactly to
    pairs of pure exponent vectors, which are all checked (4^num_h pairs),
    and bijectivity is checked by mapping every element.  Above the cap the
    product property is sampled on random pairs.  The literal product
    property is additionally spot-checked on random pairs either way.
    """
    src, dst = qmap.src, qmap.dst
    if src.order != dst.order:
        raise WitnessError("source and target orders differ")
    n = src.num_h
    exhaustive = src.order <= MAX_BRUTE_ORDER
    if exhaustive:
        zero = (0,) * src.m
        tops = [(x, zero) for x in range(1 << n)]
        images = [qmap.apply(g) for g in tops]
        for xi, g in enumerate(tops):
            for yi, h in enumerate(tops):
                left = qmap.apply(src.mul(g, h))
                right = dst.mul(images[xi], images[yi])
                if left != right:
                    raise WitnessError(
                        f"homomorphism fails on exponent pair {g[0]:#x}, {h[0]:#x}"
                    )
        seen = set()
        for g in src.elements():
            seen.add(qmap.apply(g))
        if len(seen) != src.order:
            raise WitnessError("map is not a bijection")
    rng = rng or random.Random(0xC0C)
    mod = 1 << src.e
    for _ in range(2000 if not exhaustive else 500):
        g = (rng.randrange(1 << n), tuple(rng.randrange(mod) for _ in range(src.m)))
        h = (rng.randrange(1 << n), tuple(rng.randrange(mod) for _ in range(src.m)))
        if qmap.apply(src.mul(g, h)) != dst.mul(qmap.apply(g), qmap.apply(h)):
            raise WitnessError("homomorphism fails on a sampled pair")


# -- brute-force isomorphism oracle -----------------------------------------------


def _order_histogram(g: FiniteQuotient) -> dict[int, int]:
    hist: dict[int, int] = {}
    for el in g.elements():
        o = g.order_of_element(el)
        hist[o] = hist.get(o, 0) + 1
    return hist


def _generating_set(g: FiniteQuotient) -> list[Element]:
    gens: list[Element] = []
    closure = {g.identity}
    for el in g.elements():
        if el in closure:
            continue
        gens.append(el)
        closure = _closure(g, gens)
        if len(closure) == g.order:
            break
    return gens


def _closure(g: FiniteQuotient, gens: list[Element]) -> set[Element]:
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


def _try_hom(
    g1: FiniteQuotient, g2: FiniteQuotient, pairs: list[tuple[Element, Element]]
) -> dict[Element, Element] | None:
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


def brute_force_isomorphic(g1: FiniteQuotient, g2: FiniteQuotient) -> bool:
    """Backtracking isomorphism search; a test oracle for small orders."""
    if g1.order > MAX_BRUTE_ORDER or g2.order > MAX_BRUTE_ORDER:
        raise PresentationError(f"brute force is capped at order {MAX_BRUTE_ORDER}")
    if g1.order != g2.order:
        return False
    if _order_histogram(g1) != _order_histogram(g2):
        return False
    gens = _generating_set(g1)
    by_order: dict[int, list[Element]] = {}
    for el in g2.elements():
        by_order.setdefault(g2.order_of_element(el), []).append(el)

    def backtrack(idx: int, pairs: list[tuple[Element, Element]]) -> bool:
        if idx == len(gens):
            hom = _try_hom(g1, g2, pairs)
            if hom is None or len(hom) != g1.order:
                return False
            return len(set(hom.values())) == g1.order
        gen = gens[idx]
        o = g1.order_of_element(gen)
        for cand in by_order.get(o, ()):
            pairs.append((gen, cand))
            hom = _try_hom(g1, g2, pairs)
            if hom is not None and len(set(hom.values())) == len(hom):
                if backtrack(idx + 1, pairs):
                    return True
            pairs.pop()
        return False

    return backtrack(0, [])
