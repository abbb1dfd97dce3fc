"""Polynomials, factorization, binary forms, and the GL(2) substitution."""

import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import reduce

import pytest

from altpairs.field import FieldSpec, Packing
from altpairs.polyring import (
    EPS,
    BinaryForm,
    Poly,
    PolyError,
    _derivative,
    _divmod,
    _equal_degree_split,
    _squaring,
    dehomogenize,
    factor,
    format_form,
    format_poly,
    homogenize,
    is_irreducible,
    lagrange_interpolate,
    moebius_act,
    monic_irreducibles,
    parse_poly,
    point_from_poly,
    point_sort_key,
    poly_sqrt,
)
from altpairs.weakeq import pgl2_enumerate

from conftest import (
    GF2,
    GF4,
    GF16,
    GF512,
    _gf2_poly_mulmod,
    _poly_divmod,
    _poly_submul,
    enumerate_bits,
    factor_reference,
    form_value,
    is_unital,
    moebius_act_reference,
    monomial,
    parse_form,
    poly_constant,
    poly_gcd,
    poly_value,
    random_irreducible,
    reverse_star,
    series_inverse_trunc,
    unital_normalize,
)


def P2(mask: int) -> Poly:
    return Poly(mask, GF2)


# -- arithmetic -----------------------------------------------------------------


def test_gcd_example():
    assert poly_gcd(P2(0b110), P2(0b10)) == P2(0b10)  # gcd(t^2+t, t) = t


def test_mul_identity():
    f = P2(0b1011)
    assert f * Poly.one(GF2) == f


def test_divmod_example():
    q, r = divmod(P2(0b1001), P2(0b11))  # (t^3+1) / (t+1)
    assert q == P2(0b111)
    assert r.is_zero()


def test_divmod_invariant_random():
    rng = random.Random(11)
    for spec in (GF2, GF4, GF16, GF512):
        for _ in range(200):
            a = Poly.make(spec, [rng.randrange(spec.order) for _ in range(rng.randrange(1, 10))])
            b = Poly.make(spec, [rng.randrange(spec.order) for _ in range(rng.randrange(1, 6))])
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree


def _schoolbook_mul(spec, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] ^= _gf2_poly_mulmod(ai, bj, spec.modulus)
    return Poly.make(spec, out)


def _schoolbook_divmod(spec, a, b):
    """Long division with field inverses found by search over the
    nonzero elements."""
    lead_inv = next(
        x for x in range(1, spec.order) if _gf2_poly_mulmod(x, b[-1], spec.modulus) == 1
    )
    rem = list(a)
    quot = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        f = _gf2_poly_mulmod(rem[i + len(b) - 1], lead_inv, spec.modulus)
        quot[i] = f
        for j, bj in enumerate(b):
            rem[i + j] ^= _gf2_poly_mulmod(f, bj, spec.modulus)
    return Poly.make(spec, quot), Poly.make(spec, rem)


def test_kernel_matches_schoolbook_without_mul_table():
    rng = random.Random(0x209)
    spec = GF512
    for _ in range(60):
        a = Poly.make(spec, [rng.randrange(spec.order) for _ in range(rng.randrange(0, 9))])
        b = Poly.make(spec, [rng.randrange(spec.order) for _ in range(rng.randrange(1, 6))])
        if a.is_zero() or b.is_zero():
            continue
        assert a * b == _schoolbook_mul(spec, a.coeffs, b.coeffs)
        assert divmod(a, b) == _schoolbook_divmod(spec, a.coeffs, b.coeffs)


# -- the packed kernel against the coefficient-tuple kernel of conftest ------------

KERNEL_SPECS = [GF2, GF4, GF16, GF512, FieldSpec.gf(16)]
KERNEL_DEGREES = (-1, 0, 1, 2, 5, 17, 40, 80)  # -1 is the zero polynomial


def _rand_coeffs(spec, rng, degree):
    """degree + 1 random coefficients, the leading one nonzero."""
    if degree < 0:
        return ()
    return tuple(rng.randrange(spec.order) for _ in range(degree)) + (rng.randrange(1, spec.order),)


FORM_SHAPES = [(-1, 0)] + [(d, m) for d in (0, 1, 2, 3, 6) for m in range(d + 1)]  # (degree, x2 power)


def _rand_form_coeffs(spec, rng, degree, x2_power):
    """Coefficients of a random form of the given degree that x2 divides
    exactly x2_power times."""
    return _rand_coeffs(spec, rng, degree - x2_power) + (0,) * x2_power


def _form_product(rows, a, b):
    """Product of coefficient tuples, padded to keep the total degree."""
    if not a or not b:
        return ()
    ab = _poly_submul(rows, (), a, b)
    return ab + (0,) * (len(a) + len(b) - 1 - len(ab))


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=str)
def test_packed_product_divmod_and_monic_match_tuples(spec):
    rng = random.Random(0x13 + spec.k)
    rows, inv = spec.packing.mul_table, spec.packing.inv_table
    for da in KERNEL_DEGREES:
        for db in KERNEL_DEGREES:
            ac, bc = _rand_coeffs(spec, rng, da), _rand_coeffs(spec, rng, db)
            a, b = Poly.make(spec, ac), Poly.make(spec, bc)
            assert a.coeffs == ac and a.degree == da
            assert (a * b).coeffs == _poly_submul(rows, (), ac, bc)
            if bc:
                q, r = divmod(a, b)
                assert (q.coeffs, r.coeffs) == _poly_divmod(rows, inv, ac, bc)
                assert q * b + r == a and r.degree < b.degree
        m = a.monic()
        if ac:
            assert m.coeffs == tuple(rows[inv[ac[-1]]][c] for c in ac) and m.leading == 1
        else:
            assert m == a


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=str)
def test_powmod_matches_repeated_tuple_products(spec):
    rng = random.Random(0x29 + spec.k)
    rows, inv = spec.packing.mul_table, spec.packing.inv_table
    for dm in (0, 1, 3, 9):
        mc = _rand_coeffs(spec, rng, dm)
        for db in (-1, 0, 4, 20):
            bc = _rand_coeffs(spec, rng, db)
            for n in (0, 1, 2, 5, 37):
                expected = (1,)
                for _ in range(n):
                    expected = _poly_divmod(rows, inv, _poly_submul(rows, (), expected, bc), mc)[1]
                # square and multiply, the squares from the squaring map of m
                pk, m = spec.packing, Poly.make(spec, mc).bits
                square = _squaring(pk, m, 2 * n.bit_length())
                base, r = _divmod(pk, Poly.make(spec, bc).bits, m)[1], 1
                for bit in range(n.bit_length()):
                    if n >> bit & 1:
                        r = _divmod(pk, pk.mul(r, base), m)[1]
                    base = square(base)
                assert Poly(r, spec).coeffs == expected


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=str)
def test_sort_key_orders_by_degree_then_coefficients_from_the_top(spec):
    rng = random.Random(0x31 + spec.k)
    polys = [Poly.make(spec, _rand_coeffs(spec, rng, rng.randrange(-1, 4))) for _ in range(300)]
    polys += [Poly.make(spec, (c, 1)) for c in range(min(spec.order, 8))]
    expected = sorted(polys, key=lambda f: (f.degree, f.coeffs[::-1]))
    # the packed ints, which ``factor`` sorts by, order the same way
    assert sorted(polys, key=lambda f: f.bits) == expected
    # and binary forms, x2 dividing some of them
    forms = [BinaryForm.make(spec, _rand_form_coeffs(spec, rng, *shape)) for shape in FORM_SHAPES * 8]
    forms += [BinaryForm.make(spec, (c, 1)) for c in range(min(spec.order, 8))] + [BinaryForm.x2(spec)]
    expected = sorted(forms, key=lambda g: (g.degree, g.coeffs[::-1]))
    assert sorted(forms, key=BinaryForm.sort_key) == expected


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=str)
def test_binary_form_arithmetic_matches_tuples(spec):
    rng = random.Random(0x53 + spec.k)
    rows = spec.packing.mul_table
    cs = [_rand_form_coeffs(spec, rng, *shape) for shape in FORM_SHAPES]
    forms = [BinaryForm.make(spec, c) for c in cs]
    for a, f in zip(cs, forms):
        assert f.coeffs == a and f.degree == len(a) - 1
        c = rng.randrange(spec.order)
        assert f.scale(c).coeffs == (tuple(rows[c][x] for x in a) if c else ())
        expected = (1,)
        for n in range(4):
            assert f.power(n).coeffs == expected
            expected = _form_product(rows, expected, a)
        for b, g in zip(cs, forms):
            assert (f * g).coeffs == _form_product(rows, a, b)


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=str)
def test_homogenize_dehomogenize_roundtrip_with_x2_power(spec):
    rng = random.Random(0x59 + spec.k)
    for d in (0, 1, 2, 5):
        for m in range(4):
            fc = _rand_coeffs(spec, rng, d)
            f = Poly.make(spec, fc)
            g = homogenize(f, d + m)
            assert (g.coeffs, g.degree) == (fc + (0,) * m, d + m)
            assert g == BinaryForm.make(spec, g.coeffs)
            assert dehomogenize(g) == (f, m)


@pytest.mark.parametrize("spec", KERNEL_SPECS, ids=str)
def test_one_packing_widens_past_its_mask_reach(spec):
    # a fresh Packing reaches a few slots; short operands first, then ever
    # longer ones, read through a table of multiples before any product
    pk = Packing(spec)
    rng = random.Random(0x47 + spec.k)
    rows = spec.packing.mul_table
    fs = [0, 1] + [rng.randrange(spec.order) for _ in range(6)]
    for n in (1, 2, 3, 9, 40, 300):
        row, other = _rand_coeffs(spec, rng, n - 1), _rand_coeffs(spec, rng, n - 1)
        b = pk.pack(row)
        t = pk.multiples(b, 1 << spec.k)
        for f in fs:
            expected = tuple(rows[f][v] for v in row)
            assert pk.unpack(t[f], n) == expected
            assert pk.unpack(pk.mul(f, b), n) == expected
        product = pk.mul(pk.pack(other), b)
        assert pk.unpack(product, 2 * n - 1) == _poly_submul(rows, (), other, row)
    if spec.k > 1:
        assert pk.masks[0].bit_length() >= (2 * 300 - 1) * pk.w


def test_one_packing_shared_by_threads():
    # threads that widen one Packing's masks at once each reduce with the
    # masks they computed, so no product comes out unreduced
    spec, rng = GF16, random.Random(0x53)
    rows = spec.packing.mul_table
    cases = []
    for n in (1, 2, 3, 10, 30, 60) * 3:
        ac, bc = _rand_coeffs(spec, rng, n - 1), _rand_coeffs(spec, rng, n - 1)
        cases.append((ac, bc, _poly_submul(rows, (), ac, bc)))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            pk = Packing(spec)

            def run(order):
                out = []
                for i in order:
                    ac, bc, _ = cases[i]
                    out.append((i, pk.unpack(pk.mul(pk.pack(ac), pk.pack(bc)), len(ac) + len(bc) - 1)))
                return out

            orders = [random.Random(j).sample(range(len(cases)), len(cases)) for j in range(8)]
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(run, order) for order in orders]
                results = [f.result(timeout=60) for f in futures]
            assert all(got == cases[i][2] for out in results for i, got in out)
    finally:
        sys.setswitchinterval(old)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(P2(0b10), Poly.zero(GF2))


def test_gcd_is_monic_over_gf4():
    t = Poly.t(GF4)
    two = poly_constant(GF4, 2)
    g = poly_gcd(two * t, two * t * t)
    assert g.is_monic() and g == t


# -- reversal and truncated series inversion ---------------------------------------


def test_reverse_star_palindrome():
    assert reverse_star(P2(0b111)) == P2(0b111)


def test_reverse_star_constant():
    assert reverse_star(Poly.one(GF2)) == Poly.one(GF2)


def test_reverse_star_example():
    assert reverse_star(P2(0b1011)) == P2(0b1101)  # t^3+t+1 -> t^3+t^2+1


def test_reverse_star_requires_nonzero_constant():
    with pytest.raises(PolyError):
        reverse_star(P2(0b10))
    with pytest.raises(PolyError):
        reverse_star(Poly.zero(GF2))


def test_series_inverse_examples():
    assert series_inverse_trunc(P2(0b111), 3) == P2(0b11)
    assert series_inverse_trunc(Poly.one(GF2), 5) == Poly.one(GF2)
    assert series_inverse_trunc(P2(0b11), 4) == P2(0b1111)


def test_series_inverse_requires_unit_constant():
    with pytest.raises(PolyError):
        series_inverse_trunc(P2(0b10), 3)


def test_series_inverse_property_random():
    rng = random.Random(5)
    tpow = {}
    for spec in (GF2, GF4):
        for _ in range(60):
            m = rng.randrange(1, 65)
            coeffs = [1] + [rng.randrange(spec.order) for _ in range(rng.randrange(0, 12))]
            g = Poly.make(spec, coeffs)
            h = series_inverse_trunc(g, m)
            assert h.degree < m
            prod = g * h
            tm = monomial(spec, m)
            assert prod % tm == Poly.one(spec)


# -- factorization ------------------------------------------------------------------


def test_factor_split_roots():
    assert factor(P2(0b110)) == [(P2(0b10), 1), (P2(0b11), 1)]


def test_factor_irreducible_quadratic():
    assert factor(P2(0b111)) == [(P2(0b111), 1)]


def test_factor_char2_square():
    # t^4 + t^2 = (t^2 + t)^2 = t^2 (t+1)^2
    assert factor(P2(0b10100)) == [(P2(0b10), 2), (P2(0b11), 2)]


def test_factor_exhaustive_gf2_degree_8():
    for mask in range(2, 1 << 9):
        f = P2(mask)
        assert f.is_monic()
        fs = factor(f)
        prod = Poly.one(GF2)
        for g, mult in fs:
            assert is_irreducible(g)
            assert g.is_monic()
            for _ in range(mult):
                prod = prod * g
        assert prod == f
        # deterministic order
        keys = [g.bits for g, _ in fs]
        assert keys == sorted(keys)


def test_factor_gf4_reconstruction_random():
    rng = random.Random(17)
    irr = list(monic_irreducibles(GF4, 1)) + list(monic_irreducibles(GF4, 2))
    for _ in range(40):
        parts = [irr[rng.randrange(len(irr))] for _ in range(rng.randrange(1, 5))]
        lead = rng.randrange(1, 4)
        f = poly_constant(GF4, lead)
        for p in parts:
            f = f * p
        fs = factor(f)
        prod = poly_constant(GF4, lead)
        for g, mult in fs:
            for _ in range(mult):
                prod = prod * g
        assert prod == f


def test_equal_degree_split_does_not_depend_on_the_seed():
    rng = random.Random(0x67)
    for spec, d in ((GF2, 3), (GF4, 2), (GF16, 1), (GF512, 2)):
        fs = sorted({random_irreducible(spec, rng, d) for _ in range(6)}, key=lambda g: g.bits)
        f = Poly.one(spec)
        for g in fs:
            f = f * g
        for seed in range(10):
            split = _equal_degree_split(spec.packing, f.bits, d, random.Random(seed))
            assert sorted((Poly(g, spec) for g in split), key=lambda g: g.bits) == fs


def _factor_cases(spec, rng, top):
    """Polynomials of degree at most ``top`` under random nonzero leads:
    products of random monics of degree 1-4 to powers 1-4, squares (zero
    derivative), and products of distinct irreducibles of one degree."""

    def monic(d):
        return Poly.make(spec, [rng.randrange(spec.order) for _ in range(d)] + [1])

    cases = []
    for _ in range(16):
        f = poly_constant(spec, rng.randrange(1, spec.order))
        while (room := top - f.degree) > 0 and (f.degree < 1 or rng.randrange(4)):
            g, e = monic(rng.randrange(1, min(room, 4) + 1)), rng.randrange(1, 5)
            while e * g.degree > room:
                e -= 1
            for _ in range(e):
                f = f * g
        cases.append(f)
    for _ in range(4):
        g = monic(rng.randrange(1, top // 2 + 1)).scale(rng.randrange(1, spec.order))
        cases.append(g * g)
    for d in (1, 2, 3):
        fs = {random_irreducible(spec, rng, d) for _ in range(top // d)}
        cases.append(reduce(lambda a, b: a * b, fs, poly_constant(spec, rng.randrange(1, spec.order))))
    return cases


@pytest.mark.parametrize("k, top", [(1, 24), (2, 24), (3, 24), (4, 24), (8, 24), (9, 16), (16, 12)])
def test_factor_matches_reference(k, top):
    # the packed-int factor against the Poly-level path it replaced: the
    # same factors and multiplicities, each monic and irreducible, sorted
    spec = FieldSpec.gf(k)
    rng = random.Random(0x24 + k)
    for f in _factor_cases(spec, rng, top):
        fs = factor(f)
        assert fs == factor_reference(f), str(f)
        assert all(g.is_monic() and is_irreducible(g) for g, _ in fs)
        assert [g.bits for g, _ in fs] == sorted(g.bits for g, _ in fs)
        prod = poly_constant(spec, f.leading)
        for g, e in fs:
            for _ in range(e):
                prod = prod * g
        assert prod == f


def test_is_irreducible_matches_trial_division():
    for mask in range(2, 1 << 7):
        f = P2(mask)
        has_divisor = False
        for dmask in range(2, 1 << 7):
            d = P2(dmask)
            if 0 < d.degree < f.degree and (f % d).is_zero():
                has_divisor = True
                break
        assert is_irreducible(f) == (f.degree >= 1 and not has_divisor)


def test_monic_irreducible_counts():
    # 2, 1, 2, 3 irreducibles of degrees 1..4 over GF(2)
    assert [len(list(monic_irreducibles(GF2, d))) for d in (1, 2, 3, 4)] == [2, 1, 2, 3]
    # q = 4: (q^2 - q)/2 = 6 quadratics
    assert len(list(monic_irreducibles(GF4, 2))) == 6


def test_squarefree_char2_derivative_zero_case():
    # f = (t^2+t+1)^2 has zero derivative; factorization must still split it
    f = P2(0b111) * P2(0b111)
    assert _derivative(GF2.packing, f.bits) == 0
    assert factor(f) == [(P2(0b111), 2)]
    assert poly_sqrt(f) == P2(0b111)
    with pytest.raises(AssertionError, match="not a square"):
        poly_sqrt(f + P2(0b10))


# -- homogenization and forms ---------------------------------------------------------


def test_homogenize_example():
    form = homogenize(P2(0b111), 2)
    assert form == parse_form(GF2, "x1^2+x1*x2+x2^2")


def test_homogenize_constant():
    assert homogenize(Poly.one(GF2), 3) == parse_form(GF2, "x2^3")


def test_homogenize_degree_too_small():
    with pytest.raises(PolyError):
        homogenize(P2(0b111), 1)


def test_dehomogenize_x2():
    f, mult = dehomogenize(BinaryForm.x2(GF2))
    assert f == Poly.one(GF2)
    assert mult == 1


def test_homogenize_dehomogenize_roundtrip():
    for d in (1, 2, 3, 4):
        for f in monic_irreducibles(GF2, d):
            g = point_from_poly(f)
            back, mult = dehomogenize(g)
            assert back == f and mult == 0


def test_unital_normalize_over_gf4():
    g = BinaryForm.make(GF4, (1, 3))  # 3*x1 + x2
    normal, lam = unital_normalize(g)
    assert normal.coeffs[-1] == 1
    assert normal.scale(lam) == g


# -- the substitution action ------------------------------------------------------------


def rows(m):
    return tuple(tuple(r) for r in m)


def test_moebius_identity():
    q = ((1, 0), (0, 1))
    for d in (1, 2, 3):
        for f in monic_irreducibles(GF2, d):
            g = point_from_poly(f)
            assert moebius_act(q, g, GF2) == g
    assert moebius_act(q, EPS, GF2) is EPS


def test_moebius_swap_sends_x2_to_x1():
    q = ((0, 1), (1, 0))
    assert moebius_act(q, BinaryForm.x2(GF2), GF2) == BinaryForm.x1(GF2)


def test_moebius_shear_row_convention():
    # (x1, x2) Q with Q = [[1,0],[1,1]] substitutes x1 -> x1 + x2, x2 -> x2
    q = ((1, 0), (1, 1))
    assert moebius_act(q, BinaryForm.x1(GF2), GF2) == parse_form(GF2, "x1+x2")
    # brute-force substitution check on a quadratic, evaluated over GF(4)
    g = parse_form(GF2, "x1^2+x1*x2+x2^2")
    moved = moebius_act(q, g, GF2)
    for a in enumerate_bits(GF4):
        for b in enumerate_bits(GF4):
            y1 = GF4.mul(a, q[0][0]) ^ GF4.mul(b, q[1][0])
            y2 = GF4.mul(a, q[0][1]) ^ GF4.mul(b, q[1][1])
            g4 = BinaryForm.make(GF4, g.coeffs)
            moved4 = BinaryForm.make(GF4, moved.coeffs)
            assert form_value(moved4, a, b) == form_value(g4, y1, y2)


def test_moebius_eps_fixed():
    for q in (((0, 1), (1, 0)), ((1, 1), (0, 1))):
        assert moebius_act(q, EPS, GF2) is EPS


def test_moebius_rejects_singular():
    with pytest.raises(PolyError):
        moebius_act(((1, 1), (1, 1)), BinaryForm.x1(GF2), GF2)


def _unital_points_gf2(max_deg: int):
    pts = [BinaryForm.x2(GF2)]
    for d in range(1, max_deg + 1):
        pts.extend(point_from_poly(f) for f in monic_irreducibles(GF2, d))
    return pts


def _gl2_gf2_matrices():
    out = []
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                for d in (0, 1):
                    if a * d ^ b * c:
                        out.append(((a, b), (c, d)))
    return out


def test_moebius_action_law_exhaustive():
    mats = _gl2_gf2_matrices()
    assert len(mats) == 6
    points = _unital_points_gf2(4)

    def matmul(p, q):
        return (
            (p[0][0] & q[0][0] ^ p[0][1] & q[1][0], p[0][0] & q[0][1] ^ p[0][1] & q[1][1]),
            (p[1][0] & q[0][0] ^ p[1][1] & q[1][0], p[1][0] & q[0][1] ^ p[1][1] & q[1][1]),
        )

    for q1 in mats:
        for q2 in mats:
            q12 = matmul(q1, q2)
            for g in points:
                assert moebius_act(q12, g, GF2) == moebius_act(
                    q1, moebius_act(q2, g, GF2), GF2
                )


def test_moebius_preserves_degree():
    points = _unital_points_gf2(4)
    for q in _gl2_gf2_matrices():
        for g in points:
            assert moebius_act(q, g, GF2).degree == g.degree


def test_moebius_permutes_unital_points_gf4():
    # over GF(4) the action must stay within the unital irreducible points
    pts = [BinaryForm.x2(GF4)] + [point_from_poly(f) for f in monic_irreducibles(GF4, 2)]
    q = ((2, 1), (1, 1))  # det = 2*1 - 1*1 = 3 != 0
    moved = [moebius_act(q, g, GF4) for g in pts]
    for g in moved:
        assert is_unital(g)


def _random_gl2(spec, rng):
    while True:
        q = tuple(tuple(rng.randrange(spec.order) for _ in range(2)) for _ in range(2))
        if spec.mul(q[0][0], q[1][1]) ^ spec.mul(q[0][1], q[1][0]):
            return q


@pytest.mark.parametrize("k", [1, 2, 3, 4, 9, 16])
def test_moebius_matches_reference(k):
    # x2, eps and irreducible points of degree 1-5 (the first six of each
    # degree <= 3 when k <= 3, otherwise one sampled), moved by every element
    # of PGL(2, 2^k) up to k = 4 and by 300 sampled invertible Q above
    spec = FieldSpec.gf(k)
    rng = random.Random(0x61 + k)
    points = [BinaryForm.x2(spec)]
    for d in (1, 2, 3, 4, 5):
        if k <= 3 and d <= 3:
            points.extend(point_from_poly(f) for f in itertools.islice(monic_irreducibles(spec, d), 6))
        else:
            points.append(point_from_poly(random_irreducible(spec, rng, d)))
    if k <= 4:
        qs = [q.rows() for q in pgl2_enumerate(spec)]
    else:
        qs = [_random_gl2(spec, rng) for _ in range(300)]
    for rows in qs:
        assert moebius_act(rows, EPS, spec) is EPS
        for g in points:
            moved = moebius_act(rows, g, spec)
            assert (moved.coeffs, moved.degree) == (moebius_act_reference(rows, g.coeffs, spec), g.degree)


# -- interpolation, text forms, ordering ---------------------------------------------


def test_lagrange_interpolation_roundtrip():
    rng = random.Random(3)
    for spec in (GF4, FieldSpec.gf(4)):
        for _ in range(30):
            deg = rng.randrange(0, spec.order - 1)
            f = Poly.make(spec, [rng.randrange(spec.order) for _ in range(deg + 1)])
            pts = list(range(min(spec.order, f.degree + 2 if f else 2)))
            vals = [poly_value(f, x) for x in pts]
            assert lagrange_interpolate(spec, pts, vals) == f


def test_poly_text_roundtrip():
    for text in ("t^3+t+1", "t", "1", "0", "t^2+t"):
        assert format_poly(parse_poly(GF2, text)) == text
    p = parse_poly(GF4, "{3}*t^2+{1}")
    assert p.coeffs == (1, 0, 3)
    assert format_poly(p) == "{3}*t^2+1"
    assert parse_poly(GF4, format_poly(p)) == p


def test_form_text_roundtrip():
    for text in ("x1^2+x1*x2+x2^2", "x2", "x1", "x1+x2", "x2^3", "0", "1"):
        assert format_form(parse_form(GF2, text)) == text
    g = parse_form(GF4, "{2}*x1*x2+{3}*x2^2")
    assert format_form(g) == "{2}*x1*x2+{3}*x2^2"
    with pytest.raises(PolyError):
        parse_form(GF2, "x1^2+x2")  # not homogeneous


def test_point_order_eps_first():
    x1 = BinaryForm.x1(GF2)
    x2 = BinaryForm.x2(GF2)
    x12 = parse_form(GF2, "x1+x2")
    keys = sorted([point_sort_key(p) for p in (x12, x1, EPS, x2)])
    assert keys[0] == point_sort_key(EPS)
    assert keys[1] == point_sort_key(x2)
    assert keys[2] == point_sort_key(x1)
    assert keys[3] == point_sort_key(x12)
