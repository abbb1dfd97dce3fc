"""Classification engine: validation, Pfaffian, invariants, decomposition."""

import random

import pytest

from altpairs import pencil
from altpairs.blocks import (
    AlternatingPair,
    build_finite,
    build_infinity,
    build_plus,
    direct_sum,
)
from altpairs.field import FieldError, FieldSpec, _Computed
from altpairs.linalg import Mat
from altpairs.pencil import (
    ClassFunction,
    assemble,
    congruent,
    decompose,
    pfaffian_form,
    validate,
)
from altpairs.polyring import (
    EPS,
    BinaryForm,
    monic_irreducibles,
    parse_poly,
    point_from_poly,
)

from conftest import (
    GF2,
    GF4,
    GF16,
    GF512,
    KroneckerInvariants,
    class_function_from_json,
    embed,
    form_value,
    parse_form,
    kronecker_invariants,
    kronecker_reference,
    pfaffian_interpolation_reference,
    pfaffian_of_class,
    random_alternating_pair,
    random_class_function,
    random_invertible,
    transform_congruence,
)


def tp(text, spec=GF2):
    return parse_poly(spec, text)


# -- validation -------------------------------------------------------------------


def test_validate_canonical_block():
    assert validate(build_infinity(2)).ok


def test_validate_nonzero_diagonal():
    pair = AlternatingPair(
        Mat.from_rows(GF2, [[0, 0], [0, 1]]), Mat.zeros(GF2, 2, 2)
    )
    report = validate(pair)
    assert not report.ok
    assert report.matrix == "A"
    assert report.position == (1, 1)


def test_validate_asymmetric_b():
    a = Mat.zeros(GF2, 2, 2)
    b = Mat.from_rows(GF2, [[0, 1], [0, 0]])
    report = validate(AlternatingPair(a, b))
    assert not report.ok
    assert report.matrix == "B"


# -- Pfaffian ----------------------------------------------------------------------


def checked_pfaffian(pair):
    """pfaffian_form, cross-checked against the interpolation reference."""
    pf = pfaffian_form(pair)
    assert pf == pfaffian_interpolation_reference(pair)
    return pf


def test_pfaffian_infinity_blocks():
    for n in range(1, 9):
        expected = parse_form(GF2, "x2" if n == 1 else f"x2^{n}")
        assert checked_pfaffian(build_infinity(n)) == expected


def test_pfaffian_finite_blocks_power_of_point():
    for d in (1, 2, 3):
        for f in monic_irreducibles(GF2, d):
            for n in range(1, 8 // d + 1):
                expected = point_from_poly(f).power(n)
                assert checked_pfaffian(build_finite(f, n)) == expected


def test_pfaffian_t_block_is_x1():
    assert checked_pfaffian(build_finite(tp("t"), 1)) == BinaryForm.x1(GF2)


def test_pfaffian_odd_block_zero():
    assert checked_pfaffian(build_plus(1)).is_zero()
    assert checked_pfaffian(build_plus(0)).is_zero()


def test_pfaffian_empty_pair_is_one():
    zero = direct_sum([], spec=GF2)
    assert checked_pfaffian(zero).coeffs == (1,)


def test_pfaffian_square_matches_determinant():
    # independent oracle: evaluate det(aA + bB) on extension points in both
    # charts and compare with the squared Pfaffian value
    rng = random.Random(77)
    for spec in (GF2, GF4):
        ext = FieldSpec.gf(spec.k * (3 if spec.k == 2 else 4))
        emb = embed(spec, ext)
        for _ in range(30):
            n = rng.randrange(1, 13)
            pair = random_alternating_pair(spec, rng, n)
            pf = checked_pfaffian(pair)
            a_ext = Mat.from_rows(ext, [[emb.map(v) for v in r] for r in pair.a.rows], n)
            b_ext = Mat.from_rows(ext, [[emb.map(v) for v in r] for r in pair.b.rows], n)
            pf_ext = BinaryForm.make(ext, tuple(emb.map(c) for c in pf.coeffs))
            for _ in range(2 * n + 3):
                x1 = rng.randrange(ext.order)
                x2 = rng.randrange(ext.order)
                detval = (a_ext.scale(x1) + b_ext.scale(x2)).det()
                pv = form_value(pf_ext, x1, x2) if not pf_ext.is_zero() else 0
                assert ext.mul(pv, pv) == detval


def test_pfaffian_rejects_invalid_pair():
    bad = AlternatingPair(Mat.from_rows(GF2, [[0, 1], [0, 0]]), Mat.zeros(GF2, 2, 2))
    with pytest.raises(Exception):
        pfaffian_form(bad)


# -- Kronecker invariants ------------------------------------------------------------


def test_invariants_plus_block():
    inv = kronecker_invariants(build_plus(1))
    assert inv.minimal_indices == (1,)
    assert inv.elementary_divisors == ()


def test_invariants_finite_block():
    inv = kronecker_invariants(build_finite(tp("t^2+t+1"), 1))
    assert inv.minimal_indices == ()
    assert dict(inv.elementary_divisors) == {(point_from_poly(tp("t^2+t+1")), 1): 2}


def test_invariants_infinity_block():
    inv = kronecker_invariants(build_infinity(2))
    assert inv.minimal_indices == ()
    assert dict(inv.elementary_divisors) == {(BinaryForm.x2(GF2), 2): 2}


def test_invariants_mixed_sum():
    pair = direct_sum([build_plus(0), build_plus(2), build_infinity(1)])
    inv = kronecker_invariants(pair)
    assert inv.minimal_indices == (0, 2)
    assert dict(inv.elementary_divisors) == {(BinaryForm.x2(GF2), 1): 2}


def checked_invariants(pair):
    """kronecker_invariants, cross-checked against the two-pass reference."""
    inv = kronecker_invariants(pair)
    assert inv == kronecker_reference(pair)
    return inv


def scrambled(spec, rng, blocks):
    """The canonical sum of ``blocks`` ((point, n) -> mult) under a random
    congruence."""
    pair = assemble(ClassFunction.from_dict(spec, blocks))
    return transform_congruence(pair, random_invertible(spec, rng, pair.dim))


def divisor_points(inv):
    return {point for (point, _), _ in inv.elementary_divisors}


INVARIANT_FIELDS = [GF2, GF4, GF16, GF512]


@pytest.mark.parametrize("spec", INVARIANT_FIELDS, ids=lambda s: f"k{s.k}")
def test_invariants_match_reference_random_pairs(spec):
    rng = random.Random(0x3A11 + spec.k)
    top = 13 if spec.k < 9 else 7
    for n in range(top):
        checked_invariants(random_alternating_pair(spec, rng, n))
        if n >= 1:
            assert checked_invariants(_rank_deficient_pair(spec, rng, n)).minimal_indices


@pytest.mark.parametrize("spec", INVARIANT_FIELDS, ids=lambda s: f"k{s.k}")
def test_invariants_match_reference_long_chains(spec):
    # eps >= 5 and x2 blocks of size >= 3: Wong sequences of six or more steps
    rng = random.Random(0xC4A1 + spec.k)
    x2, x1 = BinaryForm.x2(spec), BinaryForm.x1(spec)
    cases = [
        {(EPS, 6): 1},
        {(EPS, 6): 1, (EPS, 1): 1, (x2, 3): 1},
        {(EPS, 7): 1, (x2, 4): 1, (x1, 1): 1},
        {(x2, 3): 2, (x2, 1): 1},
    ]
    if spec.k < 9:
        f = next(monic_irreducibles(spec, 2))
        cases.append({(EPS, 6): 1, (x2, 3): 1, (point_from_poly(f), 1): 1})
    for blocks in cases:
        inv = checked_invariants(scrambled(spec, rng, blocks))
        eps_sizes = sorted(n - 1 for (p, n), m in blocks.items() if p is EPS for _ in range(m))
        assert list(inv.minimal_indices) == eps_sizes


@pytest.mark.parametrize("spec", INVARIANT_FIELDS, ids=lambda s: f"k{s.k}")
def test_invariants_match_reference_divisor_at_zero(spec):
    # eps blocks, x2 divisors and divisors at t = 0 together: the minimal
    # indices come from W(B, A) less the divisors at t = 0
    rng = random.Random(0x7E0 + spec.k)
    x2, x1 = BinaryForm.x2(spec), BinaryForm.x1(spec)
    for _ in range(6 if spec.k < 9 else 2):
        blocks = {
            (EPS, rng.randrange(1, 5)): 1,
            (x2, rng.randrange(1, 4)): rng.randrange(1, 3),
            (x1, rng.randrange(1, 4)): 1,
        }
        if rng.randrange(2):
            blocks[(x1, rng.randrange(1, 3))] = 1
        inv = checked_invariants(scrambled(spec, rng, blocks))
        assert inv.minimal_indices
        assert {x1, x2} <= divisor_points(inv)


def test_invariants_match_reference_all_gf2_points():
    # GF(2) has three rational points; here x2, x1 (t) and t + 1 all carry
    # divisors, with and without eps blocks
    rng = random.Random(0x6F2)
    x2, x1 = BinaryForm.x2(GF2), BinaryForm.x1(GF2)
    x1x2 = point_from_poly(tp("t+1"))
    for eps in (None, 0, 2, 5):
        for _ in range(3):
            blocks = {
                (x2, rng.randrange(1, 4)): 1,
                (x1, rng.randrange(1, 3)): 1,
                (x1x2, rng.randrange(1, 3)): rng.randrange(1, 3),
            }
            if eps is not None:
                blocks[(EPS, eps + 1)] = 1
            inv = checked_invariants(scrambled(GF2, rng, blocks))
            assert {x2, x1, x1x2} <= divisor_points(inv)


@pytest.mark.parametrize("spec", INVARIANT_FIELDS, ids=lambda s: f"k{s.k}")
def test_invariants_edge_cases(spec):
    assert checked_invariants(direct_sum([], spec=spec)) == KroneckerInvariants((), ())
    for n in (1, 2, 5):
        zero = AlternatingPair(Mat.zeros(spec, n, n), Mat.zeros(spec, n, n))
        inv = checked_invariants(zero)
        assert inv.minimal_indices == (0,) * n
        assert inv.elementary_divisors == ()


def test_invariants_one_smith_pass_and_one_factor_call(monkeypatch):
    calls = {"smith": 0, "factor": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pencil, "smith_form", counted("smith", pencil.smith_form))
    monkeypatch.setattr(pencil, "factor", counted("factor", pencil.factor))
    rng = random.Random(0x1CA11)
    x2, x1 = BinaryForm.x2(GF4), BinaryForm.x1(GF4)
    pairs = [
        random_alternating_pair(GF4, rng, 10),
        _rank_deficient_pair(GF4, rng, 9),
        scrambled(GF4, rng, {(EPS, 3): 1, (x2, 2): 1, (x1, 2): 1}),
        assemble(random_class_function(GF4, rng, 16)),
    ]
    for pair in pairs:
        calls.update(smith=0, factor=0)
        kronecker_invariants(pair)
        assert calls["smith"] == 1
        assert calls["factor"] <= 1


# -- decomposition --------------------------------------------------------------------


def test_decompose_zero_pair():
    pair = AlternatingPair(Mat.zeros(GF2, 2, 2), Mat.zeros(GF2, 2, 2))
    rho = decompose(pair)
    assert rho.get(EPS, 1) == 2
    assert rho.total_dim == 2


def test_decompose_mixed_example():
    pair = direct_sum([build_finite(tp("t"), 1), build_infinity(1)])
    rho = decompose(pair)
    assert rho.get(BinaryForm.x1(GF2), 1) == 1
    assert rho.get(BinaryForm.x2(GF2), 1) == 1


def test_decompose_congruence_invariance():
    rng = random.Random(3)
    pair = build_finite(tp("t^2+t+1"), 2)
    rho = decompose(pair)
    for _ in range(5):
        s = random_invertible(GF2, rng, pair.dim)
        assert decompose(transform_congruence(pair, s)) == rho
    assert rho.get(point_from_poly(tp("t^2+t+1")), 2) == 1


def test_decompose_roundtrip_random():
    rng = random.Random(8)
    for spec in (GF2, GF4):
        for _ in range(25):
            rho = random_class_function(spec, rng, 20)
            pair = assemble(rho)
            if pair.dim == 0:
                assert rho.total_dim == 0
                continue
            s = random_invertible(spec, rng, pair.dim)
            assert decompose(transform_congruence(pair, s)) == rho


def test_congruent_basic():
    rng = random.Random(10)
    pair = random_alternating_pair(GF2, rng, 5)
    s = random_invertible(GF2, rng, 5)
    assert congruent(pair, transform_congruence(pair, s))
    assert not congruent(build_finite(tp("t"), 1), build_infinity(1))


def test_congruent_rejects_mixed_fields():
    with pytest.raises(FieldError):
        congruent(build_infinity(1), build_infinity(1, GF4))


def test_degenerate_iff_x2_or_eps_blocks():
    rng = random.Random(21)
    for _ in range(40):
        rho = random_class_function(GF2, rng, 12)
        pair = assemble(rho)
        if pair.dim == 0:
            continue
        degenerate_entries = any(
            (p is EPS) or p.coeffs == (1, 0) for p, _, _ in rho.entries
        )
        assert pair.a.is_invertible() == (not degenerate_entries)


def test_pfaffian_recoverable_from_class_function():
    rng = random.Random(12)
    for _ in range(25):
        rho = random_class_function(GF2, rng, 16)
        if any(p is EPS for p, _, _ in rho.entries):
            continue
        pair = assemble(rho)
        assert checked_pfaffian(pair) == pfaffian_of_class(rho)


def _rank_deficient_pair(spec, rng, n):
    """A random n x n pair whose pencil has rank below n: a random pair of
    smaller dimension plus a zero or eps block, scrambled by a basis change."""
    eps = rng.randrange(0, 2) if n >= 3 else 0
    core = random_alternating_pair(spec, rng, n - (2 * eps + 1))
    pair = direct_sum([core, build_plus(eps, spec)])
    return transform_congruence(pair, random_invertible(spec, rng, n))


def test_pfaffian_matches_interpolation_random():
    rng = random.Random(0x9FAF)
    for k in (1, 2, 3, 4):
        spec = FieldSpec.gf(k)
        for n in range(15):
            for _ in range(2):
                checked_pfaffian(random_alternating_pair(spec, rng, n))
            if n >= 1:
                assert checked_pfaffian(_rank_deficient_pair(spec, rng, n)).is_zero()


def _invertible_a_pair(spec, rng, n):
    while True:
        pair = random_alternating_pair(spec, rng, n)
        if pair.a.rank() == n:
            return pair


@pytest.mark.parametrize("spec", [GF2, GF4, GF16, GF512], ids=str)
def test_pfaffian_routes_match_interpolation(spec, monkeypatch):
    # A invertible goes through the Krylov characteristic polynomial; A
    # singular keeps the Smith pass, for a regular pencil (an x2 divisor) and
    # for a singular one (an eps block)
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(pencil, "_charpoly", counted("krylov", pencil._charpoly))
    monkeypatch.setattr(pencil, "_smith_diagonal", counted("smith", pencil._smith_diagonal))

    def route(pair):
        calls.clear()
        return checked_pfaffian(pair), calls

    rng = random.Random(0x2F + spec.k)
    for n in (2, 4, 6, 8, 10):
        pf, ran = route(transform_congruence(_invertible_a_pair(spec, rng, n), random_invertible(spec, rng, n)))
        assert ran == ["krylov"] and pf.poly.degree == pf.degree == n // 2
        pair = direct_sum([_invertible_a_pair(spec, rng, n - 2), build_infinity(1, spec)])
        pf, ran = route(transform_congruence(pair, random_invertible(spec, rng, n)))
        assert ran == ["smith"] and pf.poly.degree == pf.degree - 1 == n // 2 - 1
        pf, ran = route(_rank_deficient_pair(spec, rng, n))
        assert ran == ["smith"] and pf.is_zero()


def test_pfaffian_matches_interpolation_scrambled_canonical_sums():
    # det S != 1 scales the Pfaffian by det S, so sqrt(c) is not 1
    rng = random.Random(0x5C4A)
    for spec, count in ((GF4, 12), (FieldSpec.gf(4), 6)):
        seen_eps = seen_scaled = False
        for _ in range(count):
            rho = random_class_function(spec, rng, 12, max_deg=2)
            pair = assemble(rho)
            if pair.dim == 0:
                continue
            while True:
                s = random_invertible(spec, rng, pair.dim)
                det_s = s.det()
                if det_s != 1:
                    break
            pf = checked_pfaffian(transform_congruence(pair, s))
            if any(p is EPS for p, _, _ in rho.entries):
                seen_eps = True
                assert pf.is_zero()
            else:
                seen_scaled = True
                assert pf == pfaffian_of_class(rho).scale(det_s)
        assert seen_eps and seen_scaled


def test_pfaffian_matches_interpolation_without_mul_table():
    spec = FieldSpec.gf(9)
    assert isinstance(spec.mul_table, _Computed)
    rng = random.Random(0x209)
    for n in (2, 4, 5, 6):
        checked_pfaffian(random_alternating_pair(spec, rng, n))
    pair = direct_sum([build_infinity(2, spec), build_infinity(1, spec)])
    s = random_invertible(spec, rng, pair.dim)
    expected = BinaryForm.x2(spec).power(3).scale(s.det())
    assert checked_pfaffian(transform_congruence(pair, s)) == expected


# -- class function plumbing -----------------------------------------------------------


def test_class_function_json_roundtrip():
    rng = random.Random(14)
    for spec in (GF2, GF4):
        for _ in range(10):
            rho = random_class_function(spec, rng, 16)
            assert class_function_from_json(spec, rho.to_json_dict()) == rho


def test_class_function_ordering_eps_first():
    rho = ClassFunction.from_dict(
        GF2,
        {
            (BinaryForm.x1(GF2), 1): 1,
            (EPS, 2): 1,
            (BinaryForm.x2(GF2), 1): 1,
            (EPS, 1): 2,
        },
    )
    kinds = [p is EPS for p, _, _ in rho.entries]
    assert kinds == [True, True, False, False]
    # x2 sorts before x1
    non_eps = [p for p, _, _ in rho.entries if p is not EPS]
    assert non_eps[0].coeffs == (1, 0)


def test_class_function_total_dim():
    rho = ClassFunction.from_dict(
        GF2,
        {
            (EPS, 2): 1,  # dim 3
            (BinaryForm.x2(GF2), 2): 1,  # dim 4
            (point_from_poly(tp("t^2+t+1")), 1): 2,  # dim 8
        },
    )
    assert rho.total_dim == 15
    assert assemble(rho).dim == 15


def test_assemble_respects_field():
    rho = random_class_function(GF4, random.Random(2), 12)
    pair = assemble(rho)
    assert pair.spec == GF4
    assert decompose(pair) == rho
