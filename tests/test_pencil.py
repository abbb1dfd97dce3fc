"""Classification engine: validation, Pfaffian, invariants, decomposition."""

import random

import pytest

from altpairs import linalg, pencil
from altpairs.blocks import (
    AlternatingPair,
    build_finite,
    build_infinity,
    build_plus,
    direct_sum,
)
from altpairs.field import FieldError, FieldSpec, _Computed
from altpairs.linalg import Mat, _front, _kernel_images
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
    charpoly_reference,
    class_function_from_json,
    embed,
    form_value,
    parse_form,
    kronecker_invariants,
    kronecker_reference,
    krylov_degree_reference,
    krylov_mutants,
    mutant,
    pfaffian_interpolation_reference,
    pfaffian_of_class,
    random_alternating_pair,
    random_class_function,
    random_invertible,
    random_irreducible,
    smith_blocks_reference,
    smith_reference,
    submatrix,
    transform_congruence,
    wong_dims_reference,
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
    # decompose takes no Smith pass and factors once at most, the square root
    # h of the A-invertible part; the Smith route it replaced, kept as the
    # reference, still takes its one Smith pass per pair
    calls = _route_log(monkeypatch)
    rng = random.Random(0x1CA11)
    x2, x1 = BinaryForm.x2(GF4), BinaryForm.x1(GF4)
    pairs = [
        random_alternating_pair(GF4, rng, 10),
        _rank_deficient_pair(GF4, rng, 9),
        scrambled(GF4, rng, {(EPS, 3): 1, (x2, 2): 1, (x1, 2): 1}),
        assemble(random_class_function(GF4, rng, 16)),
        _invertible_a_pair(GF4, rng, 10),
        scrambled(GF4, rng, {(x1, 2): 2, (x1, 1): 1}),
    ]
    for pair in pairs:
        calls.clear()
        rho = decompose(pair)
        assert "smith" not in calls and calls.count("factor") <= 1
        assert calls.count("_wong_dims") == (pair.a.rank() < pair.dim)
        calls.clear()
        assert smith_blocks_reference(pair) == rho
        assert calls.count("smith") == 1


# -- the Krylov route of decompose (A invertible) --------------------------------------


def _route_log(monkeypatch):
    """The kernels that ``decompose`` and ``pfaffian_form`` call, by name, in
    call order, with every Smith elimination logged as "smith"."""
    calls = []
    for name in ("_charpoly_root", "_nullities", "_split", "_wong_dims", "factor"):
        fn = getattr(pencil, name)
        monkeypatch.setattr(pencil, name, lambda *a, fn=fn, name=name, **kw: calls.append(name) or fn(*a, **kw))
    smith = linalg._smith_diagonal
    monkeypatch.setattr(linalg, "_smith_diagonal", lambda *args: calls.append("smith") or smith(*args))
    return calls


def _repeated_divisor_blocks(spec, rng):
    """Regular shapes with A invertible: several pairs at one f of degree
    1-3, mixed sizes at one f, divisors at t = 0 (x1), and one shape whose
    exponents in sqrt(chi) are all 1."""
    x1 = BinaryForm.x1(spec)
    f1, f2, f3 = (point_from_poly(random_irreducible(spec, rng, d)) for d in (1, 2, 3))
    return [
        {(f1, 1): 3},
        {(f1, 2): 2, (f1, 1): 1},
        {(f2, 1): 2},
        {(f2, 2): 2},
        {(f2, 1): 1, (f2, 2): 1, (f2, 3): 1},
        {(f3, 1): 2},
        {(f3, 2): 1, (f3, 1): 1},
        {(x1, 1): 2},
        {(x1, 2): 2, (x1, 1): 1, (f2, 1): 1},
        {(x1, 3): 1, (f1, 2): 2},
        {(x1, 1): 1, (f2, 1): 1, (f3, 1): 1},
    ]


@pytest.mark.parametrize("spec", INVARIANT_FIELDS, ids=lambda s: f"k{s.k}")
def test_krylov_route_repeated_divisors(spec, monkeypatch):
    # the Krylov route against the reference and against the Smith route on
    # the same pair; h is factored once, and the kernels of powers of f(M)
    # run once for each f of exponent >= 2 in sqrt(chi)
    rng = random.Random(0x4E7 + spec.k)
    calls = _route_log(monkeypatch)
    for blocks in _repeated_divisor_blocks(spec, rng):
        rho = ClassFunction.from_dict(spec, blocks)
        pair = scrambled(spec, rng, blocks)
        calls.clear()
        assert decompose(pair) == rho
        exponents = {}
        for (point, e), m in blocks.items():
            exponents[point] = exponents.get(point, 0) + e * m
        assert calls == ["_charpoly_root", "factor"] + ["_nullities"] * sum(e >= 2 for e in exponents.values())
        assert smith_blocks_reference(pair) == rho
        assert kronecker_invariants(pair) == kronecker_reference(pair)


@pytest.mark.parametrize("k", [1, 2, 4, 8, 9])
def test_routes_agree_on_random_pairs(k, monkeypatch):
    # 60 random pairs per field, dims 6-16: A invertible takes the Krylov
    # route, A singular the Wong split (one walk); neither calls Smith, and
    # both agree with the Smith route and with the reference
    spec = FieldSpec.gf(k)
    rng = random.Random(11)
    calls = _route_log(monkeypatch)
    routes = set()
    for _ in range(60):
        pair = random_alternating_pair(spec, rng, rng.randrange(6, 17))
        rank_a = pair.a.rank()
        calls.clear()
        rho = decompose(pair)
        route = "_charpoly_root" if rank_a == pair.dim else "_split"
        assert calls[0] == route and calls.count("_wong_dims") == (route == "_split")
        assert "smith" not in calls and calls.count("factor") <= 1
        routes.add(route)
        assert smith_blocks_reference(pair) == rho
        assert kronecker_invariants(pair) == kronecker_reference(pair)
    assert routes == {"_charpoly_root", "_split"}


@pytest.mark.parametrize("label", ["_charpoly", "_nullities"])
@pytest.mark.parametrize("spec", INVARIANT_FIELDS, ids=lambda s: f"k{s.k}")
def test_krylov_route_mutants_raise(spec, label, monkeypatch):
    # each mutant fails an invariant (AssertionError, CLI exit 3) on every
    # shape that reaches it, and never returns a class function; the
    # Pfaffian, which shares the Krylov sequences, refuses the first one too
    rng = random.Random(0x3C7 + spec.k)
    name, broken = krylov_mutants()[label]
    monkeypatch.setattr(pencil, name, broken)
    calls = _route_log(monkeypatch)
    reached = 0
    for blocks in _repeated_divisor_blocks(spec, rng):
        pair = scrambled(spec, rng, blocks)
        calls.clear()
        try:
            rho = decompose(pair)
        except AssertionError:
            reached += 1
        else:
            assert name not in calls, rho
        if label == "_charpoly":
            with pytest.raises(AssertionError):
                pfaffian_form(pair)
    assert reached >= 10


def _charpoly_root_cases(spec, rng):
    """A-invertible pairs for both branches of ``pencil._charpoly_root``:
    random pairs (the first Krylov sequence nearly always reaches dim/2), the
    repeated-divisor shapes and M = f(0) I at dim 4 (C(f) + C(f) for N) under
    a congruence, and canonical sums, where e_0 is an eigenvector of M."""
    f1, f2 = (point_from_poly(random_irreducible(spec, rng, d)) for d in (1, 2))
    shapes = _repeated_divisor_blocks(spec, rng) + [{(f1, 1): 2}]
    pairs = [_invertible_a_pair(spec, rng, n) for n in (2, 4, 6, 8, 10, 12) for _ in range(2)]
    pairs += [scrambled(spec, rng, blocks) for blocks in shapes]
    sums = [{(f1, 1): 2}, {(f1, 1): 1, (f2, 1): 1}, {(f1, 1): 1, (f2, 2): 1}, {(f2, 1): 1, (f1, 2): 1}]
    return pairs + [assemble(ClassFunction.from_dict(spec, blocks)) for blocks in sums]


def _charpoly_root_mismatches(spec, seed):
    """Where ``pencil._charpoly_root`` disagrees with the square root of
    det(t*I + M) by entries or ``pfaffian_form`` with the interpolation
    reference, as (shortcut taken, error message or "differs"), and for each
    case whether the first Krylov sequence closes at dim/2, from the degree
    of the minimal polynomial of e_0 by entries."""
    pk, rng = spec.packing, random.Random(seed)
    mismatches, shortcuts = [], []
    for pair in _charpoly_root_cases(spec, rng):
        n = pair.dim
        m = Mat(tuple(_front(pk, pair.a.packed, pair.b.packed)[2]), n, spec)
        shortcuts.append(2 * krylov_degree_reference(m) == n)
        try:
            h = pencil._charpoly_root(spec, list(m.packed))
            same = h * h == charpoly_reference(m)
            same = same and pfaffian_form(pair) == pfaffian_interpolation_reference(pair)
        except AssertionError as exc:
            mismatches.append((shortcuts[-1], str(exc)))
        else:
            if not same:
                mismatches.append((shortcuts[-1], "differs"))
    return mismatches, shortcuts


@pytest.mark.parametrize("k", [1, 2, 4, 9], ids=lambda k: f"k{k}")
def test_charpoly_root_matches_references(k):
    # h from the first Krylov sequence when it closes at dim/2, and from the
    # square root of the whole characteristic polynomial otherwise, against
    # that square root and the Pfaffian against interpolation; both branches
    # are taken
    mismatches, shortcuts = _charpoly_root_mismatches(FieldSpec.gf(k), 0x3E5 + k)
    assert not mismatches
    assert shortcuts.count(True) >= 12 and shortcuts.count(False) >= 8


@pytest.mark.parametrize("name", ["_charpoly", "_krylov", "_charpoly_root"])
@pytest.mark.parametrize("k", [1, 2, 4, 9], ids=lambda k: f"k{k}")
def test_charpoly_root_mutants_are_killed(k, name, monkeypatch):
    # the differential above fails under each mutant of krylov_mutants that
    # reaches _charpoly_root; a flipped constant in the first polynomial
    # raises on every case, on either branch, and on the shortcut it is the
    # check that h(M) kills the second start
    monkeypatch.setattr(pencil, *krylov_mutants()[name])
    mismatches, shortcuts = _charpoly_root_mismatches(FieldSpec.gf(k), 0x3E5 + k)
    assert mismatches
    if name == "_krylov":
        assert len(mismatches) == len(shortcuts) and "differs" not in {why for _, why in mismatches}
        check = "h(M) or the first sequence's polynomial does not kill a Krylov start"
        assert [why for short, why in mismatches if short] == [check] * shortcuts.count(True)


# -- decomposition --------------------------------------------------------------------


def test_decompose_zero_pair():
    pair = AlternatingPair(Mat.zeros(GF2, 2, 2), Mat.zeros(GF2, 2, 2))
    rho = decompose(pair)
    assert (EPS, 1, 2) in rho.entries
    assert rho.total_dim == 2


def test_decompose_mixed_example():
    pair = direct_sum([build_finite(tp("t"), 1), build_infinity(1)])
    rho = decompose(pair)
    assert (BinaryForm.x1(GF2), 1, 1) in rho.entries
    assert (BinaryForm.x2(GF2), 1, 1) in rho.entries


def test_decompose_congruence_invariance():
    rng = random.Random(3)
    pair = build_finite(tp("t^2+t+1"), 2)
    rho = decompose(pair)
    for _ in range(5):
        s = random_invertible(GF2, rng, pair.dim)
        assert decompose(transform_congruence(pair, s)) == rho
    assert (point_from_poly(tp("t^2+t+1")), 2, 1) in rho.entries


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
    # A invertible goes through the Krylov characteristic polynomial alone;
    # with A singular the Wong walk decides: a singular pencil (an eps block)
    # is zero, and a regular one (an x2 divisor) takes the split to the
    # Krylov sequences of A_Y^-1 B_Y; no route calls Smith or factor
    calls = _route_log(monkeypatch)

    def route(pair):
        calls.clear()
        return checked_pfaffian(pair), calls

    rng = random.Random(0x2F + spec.k)
    for n in (2, 4, 6, 8, 10):
        pf, ran = route(transform_congruence(_invertible_a_pair(spec, rng, n), random_invertible(spec, rng, n)))
        assert ran == ["_charpoly_root"] and pf.poly.degree == pf.degree == n // 2
        pair = direct_sum([_invertible_a_pair(spec, rng, n - 2), build_infinity(1, spec)])
        pf, ran = route(transform_congruence(pair, random_invertible(spec, rng, n)))
        assert ran == ["_split", "_wong_dims", "_charpoly_root"] and pf.poly.degree == pf.degree - 1 == n // 2 - 1
        pf, ran = route(_rank_deficient_pair(spec, rng, n))
        assert ran == ["_split", "_wong_dims"] and pf.is_zero()


def _wong_shapes(spec, rng):
    """Pencils with A singular: eps blocks with eps = 0 (found singular at
    the first Wong step) and up to eps = 5, x2 chains up to length 8 without
    eps blocks (regular), eps blocks beside a longer x2 chain, and regular
    pencils with both A and B singular (x2 and x1 divisors)."""
    x1, x2 = BinaryForm.x1(spec), BinaryForm.x2(spec)
    f1, f2 = (point_from_poly(random_irreducible(spec, rng, d)) for d in (1, 2))
    return [
        {(EPS, 1): 1},
        {(EPS, 1): 2, (f1, 1): 1},
        {(EPS, 1): 1, (EPS, 2): 1, (x2, 1): 1},
        {(EPS, 1): 1, (f2, 2): 1},
        {(EPS, 2): 2},
        {(EPS, 3): 1, (EPS, 5): 1, (f1, 1): 1},
        {(EPS, 5): 2},
        {(EPS, 6): 1, (x2, 2): 1, (x1, 1): 1},
        {(x2, 1): 1},
        {(x2, 3): 1, (x2, 1): 2, (f2, 1): 1},
        {(x2, 5): 1, (x2, 2): 1, (f1, 2): 1},
        {(x2, 8): 1},
        {(EPS, 2): 2, (x2, 6): 1},
        {(EPS, 1): 1, (EPS, 3): 1, (x2, 8): 1},
        {(x2, 2): 1, (x1, 1): 1},
        {(x2, 1): 1, (x1, 3): 1, (f2, 1): 1},
    ]


def _walk(pair, injective=False):
    """``pencil._wong_dims`` on the front of a pair with A singular."""
    pk = pair.spec.packing
    pivots, _, front = pencil._front(pk, pair.a.packed, pair.b.packed)
    assert len(pivots) < pair.dim
    return pencil._wong_dims(pk, pivots, front, pair.b.packed, injective)


def _wong_singularity_mismatches(spec, seed):
    """The shapes of ``_wong_shapes``, scrambled, on which the Wong decision
    of ``pfaffian_form`` (``_wong_dims`` returns None) differs from a Smith
    rank below n in ``smith_reference``."""
    rng = random.Random(seed)
    wrong = []
    for blocks in _wong_shapes(spec, rng):
        pair = scrambled(spec, rng, blocks)
        singular = _walk(pair, injective=True) is None
        if singular != (len(smith_reference(pair.a, pair.b)) < pair.dim):
            wrong.append(blocks)
    return wrong


@pytest.mark.parametrize("spec", INVARIANT_FIELDS, ids=lambda s: f"k{s.k}")
def test_wong_singularity_matches_smith_rank(spec, monkeypatch):
    # the decision against the Smith rank of the reference and the minimal
    # indices of the Kronecker reference; a regular pencil's walk runs to
    # the limit, the longest x2 chain.  The walk eliminates nothing: on a
    # singular pencil pfaffian_form runs one elimination, the front's, and
    # on a regular one the split adds the kernel of W*'s B-images, the
    # pivots of two Gram matrices, two sub-fronts and det S.  An elimination
    # is a call of pencil._rref or of pencil._front, whose _rref runs in
    # linalg (patching linalg._rref would count the reference's ranks too)
    seed = 0x3B9 + spec.k
    assert _wong_singularity_mismatches(spec, seed) == []
    kernels, rrefs = [], []
    kernel_images, rref, front = pencil._kernel_images, pencil._rref, pencil._front
    monkeypatch.setattr(pencil, "_kernel_images", lambda *args: kernels.append(1) or kernel_images(*args))
    monkeypatch.setattr(pencil, "_rref", lambda *a, **kw: rrefs.append(1) or rref(*a, **kw))
    monkeypatch.setattr(pencil, "_front", lambda *args: rrefs.append(1) or front(*args))
    calls = _route_log(monkeypatch)
    rng = random.Random(seed)
    x2 = BinaryForm.x2(spec)
    for blocks in _wong_shapes(spec, rng):
        pair = scrambled(spec, rng, blocks)
        eps = [n for (p, n) in blocks if p is EPS]
        pk = pair.spec.packing
        pivots, _, rows = front(pk, pair.a.packed, pair.b.packed)
        kernels.clear()
        rrefs.clear()
        walk = pencil._wong_dims(pk, pivots, rows, pair.b.packed, injective=True)
        singular = walk is None
        assert singular == bool(eps) == bool(kronecker_reference(pair).minimal_indices)
        assert not kernels and not rrefs
        if not singular:
            assert len(walk[0]) - 1 == max(n for (p, n) in blocks if p == x2)
        if pair.dim % 2 == 0:
            kernels.clear()
            rrefs.clear()
            calls.clear()
            assert checked_pfaffian(pair).is_zero() == singular
            assert "smith" not in calls
            assert (len(rrefs), len(kernels)) == ((1, 0) if singular else (6, 1))


# _wong_dims without the exit at the first W_i (eps = 0 beside no x2 chain
# found regular), without the free-slot test (constraints taken as new W
# vectors), and with the leading slot of G w taken as its first nonzero slot,
# not its first free one
WONG_MUTANTS = {
    "from-step-2": ("if injective:", "if injective and len(dims) > 2:"),
    "free-slot": ("if u & constraint:", "if False:"),
    "lead-slot": ("lead = u & constraint or u", "lead = u"),
}


@pytest.mark.parametrize("name", list(WONG_MUTANTS))
@pytest.mark.parametrize("spec", INVARIANT_FIELDS, ids=lambda s: f"k{s.k}")
def test_wong_singularity_mutants_disagree(spec, name, monkeypatch):
    monkeypatch.setattr(pencil, "_wong_dims", mutant(pencil._wong_dims, *WONG_MUTANTS[name]))
    assert _wong_singularity_mismatches(spec, 0x3B9 + spec.k)


@pytest.mark.parametrize("k", [1, 2, 4, 9], ids=lambda k: f"k{k}")
def test_wong_walk_matches_reference(k):
    # the staircase walk against the two-elimination walk of the reference
    # on the scrambled shapes and on random pairs with A singular: the same
    # dimensions, the same W* (the two bases stacked have rank dim W*) and
    # the same decision with injective; every A- and B-image the walk
    # carries is the Mat product
    spec = FieldSpec.gf(k)
    pk, rng = spec.packing, random.Random(0x3A1 + k)
    pairs = [scrambled(spec, rng, blocks) for blocks in _wong_shapes(spec, rng)]
    pairs += [_rank_deficient_pair(spec, rng, n) for n in range(1, 15)]
    pairs += [p for p in (random_alternating_pair(spec, rng, n) for n in range(1, 15)) if p.a.rank() < p.dim]
    for pair in pairs:
        n = pair.dim
        dims, basis = _walk(pair)
        ref_dims, ref_rows = wong_dims_reference(pair.a, pair.b)
        assert dims == ref_dims
        low = (1 << n * pk.w) - 1
        vectors = [v & low for v in basis]
        ref_basis = _kernel_images(pk, list(ref_rows), n, [1 << (j * pk.w) for j in range(n)])
        assert len(basis) == len(ref_basis) == dims[-1]
        assert Mat(tuple(vectors + ref_basis), n, spec).rank() == dims[-1]
        for v, x in zip(vectors, basis):
            row = Mat((v,), n, spec)
            assert (row @ pair.a).packed[0] == x >> n * pk.w & low
            assert (row @ pair.b).packed[0] == x >> 2 * n * pk.w
        assert (_walk(pair, injective=True) is None) == (wong_dims_reference(pair.a, pair.b, injective=True) is None)
    assert len(pairs) >= 16 + 14 + 7  # every odd dimension has A singular


@pytest.mark.parametrize("spec", INVARIANT_FIELDS, ids=lambda s: f"k{s.k}")
def test_regular_split_reads_x2_chains_off_the_walk(spec, monkeypatch):
    # U = 0 (no eps block): the walk's chains are the x2 chains, so the
    # kernels of powers of B_X^-1 A_X are skipped and _nullities runs only
    # for the repeated finite divisors of Y
    rng = random.Random(0x7B2 + spec.k)
    calls = _route_log(monkeypatch)
    x2 = BinaryForm.x2(spec)
    regular = [blocks for blocks in _wong_shapes(spec, rng) if not any(p is EPS for p, _ in blocks)]
    for blocks in regular:
        pair = scrambled(spec, rng, blocks)
        calls.clear()
        rho = decompose(pair)
        assert rho == ClassFunction.from_dict(spec, blocks) == smith_blocks_reference(pair)
        exponents = {}
        for (point, e), m in blocks.items():
            if point != x2:
                exponents[point] = exponents.get(point, 0) + e * m
        assert calls.count("_nullities") == sum(e >= 2 for e in exponents.values())
    assert len(regular) >= 6


# -- the Wong split of decompose and pfaffian_form (A singular) -------------------------


@pytest.mark.parametrize("spec", INVARIANT_FIELDS, ids=lambda s: f"k{s.k}")
def test_split_route_wong_shapes(spec, monkeypatch):
    # eps up to 5, x2 chains up to 8 and x1 blocks: the split against the
    # Smith route and the Kronecker reference, with one walk, no Smith and at
    # most one factor call
    rng = random.Random(0x5B1 + spec.k)
    calls = _route_log(monkeypatch)
    for blocks in _wong_shapes(spec, rng):
        pair = scrambled(spec, rng, blocks)
        calls.clear()
        rho = decompose(pair)
        assert rho == ClassFunction.from_dict(spec, blocks)
        assert calls[:2] == ["_split", "_wong_dims"] and calls.count("_wong_dims") == 1
        assert "smith" not in calls and calls.count("factor") <= 1
        assert smith_blocks_reference(pair) == rho
        assert kronecker_invariants(pair) == kronecker_reference(pair)


@pytest.mark.parametrize("spec", INVARIANT_FIELDS, ids=lambda s: f"k{s.k}")
def test_split_congruence(spec):
    # with E = Y^perp_A & X^perp_B (the kernel of Y's A-images and X's
    # B-images), S with rows E, X and Y is invertible; both forms vanish
    # between X and Y, A between E and Y and B between E and X.  E has the
    # dimension of the odd blocks, and the pencil on X (on Y) has the x2
    # (the finite) blocks.  A between E and X and B between E and Y need
    # not vanish: the pivots pick X and Y as complements of the radical U,
    # not as the canonical summands, and for some shapes no complement of
    # X + Y is then orthogonal to it under both forms
    rng = random.Random(0xC06 + spec.k)
    x2 = BinaryForm.x2(spec)
    pk = spec.packing
    for blocks in _wong_shapes(spec, rng):
        pair = scrambled(spec, rng, blocks)
        pivots, _, front = pencil._front(pk, pair.a.packed, pair.b.packed)
        _, (bx, _), _, rows = pencil._split(pair, pivots, front)
        x, y = rows[: len(bx)], rows[len(bx) :]
        cut_out = [r for vs, m in ((y, pair.a), (x, pair.b)) for r in (Mat(tuple(vs), pair.dim, spec) @ m).packed]
        e = _kernel_images(pk, cut_out, pair.dim, [1 << (j * pk.w) for j in range(pair.dim)])
        s = Mat(tuple(e + x + y), pair.dim, spec)
        assert s.is_invertible()
        cut = {"E": range(len(e)), "X": range(len(e), len(e) + len(x)), "Y": range(len(e) + len(x), pair.dim)}
        grams = {}
        for name, m in (("A", pair.a), ("B", pair.b)):
            grams[name] = s @ m @ s.transpose()
            g = grams[name].rows
            zero = [("X", "Y"), ("E", "Y" if name == "A" else "X")]
            assert not any(g[i][j] for p, q in zero for i in cut[p] for j in cut[q])
        parts = {"E": {}, "X": {}, "Y": {}}
        for (point, n), mult in blocks.items():
            parts["E" if point is EPS else "X" if point == x2 else "Y"][(point, n)] = mult
        assert len(e) == sum((2 * n - 1) * m for (_, n), m in parts["E"].items())
        for name in ("X", "Y"):
            sub = AlternatingPair(*(submatrix(grams[f], cut[name], cut[name]) for f in ("A", "B")))
            assert decompose(sub) == ClassFunction.from_dict(spec, parts[name])


# pencil._split with Y' cut out by the B-images of X' alone, which drops the
# rows of the radical U (W*^perp_B then takes in the L_eps^T rows of the odd
# blocks), and with Y's pivots taken from B's Gram matrix, which misses the
# part of Y where B is singular (x1 divisors)
SPLIT_MUTANTS = {
    "radical": ("[v >> 2 * shift for v in top]", "[top[i] >> 2 * shift for i in px]"),
    "pivots": ("py = _rref(pk, list(ya)", "py = _rref(pk, list(yb)"),
}


@pytest.mark.parametrize("name", list(SPLIT_MUTANTS))
@pytest.mark.parametrize("spec", INVARIANT_FIELDS, ids=lambda s: f"k{s.k}")
def test_split_mutants_disagree(spec, name, monkeypatch):
    # each mutant fails an invariant or gives a wrong class on every shape
    # where it changes Y: an eps >= 1 block for the radical, an x1 block
    # for the pivots
    monkeypatch.setattr(pencil, "_split", mutant(pencil._split, *SPLIT_MUTANTS[name]))
    rng = random.Random(0x3D1 + spec.k)
    x1 = BinaryForm.x1(spec)
    reached = 0
    for blocks in _wong_shapes(spec, rng):
        pair = scrambled(spec, rng, blocks)
        bites = {"radical": any(p is EPS and n > 1 for p, n in blocks), "pivots": any(p == x1 for p, _ in blocks)}
        if bites[name]:
            reached += 1
            with pytest.raises(AssertionError):
                assert decompose(pair) == ClassFunction.from_dict(spec, blocks)
    assert reached >= 2


@pytest.mark.parametrize("spec", INVARIANT_FIELDS, ids=lambda s: f"k{s.k}")
def test_pfaffian_split_matches_interpolation(spec):
    # regular pencils with A singular: x2 blocks beside finite and x1
    # blocks, and one x2 chain of length 8, each under a congruence S with
    # det S != 1 where the field has one, so Pf = det S * Pf(canonical sum)
    rng = random.Random(0x5F1 + spec.k)
    x1, x2 = BinaryForm.x1(spec), BinaryForm.x2(spec)
    f1, f2 = (point_from_poly(random_irreducible(spec, rng, d)) for d in (1, 2))
    shapes = [
        {(x2, 1): 1, (f1, 1): 1},
        {(x2, 2): 1, (x1, 1): 1, (f2, 1): 1},
        {(x2, 3): 1, (x2, 1): 1, (x1, 2): 1},
        {(x2, 1): 2, (f1, 2): 1, (f2, 1): 1},
        {(x2, 8): 1},
    ]
    for blocks in shapes:
        rho = ClassFunction.from_dict(spec, blocks)
        pair = assemble(rho)
        while True:
            s = random_invertible(spec, rng, pair.dim)
            if s.det() != 1 or spec.k == 1:
                break
        assert checked_pfaffian(transform_congruence(pair, s)) == pfaffian_of_class(rho).scale(s.det())


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
    assert isinstance(spec.packing.mul_table, _Computed)
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
