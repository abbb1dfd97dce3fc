"""Group presentations, finite models, witness isomorphisms, brute force."""

import random
import re
from dataclasses import replace
from functools import partial

import pytest

from altpairs.blocks import AlternatingPair, build_finite
from altpairs.chernikov import (
    FiniteQuotient,
    IsoObstructionError,
    MAX_ORDER_LOG2,
    PresentationError,
    QuotientMap,
    WitnessError,
    iso_from_witness,
    presentation_from_class,
    presentation_from_tuple,
    verify_quotient_map,
)
from altpairs.linalg import Mat
from altpairs.pencil import ClassFunction, assemble, validate
from altpairs.polyring import EPS, BinaryForm, monic_irreducibles, parse_poly, point_from_poly
from altpairs.weakeq import GL2Element, gl2_enumerate, transform_weak

from conftest import (
    GF2,
    GF4,
    MAX_BRUTE_ORDER,
    apply_reference,
    block_commutators_reference,
    brute_force_isomorphic,
    certificate_reference,
    cocycle_forms,
    commutator,
    elements,
    gl2_swap,
    h_generator,
    inverse,
    is_abelian,
    iso_from_witness_dense,
    map_parts,
    mul_reference,
    mutant,
    order_of_element,
    presentation_matrices,
    random_alternating,
    random_alternating_pair,
    random_class_function,
    random_invertible,
    random_weak_pairs_with_witness,
    socle_element,
    verify_exhaustive,
)


def tp(text):
    return parse_poly(GF2, text)


def rho_of(*entries):
    return ClassFunction.from_dict(GF2, {key: mult for key, mult in entries})


def commutator_vector(pres, i, j):
    """The table entry of [h_i, h_j], i < j; zero when absent."""
    return dict(pres.commutators).get((i, j), (0,) * pres.m)


# -- presentations ---------------------------------------------------------------


def test_presentation_infinity_block():
    pres = presentation_from_class(rho_of(((BinaryForm.x2(GF2), 1), 1)))
    assert pres.num_h == 2
    assert commutator_vector(pres, 0, 1) == (0, 1)  # [h1, h2] = a2


def test_presentation_eps_block_abelian():
    pres = presentation_from_class(rho_of(((EPS, 1), 1)))
    assert pres.num_h == 1
    assert pres.commutators == ()


def test_presentation_quadratic_block_last_column():
    pres = presentation_from_class(rho_of(((point_from_poly(tp("t^2+t+1")), 1), 1)))
    assert pres.num_h == 4
    # [h2, h4] = a1 + lambda_1 a2 with lambda_1 = 1
    assert commutator_vector(pres, 1, 3) == (1, 1)


def test_presentation_matches_block_matrices():
    # the commutator table read off the canonical block matrices equals the
    # hand-written table of conftest for every block of half-dimension <= 4
    cases = []
    for d in (1, 2, 3, 4):
        for f in monic_irreducibles(GF2, d):
            for n in range(1, 4 // d + 1):
                cases.append(rho_of(((point_from_poly(f), n), 1)))
    for n in (1, 2, 3, 4):
        cases.append(rho_of(((BinaryForm.x2(GF2), n), 1)))
    for eps in (0, 1, 2, 3):
        cases.append(rho_of(((EPS, eps + 1), 1)))
    for rho in cases:
        for e in (1, 2, 3):
            assert presentation_from_class(rho, e) == block_commutators_reference(rho, e)


def test_presentation_matches_reference_on_random_classes():
    rng = random.Random(0x7AB1E)
    checked = 0
    while checked < 300:
        rho = random_class_function(GF2, rng, 24, max_eps=3, max_deg=4)
        if sum(mult for _, _, mult in rho.entries) < 2:
            continue
        e = 1 + checked % 3
        assert presentation_from_class(rho, e) == block_commutators_reference(rho, e)
        checked += 1


def test_presentation_from_class_multi_block_offsets():
    # canonical entry order puts the eps block first, then the two x2 blocks
    rho = rho_of(((BinaryForm.x2(GF2), 1), 2), ((EPS, 1), 1))
    pres = presentation_from_class(rho)
    assert pres.num_h == 5
    assert commutator_vector(pres, 1, 2) == (0, 1)
    assert commutator_vector(pres, 3, 4) == (0, 1)
    # cross-block commutators vanish
    assert commutator_vector(pres, 0, 1) == (0, 0)
    assert commutator_vector(pres, 2, 3) == (0, 0)


def test_presentation_from_tuple_single_matrix():
    a = Mat.from_rows(GF2, [[0, 1], [1, 0]])
    pres = presentation_from_tuple([a])
    assert pres.m == 1
    assert commutator_vector(pres, 0, 1) == (1,)


def test_presentation_from_tuple_zero_is_abelian():
    pres = presentation_from_tuple([Mat.zeros(GF2, 3, 3), Mat.zeros(GF2, 3, 3)])
    assert pres.commutators == ()


def test_presentation_from_tuple_triple():
    mats = [Mat.zeros(GF2, 2, 2) for _ in range(3)]
    mats[2] = Mat.from_rows(GF2, [[0, 1], [1, 0]])
    pres = presentation_from_tuple(mats)
    assert pres.m == 3
    assert commutator_vector(pres, 0, 1) == (0, 0, 1)


def test_presentation_from_tuple_rejects_bad_input():
    with pytest.raises(PresentationError):
        presentation_from_tuple([])
    with pytest.raises(PresentationError):
        presentation_from_tuple([Mat.from_rows(GF2, [[1, 0], [0, 0]])])
    with pytest.raises(PresentationError):
        presentation_from_tuple([Mat.from_rows(GF2, [[0, 1], [0, 0]])])
    with pytest.raises(PresentationError):
        presentation_from_tuple([Mat.from_rows(GF4, [[0, 1], [1, 0]])])


def test_presentation_names_the_bad_matrix():
    # the refusal names a matrix by its position in the tuple, from 1, with
    # the message pencil.validate gives for the same entry
    good = Mat.from_rows(GF2, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    diagonal = Mat.from_rows(GF2, [[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    skew = Mat.from_rows(GF2, [[0, 1, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(PresentationError, match=r"^matrix 3 has nonzero diagonal at \(1, 1\)$"):
        presentation_from_tuple([good, good, diagonal, skew])
    with pytest.raises(PresentationError, match=r"^matrix 3 is not symmetric at \(1, 2\)$"):
        presentation_from_tuple([good, good, skew, diagonal])
    report = validate(AlternatingPair(good, skew))
    assert (report.ok, report.matrix, report.position) == (False, "B", (1, 2))
    assert report.message == "matrix B is not symmetric at (1, 2)"


def test_presentation_refuses_nonpositive_exponent():
    a = Mat.from_rows(GF2, [[0, 1], [1, 0]])
    for e in (0, -1):
        with pytest.raises(PresentationError, match="^quotient exponent must be positive$"):
            presentation_from_tuple([a], e=e)
        with pytest.raises(PresentationError, match="^quotient exponent must be positive$"):
            FiniteQuotient(2, 1, e, (0, 0))
        with pytest.raises(PresentationError, match="^quotient exponent must be positive$"):
            replace(presentation_from_tuple([a]), e=e)


def test_presentation_refuses_order_beyond_bound():
    # 2^(num_h + e*m) and 2^e must print in decimal: (num_h, m, e) = (2, 2,
    # 20000) and (2, 15, 1000) ended in ValueError from int-to-str conversion
    a = Mat.from_rows(GF2, [[0, 1], [1, 0]])
    for count, e in ((2, 20000), (15, 1000)):
        with pytest.raises(PresentationError, match=f"^finite model order 2\\^{2 + count * e} exceeds"):
            presentation_from_tuple([a] * count, e=e)
    # at the bound both print
    pres = presentation_from_tuple([a] * 4, e=(MAX_ORDER_LOG2 - 2) // 4)
    assert pres.to_gap_text()
    assert str(pres.order)
    with pytest.raises(PresentationError):
        FiniteQuotient(MAX_ORDER_LOG2 + 1, 0, 1, (0,) * (MAX_ORDER_LOG2 + 1))
    # a model built at another exponent meets the same bound
    small = presentation_from_tuple([a, a])
    with pytest.raises(PresentationError, match="^finite model order 2\\^40002 exceeds"):
        replace(small, e=20000)
    with pytest.raises(PresentationError, match="^finite model order 2\\^40002 exceeds"):
        iso_from_witness(small, small, Mat.identity(GF2, 2), GL2Element(1, 0, 0, 1, GF2), 20000)


def test_presentation_from_class_refuses_large_field():
    rho = ClassFunction.from_dict(GF4, {(BinaryForm.x2(GF4), 1): 1})
    with pytest.raises(PresentationError, match="^group construction is specific to GF\\(2\\)$"):
        presentation_from_class(rho)


def test_presentation_matrices_roundtrip():
    rho = rho_of(((BinaryForm.x2(GF2), 2), 1), ((point_from_poly(tp("t")), 1), 1))
    pair = assemble(rho)
    pres = presentation_from_tuple(list(pair.matrices))
    mats = presentation_matrices(pres)
    assert mats[0].rows == pair.a.rows
    assert mats[1].rows == pair.b.rows


@pytest.mark.parametrize("n", [0, 1, 5, 33])
def test_presentation_matrices_roundtrip_other_ranks(n):
    rng = random.Random(n)
    for m in (1, 3):
        for _ in range(4):
            mats = [random_alternating(GF2, rng, n) for _ in range(m)]
            pres = presentation_from_tuple(mats)
            assert (pres.num_h, pres.m) == (n, m)
            assert presentation_matrices(pres) == mats


def test_quotient_refuses_cocycle_outside_the_lower_triangle():
    # n = 3, m = 2: row j may set bits i and 3 + i for i < j only
    assert FiniteQuotient(3, 2, 1, (0, 0b1001, 0b11011)).commutators == (
        ((0, 1), (1, 1)),
        ((0, 2), (1, 1)),
        ((1, 2), (1, 1)),
    )
    outside = (
        (0, 0b10, 0),  # the diagonal
        (0, 0b10000, 0),  # the diagonal of form 2
        (0b100, 0, 0),  # above the diagonal
        (0, 0b100000, 0),  # above the diagonal of form 2
        (0, 0, 1 << 6),  # past the last form
    )
    for rows in outside:
        with pytest.raises(PresentationError, match="^cocycle row [0-2] has a bit outside its lower triangle$"):
            FiniteQuotient(3, 2, 1, rows)
    for rows in ((0, 0), (0, 0, 0, 0)):
        with pytest.raises(PresentationError, match=f"^cocycle has {len(rows)} rows, need 3$"):
            FiniteQuotient(3, 2, 1, rows)


def test_quotient_refuses_negative_bottom_rank():
    # (2, -1, 1) was accepted with order 2, (0, -3, 2) raised a bare
    # ValueError from order, and m = -1 let num_h = MAX_ORDER_LOG2 + 1 under
    # the order cap
    for args in ((2, -1, 1, (0, 0)), (0, -3, 2, ()), (MAX_ORDER_LOG2 + 1, -1, 1, (0,) * (MAX_ORDER_LOG2 + 1))):
        with pytest.raises(PresentationError, match="^bottom rank must be non-negative$"):
            FiniteQuotient(*args)
    # a bottom of rank 0 is the elementary abelian top alone
    g = FiniteQuotient(2, 0, 3, (0, 0))
    assert (g.order, g.identity, g.commutators) == (4, (0, ()), ())
    assert g.mul((1, ()), (3, ())) == (2, ())


def test_presentation_text_and_json():
    pres = presentation_from_class(rho_of(((BinaryForm.x2(GF2), 1), 1)))
    text = pres.to_gap_text()
    assert "h1^2" in text and "Comm(h1,h2)*a2^-1" in text
    data = pres.to_json_dict()
    assert data["num_h"] == 2 and data["m"] == 2
    assert data["commutators"] == [{"i": 1, "j": 2, "coeffs": [0, 1]}]


# -- finite models ------------------------------------------------------------------


def test_quotient_abelian_order_and_exponent():
    g = FiniteQuotient(1, 2, 1, (0,))
    assert g.order == 8
    for el in elements(g):
        assert g.mul(el, el) == g.identity  # exponent 2


def test_quotient_infinity_block_order16():
    g = presentation_from_class(rho_of(((BinaryForm.x2(GF2), 1), 1)))
    assert g.order == 16
    assert not is_abelian(g)
    els = list(elements(g))
    center = [z for z in els if all(g.mul(z, w) == g.mul(w, z) for w in els)]
    assert len(center) >= 4
    h1, h2 = h_generator(g, 0), h_generator(g, 1)
    assert commutator(g, h1, h2) == socle_element(g, 1)


def test_quotient_associativity_exhaustive_small():
    g = presentation_from_class(rho_of(((BinaryForm.x2(GF2), 1), 1)))
    els = list(elements(g))
    for a in els:
        for b in els:
            ab = g.mul(a, b)
            for c in els:
                assert g.mul(ab, c) == g.mul(a, g.mul(b, c))


def test_quotient_associativity_random_larger():
    rho = rho_of(((point_from_poly(tp("t^2+t+1")), 1), 1), ((EPS, 1), 1))
    g = presentation_from_class(rho, 2)
    assert g.order == 2 ** (5 + 2 * 2)
    rng = random.Random(3)
    els = list(elements(g))
    for _ in range(4000):
        a, b, c = (els[rng.randrange(len(els))] for _ in range(3))
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_quotient_inverses_and_orders():
    pres = presentation_from_class(rho_of(((BinaryForm.x2(GF2), 2), 1)))
    for e in (1, 2, 3):
        g = replace(pres, e=e)
        rng = random.Random(5)
        els = list(elements(g))
        for _ in range(200):
            a = els[rng.randrange(len(els))]
            assert g.mul(a, inverse(g, a)) == g.identity
            o = order_of_element(g, a)
            assert g.order % o == 0


def test_quotient_h_lifts_are_involutions():
    rho = rho_of(((point_from_poly(tp("t^2+t+1")), 1), 1))
    for e in (1, 2, 3):
        g = presentation_from_class(rho, e)
        for i in range(g.num_h):
            h = h_generator(g, i)
            assert g.mul(h, h) == g.identity


def test_quotient_commutators_lie_in_socle():
    rho = rho_of(((BinaryForm.x2(GF2), 1), 1), ((BinaryForm.x1(GF2), 1), 1))
    for e in (1, 2):
        g = presentation_from_class(rho, e)
        socle_unit = g.socle_unit
        els = list(elements(g))
        rng = random.Random(9)
        for _ in range(300):
            a = els[rng.randrange(len(els))]
            b = els[rng.randrange(len(els))]
            x, vec = commutator(g, a, b)
            assert x == 0
            assert all(v % socle_unit == 0 for v in vec)


# -- witness isomorphisms -------------------------------------------------------------


def test_iso_identity_witness():
    pres = presentation_from_class(rho_of(((BinaryForm.x2(GF2), 1), 1)))
    n = pres.num_h
    qmap = iso_from_witness(
        pres, pres, Mat.identity(GF2, n), GL2Element.identity(GF2), 1
    )
    for el in elements(pres):
        assert qmap.apply(el) == el


def test_iso_swap_witness_order16():
    pair = build_finite(tp("t"), 1)
    q = gl2_swap(GF2)
    s = Mat.identity(GF2, 2)
    moved = transform_weak(pair, s, q)
    p1 = presentation_from_tuple(list(pair.matrices))
    p2 = presentation_from_tuple(list(moved.matrices))
    qmap = iso_from_witness(p1, p2, s, q, 1)
    # spot: h-part maps identically, a-parts swapped
    img = qmap.apply((0, (1, 0)))
    assert img == (0, (0, 1))
    assert brute_force_isomorphic(p1, p2)


def _random_witnesses():
    """(p1, p2, S, Q) for weak transforms of random GF(2) pairs up to dim 6."""
    rng = random.Random(23)
    qs = list(gl2_enumerate(GF2))
    for _ in range(10):
        rho = random_class_function(GF2, rng, 6)
        pair = assemble(rho)
        if pair.dim == 0:
            continue
        s = random_invertible(GF2, rng, pair.dim)
        q = qs[rng.randrange(len(qs))]
        moved = transform_weak(pair, s, q)
        p1 = presentation_from_tuple(list(pair.matrices))
        p2 = presentation_from_tuple(list(moved.matrices))
        yield p1, p2, s, q


def test_iso_random_witnesses_e2_and_above():
    for p1, p2, s, q in _random_witnesses():
        for e in (2, 3, 4):
            iso_from_witness(p1, p2, s, q, e)  # raises on failure


def test_iso_e1_shear_obstruction():
    # S = [[1,1],[0,1]] on the order-2 commutator block flips the square of a
    # lifted generator; no map of the prescribed shape exists at e = 1
    pair = build_finite(tp("t"), 1)
    s = Mat.from_rows(GF2, [[1, 1], [0, 1]])
    q = GL2Element.identity(GF2)
    moved = transform_weak(pair, s, q)
    p1 = presentation_from_tuple(list(pair.matrices))
    p2 = presentation_from_tuple(list(moved.matrices))
    with pytest.raises(IsoObstructionError):
        iso_from_witness(p1, p2, s, q, 1)
    iso_from_witness(p1, p2, s, q, 2)


def test_iso_rejects_bad_witness():
    pair = build_finite(tp("t"), 1)
    p1 = presentation_from_tuple(list(pair.matrices))
    other = transform_weak(pair, Mat.identity(GF2, 2), gl2_swap(GF2))
    p2 = presentation_from_tuple(list(other.matrices))
    with pytest.raises(WitnessError):
        iso_from_witness(p1, p2, Mat.identity(GF2, 2), GL2Element.identity(GF2), 1)


def test_iso_singular_s_is_a_witness_error():
    # with zero tuples every S passes the tuple check, so S = 0 must be
    # refused as a witness before anything inverts it
    zero = presentation_from_tuple([Mat.zeros(GF2, 3, 3), Mat.zeros(GF2, 3, 3)])
    with pytest.raises(WitnessError):
        iso_from_witness(zero, zero, Mat.zeros(GF2, 3, 3), GL2Element.identity(GF2), 2)


def _outcome(build, *args):
    try:
        return build(*args)
    except (WitnessError, IsoObstructionError) as exc:
        return type(exc), str(exc)


def _corrupted_witnesses(rng, count):
    """(p, r, S, Q) from weak transforms of random GF(2) pairs up to dim 8,
    each with one of S, Q or the target tuple corrupted: a bit of S flipped,
    another element of GL(2, 2) for Q, or a symmetric pair of entries of one
    target matrix flipped."""
    qs = list(gl2_enumerate(GF2))
    for i, (pair, moved, s, q) in enumerate(random_weak_pairs_with_witness(rng, count)):
        n = pair.dim
        rows = [list(row) for row in moved.matrices[i % 2].rows]
        if i % 3 == 0:
            srows = [list(row) for row in s.rows]
            srows[rng.randrange(n)][rng.randrange(n)] ^= 1
            s = Mat.from_rows(GF2, srows, n)
        elif i % 3 == 1:
            q = rng.choice([other for other in qs if other != q])
        elif n > 1:
            a, b = rng.sample(range(n), 2)
            rows[a][b] ^= 1
            rows[b][a] ^= 1
        mats = list(moved.matrices)
        mats[i % 2] = Mat.from_rows(GF2, rows, n)
        yield presentation_from_tuple(list(pair.matrices)), presentation_from_tuple(mats), s, q


def test_witness_decision_matches_dense_tuple_check():
    # the symmetry of the pulled-back discrepancy against the dense check
    # R_k = sum_l q_lk S A_l S^T that it replaced: the same refusal, with
    # the same message, or the same map
    rng = random.Random(0xDE75E)
    outcomes = []
    for p, r, s, q in _corrupted_witnesses(rng, 1050):
        e = rng.choice((1, 2))
        expected = _outcome(iso_from_witness_dense, p, r, s, q, e)
        assert _outcome(iso_from_witness, p, r, s, q, e) == expected
        outcomes.append(expected if isinstance(expected, tuple) else QuotientMap)
    mismatch = (WitnessError, "witness fails verification: tuples do not match")
    assert outcomes.count(mismatch) >= 500
    assert (WitnessError, "S is singular") in outcomes and QuotientMap in outcomes


def test_verify_catches_corrupted_map():
    pair = build_finite(tp("t"), 1)
    q = gl2_swap(GF2)
    s = Mat.identity(GF2, 2)
    moved = transform_weak(pair, s, q)
    p1 = presentation_from_tuple(list(pair.matrices))
    p2 = presentation_from_tuple(list(moved.matrices))
    qmap = iso_from_witness(p1, p2, s, q, 1)
    from dataclasses import replace

    bad = replace(qmap, bottom=((1, 0), (0, 1)))  # undo the a-part swap
    with pytest.raises(WitnessError):
        verify_quotient_map(bad)


def test_reduced_verification_matches_literal_all_pairs():
    # the certificate checks generator pairs only; on a small group the
    # literal product property must hold on all pairs of elements
    pair = build_finite(tp("t"), 1)
    q = gl2_swap(GF2)
    s = Mat.identity(GF2, 2)
    moved = transform_weak(pair, s, q)
    p1 = presentation_from_tuple(list(pair.matrices))
    p2 = presentation_from_tuple(list(moved.matrices))
    qmap = iso_from_witness(p1, p2, s, q, 2)
    g1, g2 = qmap.src, qmap.dst
    els = list(elements(g1))
    for a in els:
        fa = qmap.apply(a)
        for b in els:
            assert qmap.apply(g1.mul(a, b)) == g2.mul(fa, qmap.apply(b))


# -- the certificate against the exhaustive oracle -----------------------------------


def _set(rows, i, k, value):
    """rows with entry (i, k) replaced."""
    row = list(rows[i])
    row[k] = value
    return rows[:i] + (tuple(row),) + rows[i + 1:]


def _flip(qmap, i, bit):
    """qmap with one bit of strided row i flipped."""
    rows = list(qmap.rows)
    rows[i] ^= 1 << bit
    return replace(qmap, rows=tuple(rows))


def _with_linear(qmap, i, k, value):
    """qmap with the linear correction of generator h_(i+1) at bottom
    coordinate k set to value, written into the bit-planes."""
    planes = tuple(
        plane & ~(1 << i) | (value >> b & 1) << i for b, plane in enumerate(qmap.linear[k])
    )
    return replace(qmap, linear=qmap.linear[:k] + (planes,) + qmap.linear[k + 1:])


def _mutants(qmap, rng):
    """(mutant, refused) pairs: the map as built, then with one entry
    changed: a quad bit below the diagonal; a linear entry moved by the
    half-socle (e >= 2) and set to a random value; a top bit; a bottom entry
    moved by 1 and by 2.  Last, a bit outside its field, in a row and in a
    bit-plane: the map is the same function, but the certificate refuses
    it."""
    n, m, e = qmap.src.num_h, qmap.src.m, qmap.src.e
    mod = 1 << e
    yield qmap, False
    k, l = rng.randrange(2), rng.randrange(2)
    if n >= 2:
        i = rng.randrange(1, n)
        yield _flip(qmap, i, (k + 1) * n + rng.randrange(i)), False
    i = rng.randrange(n)
    linear = map_parts(qmap)[2]
    if e >= 2:
        yield _with_linear(qmap, i, k, (linear[i][k] + (1 << (e - 2))) % mod), False
    yield _with_linear(qmap, i, k, rng.randrange(mod)), False
    yield _flip(qmap, rng.randrange(n), rng.randrange(n)), False
    for step in (1, 2):
        yield replace(qmap, bottom=_set(qmap.bottom, l, k, qmap.bottom[l][k] + step)), False
    yield _flip(qmap, rng.randrange(n), (m + 1) * n + rng.randrange(n)), True
    planes = list(qmap.linear[k])
    planes[rng.randrange(e)] |= 1 << (n + rng.randrange(n))
    yield replace(qmap, linear=qmap.linear[:k] + (tuple(planes),) + qmap.linear[k + 1:]), True


class _NoSamples(random.Random):
    """Draws only zeros: the spot check then multiplies identities, and the
    certificate alone decides."""

    def getrandbits(self, k):
        return 0


class _CountingDraws(random.Random):
    """Records the width of every getrandbits draw."""

    def __init__(self, seed):
        super().__init__(seed)
        self.widths = []

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)


def test_spot_check_draws_whole_elements():
    # 500 pairs, each element one draw over all n + e*m bits of the group
    for qmap in _small_maps():
        rng = _CountingDraws(0xC0C)
        verify_quotient_map(qmap, rng)
        n, m, e = qmap.src.num_h, qmap.src.m, qmap.src.e
        assert rng.widths == [n + e * m] * 1000


def _certificate_verdict(qmap):
    """What ``verify_quotient_map`` says with the spot check idle: None if it
    accepts, the 0-based generator pair it names, or the message of another
    refusal."""
    try:
        verify_quotient_map(qmap, _NoSamples())
    except WitnessError as exc:
        pair = re.fullmatch(r"homomorphism fails on generator pair h(\d+), h(\d+)", str(exc))
        return (int(pair[1]) - 1, int(pair[2]) - 1) if pair else str(exc)
    return None


def _certificate_accepts(qmap):
    return _certificate_verdict(qmap) is None


def _small_maps():
    pres = presentation_from_class(rho_of(((BinaryForm.x2(GF2), 1), 1)))
    yield iso_from_witness(pres, pres, Mat.identity(GF2, 2), GL2Element.identity(GF2), 1)
    pair = build_finite(tp("t"), 1)
    p1 = presentation_from_tuple(list(pair.matrices))
    for s, q, exps in (
        (Mat.identity(GF2, 2), gl2_swap(GF2), (1, 2)),
        (Mat.from_rows(GF2, [[1, 1], [0, 1]]), GL2Element.identity(GF2), (2,)),
    ):
        p2 = presentation_from_tuple(list(transform_weak(pair, s, q).matrices))
        for e in exps:
            yield iso_from_witness(p1, p2, s, q, e)


def _acceptance_7_maps():
    # the 50 witnesses of test_criterion_7_group_layer_e2_and_table
    for pair, moved, s, q in random_weak_pairs_with_witness(random.Random(0xACC7), 50):
        p1 = presentation_from_tuple(list(pair.matrices))
        p2 = presentation_from_tuple(list(moved.matrices))
        yield iso_from_witness(p1, p2, s, q, 2)


def _random_witness_maps():
    # the maps of test_iso_random_witnesses_e2_and_above within the oracle's cap
    for p1, p2, s, q in _random_witnesses():
        for e in (2, 3, 4):
            if 1 << (p1.num_h + 2 * e) <= MAX_BRUTE_ORDER:
                yield iso_from_witness(p1, p2, s, q, e)


@pytest.mark.parametrize(
    "maps", [_small_maps, _acceptance_7_maps, _random_witness_maps], ids=lambda f: f.__name__
)
def test_certificate_matches_exhaustive_oracle(maps):
    rng = random.Random(maps.__name__)
    verdicts = []
    for qmap in maps():
        for mutant, refused in _mutants(qmap, rng):
            if refused:
                with pytest.raises(WitnessError, match="outside its field"):
                    verify_quotient_map(mutant)
                # the same function as qmap
                assert all(mutant.apply(g) == qmap.apply(g) for g in elements(qmap.src))
            else:
                verdicts.append((_certificate_accepts(mutant), verify_exhaustive(mutant)))
    assert all(cert == oracle for cert, oracle in verdicts)
    # both verdicts occur: the maps as built and the bottom moves by 2 are
    # isomorphisms, most other mutants are not
    assert {cert for cert, _ in verdicts} == {True, False}


def test_certificate_refuses_bottom_not_m_by_m():
    # apply reads one bottom row per coordinate: an extra row went unread
    # and the map was accepted, a short row raised IndexError
    for qmap in _small_maps():
        rows = qmap.bottom
        for bottom in (rows + rows[:1], rows[:-1], (rows[0][:-1],) + rows[1:], (rows[0] + (0,),) + rows[1:]):
            with pytest.raises(WitnessError, match="outside its field"):
                verify_quotient_map(replace(qmap, bottom=bottom))


def test_certificate_rejects_trivial_map_at_n12():
    # above the old exhaustive cap only products were sampled, and the map
    # sending every element to the identity is a homomorphism
    rng = random.Random(12)
    pair = random_alternating_pair(GF2, rng, 12)
    pres = presentation_from_tuple(list(pair.matrices))
    qmap = iso_from_witness(pres, pres, Mat.identity(GF2, 12), GL2Element.identity(GF2), 2)
    trivial = replace(qmap, rows=(0,) * 12, bottom=((0, 0), (0, 0)), linear=((0, 0), (0, 0)))
    for g in (h_generator(qmap.src, 3), (5, (1, 3))):
        assert trivial.apply(g) == trivial.dst.identity
    with pytest.raises(WitnessError):
        verify_quotient_map(trivial)


def _matches_literal_reference(maps):
    """The certificate's verdict against ``certificate_reference`` on every
    map of ``maps`` that passes the field and rank checks: the same
    acceptance, and on a refusal the same first failing pair.  Returns the
    verdicts."""
    verdicts = []
    for qmap in maps:
        verdict = _certificate_verdict(qmap)
        if verdict is None or isinstance(verdict, tuple):
            assert verdict == certificate_reference(qmap), (qmap, verdict)
            verdicts.append(verdict)
    return verdicts


def _dense_witness_maps():
    # random dense witnesses of the benchmark's kind, at 16 and 33 generators
    for n in (16, 33):
        rng = random.Random(n)
        pair = random_alternating_pair(GF2, rng, n)
        s = random_invertible(GF2, rng, n)
        q = rng.choice(list(gl2_enumerate(GF2)))
        p1 = presentation_from_tuple(list(pair.matrices))
        p2 = presentation_from_tuple(list(transform_weak(pair, s, q).matrices))
        for e in (2, 3):
            yield iso_from_witness(p1, p2, s, q, e)


@pytest.mark.parametrize(
    "maps",
    [_small_maps, _acceptance_7_maps, _random_witness_maps, _dense_witness_maps],
    ids=lambda f: f.__name__,
)
def test_certificate_matches_literal_reference(maps):
    # the row-at-a-time certificate against the literal n^2 products, on
    # the maps as built and their one-entry mutants
    rng = random.Random(maps.__name__)
    verdicts = _matches_literal_reference(
        mutated for qmap in maps() for mutated, _ in _mutants(qmap, rng)
    )
    assert None in verdicts and any(verdicts)


def _bijective(qmap):
    """qmap with its top made unit lower triangular and its bottom lower
    triangular mod 2 with an odd diagonal, so both ranks pass."""
    n = qmap.src.num_h
    rows = tuple(row & ~((1 << n) - (1 << i)) | 1 << i for i, row in enumerate(qmap.rows))
    bottom = tuple(
        tuple(v | 1 if k == l else v & ~1 if k > l else v for k, v in enumerate(row))
        for l, row in enumerate(qmap.bottom)
    )
    return replace(qmap, rows=rows, bottom=bottom)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 33, 64])
def test_certificate_matches_literal_reference_on_random_maps(n):
    rng = random.Random(n)
    maps = []
    for m in (1, 2, 3):
        for e in (1, 2, 3):
            for _ in range(3):
                qmap = _random_map(rng, n, m, e)
                maps += [qmap, _bijective(qmap)]
    verdicts = _matches_literal_reference(maps)
    assert len(verdicts) >= 27 and (n == 0 or any(verdicts))


def test_certificate_refuses_non_bijections():
    # homomorphisms between abelian models with no correction that are not
    # bijective: a singular top over an invertible bottom, and an invertible
    # top over a bottom singular mod 2, by a repeated row or by an even entry
    n, m, e = 4, 2, 2
    g = FiniteQuotient(n, m, e, (0,) * n)
    identity = tuple(1 << i for i in range(n))
    for rows, bottom in (
        ((0b0011, 0b0011, 0b0100, 0b1000), ((1, 0), (0, 1))),
        (identity, ((1, 1), (1, 1))),
        (identity, ((1, 0), (0, 2))),
    ):
        qmap = QuotientMap(g, g, rows, bottom, ((0, 0), (0, 0)))
        assert certificate_reference(qmap) is None and not verify_exhaustive(qmap)
        assert _certificate_verdict(qmap) == "map is not a bijection"


# verify_quotient_map with one part of its certificate broken: the last row
# skipped, the i = j condition dropped, the 2 L(e_i) term dropped, the polar
# form of q dropped whole or its column (transposed-field) half, the
# beta_P Q term dropped, and each rank check dropped.  The third entry is the
# test that kills it, run with the broken copy in place of
# verify_quotient_map; each of them runs with the spot check idle
CERTIFICATE_MUTANTS = {
    "row-skipped": (
        "if bad:", "if bad and i < n - 1:",
        partial(test_certificate_matches_literal_reference, _acceptance_7_maps),
    ),
    "diagonal": (
        " | bool(dst.socle_unit * (c >> i & 1) - 2 * lin & mask) << i", "",
        partial(test_certificate_matches_literal_reference, _acceptance_7_maps),
    ),
    "linear-term": (
        " - 2 * lin", "",
        partial(test_certificate_matches_literal_reference, _acceptance_7_maps),
    ),
    "polar-term": (
        " ^ quad[k][i] ^ cols[k][i]", "",
        partial(test_certificate_matches_literal_reference, _acceptance_7_maps),
    ),
    "column-term": (
        " ^ cols[k][i]", "",
        partial(test_certificate_matches_literal_reference, _acceptance_7_maps),
    ),
    "bottom-term": (
        "qmap.bottom)):", "[[0] * m] * m)):",
        partial(test_certificate_matches_literal_reference, _acceptance_7_maps),
    ),
    "top-rank": ("[0]) < n", "[0]) < 0", test_certificate_refuses_non_bijections),
    "bottom-rank": ("[0]) < m", "[0]) < 0", test_certificate_refuses_non_bijections),
}


@pytest.mark.parametrize("name", list(CERTIFICATE_MUTANTS))
def test_certificate_mutants_are_killed(name, monkeypatch):
    old, new, killer = CERTIFICATE_MUTANTS[name]
    monkeypatch.setitem(globals(), "verify_quotient_map", mutant(verify_quotient_map, old, new))
    with pytest.raises(AssertionError):
        killer()


@pytest.mark.parametrize("n", [64, 128])
def test_iso_large_witnesses(n):
    rng = random.Random(n)
    pair = random_alternating_pair(GF2, rng, n)
    s = random_invertible(GF2, rng, n)
    qs = list(gl2_enumerate(GF2))
    q = qs[rng.randrange(len(qs))]
    p1 = presentation_from_tuple(list(pair.matrices))
    p2 = presentation_from_tuple(list(transform_weak(pair, s, q).matrices))
    for e in (2, 3):
        qmap = iso_from_witness(p1, p2, s, q, e)
        assert qmap.src.order == 1 << (n + 2 * e)
        i = rng.randrange(1, n)
        k = rng.randrange(2)
        bad = _flip(qmap, i, (k + 1) * n + rng.randrange(i))  # a quad bit below the diagonal
        with pytest.raises(WitnessError):
            verify_quotient_map(bad)


# -- the packed layout against the per-form references ---------------------------------


def _random_model(rng, n, m, e):
    """A model with random bits in the lower triangle of each field."""
    fields = sum(1 << (k * n) for k in range(m))
    rows = tuple(rng.getrandbits(m * n) & ((1 << j) - 1) * fields for j in range(n))
    return FiniteQuotient(n, m, e, rows)


def _random_map(rng, n, m, e):
    """Arbitrary data in every field, an isomorphism or not."""
    return QuotientMap(
        _random_model(rng, n, m, e),
        _random_model(rng, n, m, e),
        rows=tuple(rng.getrandbits((m + 1) * n) for _ in range(n)),
        bottom=tuple(tuple(rng.randrange(4 << e) for _ in range(m)) for _ in range(m)),
        linear=tuple(tuple(rng.getrandbits(n) for _ in range(e)) for _ in range(m)),
    )


def _random_element(rng, g):
    return (rng.getrandbits(g.num_h), tuple(rng.randrange(1 << g.e) for _ in range(g.m)))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 33, 64])
def test_packed_layout_matches_per_form_reference(n):
    rng = random.Random(n)
    for m in (1, 2, 3):
        for e in (1, 2, 3):
            for _ in range(3):
                qmap = _random_map(rng, n, m, e)
                for _ in range(20):
                    g, h = _random_element(rng, qmap.src), _random_element(rng, qmap.src)
                    assert qmap.src.mul(g, h) == mul_reference(qmap.src, g, h)
                    assert qmap.apply(g) == apply_reference(qmap, g)


def test_packed_mul_matches_reference_on_every_pair():
    rng = random.Random(41)
    for n, m, e in ((0, 1, 2), (1, 2, 1), (2, 3, 1), (3, 1, 2), (3, 2, 1), (4, 1, 1)):
        g = _random_model(rng, n, m, e)
        els = list(elements(g))
        for a in els:
            for b in els:
                assert g.mul(a, b) == mul_reference(g, a, b)


def test_witness_maps_respect_every_product_at_small_orders():
    maps = [*_small_maps(), *(f for f in _random_witness_maps() if f.src.order <= 1 << 8)]
    assert len(maps) > len(list(_small_maps()))
    for qmap in maps:
        src, dst = qmap.src, qmap.dst
        els = list(elements(src))
        image = {g: qmap.apply(g) for g in els}
        assert all(image[g] == apply_reference(qmap, g) for g in els)
        assert len(set(image.values())) == src.order
        for a in els:
            for b in els:
                assert image[src.mul(a, b)] == dst.mul(image[a], image[b])


def test_cocycle_rows_are_the_commutator_table():
    rho = rho_of(((point_from_poly(tp("t^2+t+1")), 1), 1), ((BinaryForm.x2(GF2), 1), 1))
    pres = presentation_from_class(rho)
    forms = cocycle_forms(pres)
    for (i, j), vec in pres.commutators:
        assert tuple(forms[k][j] >> i & 1 for k in range(2)) == vec
    assert sum(bin(row).count("1") for rows in forms for row in rows) == sum(
        sum(vec) for _, vec in pres.commutators
    )


# -- brute force oracle ---------------------------------------------------------------


def test_brute_force_self():
    g = presentation_from_class(rho_of(((BinaryForm.x2(GF2), 1), 1)))
    assert brute_force_isomorphic(g, g)


def test_brute_force_abelian_vs_nonabelian():
    abelian = FiniteQuotient(2, 2, 1, (0, 0))
    nonabelian = presentation_from_class(rho_of(((BinaryForm.x2(GF2), 1), 1)))
    assert abelian.order == nonabelian.order == 16
    assert not brute_force_isomorphic(abelian, nonabelian)


def test_brute_force_arf_counterexample_regression():
    # congruent pairs whose e = 1 models are not isomorphic: the standard
    # symplectic 4x4 form vs the all-ones alternating form
    a = Mat.from_rows(GF2, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    c = Mat.from_rows(GF2, [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
    z = Mat.zeros(GF2, 4, 4)
    from altpairs.pencil import congruent
    from altpairs.blocks import AlternatingPair

    assert congruent(AlternatingPair(a, z), AlternatingPair(c, z))
    g1 = presentation_from_tuple([a, z])
    g2 = presentation_from_tuple([c, z])
    assert not brute_force_isomorphic(g1, g2)


def test_brute_force_cap():
    g = FiniteQuotient(8, 2, 3, (0,) * 8)
    with pytest.raises(PresentationError):
        brute_force_isomorphic(g, g)
