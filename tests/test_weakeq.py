"""GL(2) action on class functions, canonicalization, weak equivalence."""

import itertools
import random

import pytest

from altpairs.blocks import AlternatingPair, build_finite, build_infinity
from altpairs.field import FieldError, FieldSpec
from altpairs.linalg import Mat
from altpairs.pencil import ClassFunction, assemble, decompose
from altpairs.polyring import (
    EPS,
    BinaryForm,
    Poly,
    is_irreducible,
    monic_irreducibles,
    parse_poly,
    point_from_poly,
)
from altpairs.weakeq import (
    CANDIDATE_CAP,
    ENUMERATION_CAP_K,
    CapError,
    GL2Element,
    act_on_class,
    canonical_rep,
    gl2_enumerate,
    pgl2_enumerate,
    relabel_class,
    transform_weak,
    weakly_equivalent,
)

from conftest import (
    GF2,
    GF4,
    canonical_rep_scan,
    gl2_inv,
    gl2_swap,
    parse_form,
    random_alternating_pair,
    random_class_function,
    random_invertible,
    weakly_equivalent_scan,
)


def tp(text, spec=GF2):
    return parse_poly(spec, text)


def rho_of(spec, *entries):
    return ClassFunction.from_dict(spec, {key: mult for key, mult in entries})


def random_point(spec, rng, degree):
    """A random point of the given degree; x2 among the degree-1 points."""
    if degree == 1 and rng.randrange(spec.order + 1) == 0:
        return BinaryForm.x2(spec)
    while True:
        f = Poly.make(spec, [rng.randrange(spec.order) for _ in range(degree)] + [1])
        if is_irreducible(f):
            return point_from_poly(f)


def anchored_class(spec, rng, s):
    """A random class function with exactly s distinct degree-1 points in
    its support, around them up to two points of degree 2 or 3 and maybe
    an eps entry.  Half the time every degree-1 point carries the same
    single entry, so the stabiliser of the least form is large."""
    lines = []
    while len(lines) < s:
        p = random_point(spec, rng, 1)
        if p not in lines:
            lines.append(p)
    uniform = rng.randrange(2)
    acc = {}
    for p in lines:
        acc[(p, 1 if uniform else rng.randrange(1, 3))] = 1
        if not uniform and rng.randrange(3) == 0:
            acc[(p, 3)] = 1
    for _ in range(rng.randrange(3)):
        acc[(random_point(spec, rng, rng.randrange(2, 4)), 1)] = 1
    if rng.randrange(2):
        acc[(EPS, rng.randrange(1, 3))] = 1
    return ClassFunction.from_dict(spec, acc)


def random_gl2(spec, rng):
    while True:
        q = tuple(rng.randrange(spec.order) for _ in range(4))
        if spec.mul(q[0], q[3]) ^ spec.mul(q[1], q[2]):
            return GL2Element(*q, spec)


# -- enumeration -----------------------------------------------------------------


def test_gl2_order_gf2():
    els = list(gl2_enumerate(GF2))
    assert len(els) == 6
    assert len({(q.q11, q.q12, q.q21, q.q22) for q in els}) == 6


def test_gl2_order_gf4():
    assert len(list(gl2_enumerate(GF4))) == 180


def test_gl2_identity_first():
    first = next(iter(gl2_enumerate(GF2)))
    assert (first.q11, first.q12, first.q21, first.q22) == (1, 0, 0, 1)


def test_gl2_cap_refused():
    with pytest.raises(CapError):
        list(gl2_enumerate(FieldSpec.gf(5)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pgl2_one_element_per_scalar_class(k):
    spec = FieldSpec.gf(k)
    q = spec.order
    els = [(e.q11, e.q12, e.q21, e.q22) for e in pgl2_enumerate(spec)]
    assert len(els) == q**3 - q
    assert els[0] == (1, 0, 0, 1)
    # the first member of each scalar class in gl2_enumerate order, in the
    # order gl2_enumerate first meets the classes
    firsts, seen = [], set()
    for e in gl2_enumerate(spec):
        cls = frozenset(
            tuple(spec.mul(lam, x) for x in (e.q11, e.q12, e.q21, e.q22))
            for lam in range(1, q)
        )
        if cls not in seen:
            seen.add(cls)
            firsts.append((e.q11, e.q12, e.q21, e.q22))
    assert els == firsts


def test_pgl2_cap_refused():
    with pytest.raises(CapError):
        list(pgl2_enumerate(FieldSpec.gf(5)))


def test_gl2_group_ops():
    els = list(gl2_enumerate(GF2))
    for q in els:
        prod = q * gl2_inv(q)
        assert (prod.q11, prod.q12, prod.q21, prod.q22) == (1, 0, 0, 1)
    for q in gl2_enumerate(GF4):
        prod = q * q.adj()
        assert (prod.q11, prod.q12, prod.q21, prod.q22) == (q.det, 0, 0, q.det)
    with pytest.raises(ValueError):
        GL2Element(1, 1, 1, 1, GF2)


# -- action on class functions ------------------------------------------------------


def test_act_identity():
    rho = random_class_function(GF2, random.Random(1), 12)
    assert act_on_class(GL2Element.identity(GF2), rho) == rho


def test_act_swap_moves_x2_to_x1():
    for n in (1, 2, 3):
        rho = rho_of(GF2, ((BinaryForm.x2(GF2), n), 1))
        moved = act_on_class(gl2_swap(GF2), rho)
        assert moved == rho_of(GF2, ((BinaryForm.x1(GF2), n), 1))


def test_act_fixes_eps():
    rho = rho_of(GF2, ((EPS, 1), 2), ((EPS, 3), 1))
    for q in gl2_enumerate(GF2):
        assert act_on_class(q, rho) == rho


def test_act_contravariant_composition_exhaustive():
    rho = rho_of(
        GF2,
        ((BinaryForm.x1(GF2), 1), 1),
        ((point_from_poly(tp("t^2+t+1")), 1), 1),
        ((EPS, 1), 1),
    )
    els = list(gl2_enumerate(GF2))
    for q1 in els:
        for q2 in els:
            lhs = act_on_class(q1 * q2, rho)
            rhs = act_on_class(q2, act_on_class(q1, rho))
            assert lhs == rhs


def test_act_preserves_multiplicity_and_n():
    rng = random.Random(5)
    for _ in range(10):
        rho = random_class_function(GF2, rng, 14)
        for q in gl2_enumerate(GF2):
            moved = act_on_class(q, rho)
            assert moved.total_dim == rho.total_dim
            assert sorted(n for _, n, _ in moved.entries) == sorted(
                n for _, n, _ in rho.entries
            )


# -- canonical representatives --------------------------------------------------------


def test_canonical_idempotent():
    rng = random.Random(7)
    for _ in range(15):
        rho = random_class_function(GF2, rng, 14)
        rep, _ = canonical_rep(rho)
        rep2, witness2 = canonical_rep(rep)
        assert rep2 == rep
        assert (witness2.q11, witness2.q12, witness2.q21, witness2.q22) == (1, 0, 0, 1)


def test_canonical_constant_on_projective_line_orbit():
    # the three points x1, x2, x1+x2 form a single GL(2,2) orbit
    reps = []
    for text in ("x1", "x2", "x1+x2"):
        rho = rho_of(GF2, ((parse_form(GF2, text), 1), 1))
        reps.append(canonical_rep(rho)[0])
    assert reps[0] == reps[1] == reps[2]


def test_canonical_eps_only_fixed():
    rho = rho_of(GF2, ((EPS, 1), 1))
    rep, witness = canonical_rep(rho)
    assert rep == rho
    assert (witness.q11, witness.q12, witness.q21, witness.q22) == (1, 0, 0, 1)


def test_orbit_size_divides_group_order():
    rng = random.Random(9)
    for _ in range(10):
        rho = random_class_function(GF2, rng, 12)
        orbit = {act_on_class(q, rho).sort_key() for q in gl2_enumerate(GF2)}
        assert 6 % len(orbit) == 0


def test_canonical_constant_on_orbits():
    rng = random.Random(11)
    for _ in range(10):
        rho = random_class_function(GF2, rng, 12)
        rep, _ = canonical_rep(rho)
        for q in gl2_enumerate(GF2):
            assert canonical_rep(act_on_class(q, rho))[0] == rep


def canonical_rep_full_scan(rho):
    """Reference: the first minimiser over all of GL(2)."""
    best = None
    for q in gl2_enumerate(rho.spec):
        moved = act_on_class(q, rho)
        if best is None or moved.sort_key() < best[0].sort_key():
            best = (moved, q)
    return best


@pytest.mark.parametrize("k", [1, 2, 3])
def test_canonical_matches_full_gl2_scan(k):
    spec = FieldSpec.gf(k)
    rng = random.Random(100 + k)
    for _ in range({1: 24, 2: 16, 3: 8}[k]):
        rho = random_class_function(spec, rng, 12)
        rep, witness = canonical_rep(rho)
        ref_rep, ref_witness = canonical_rep_full_scan(rho)
        assert rep == ref_rep
        assert witness == ref_witness


def anchor_counts(spec):
    """Every number of distinct degree-1 points a class can hold, up to 5."""
    return range(min(5, spec.order + 1) + 1)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_canonical_matches_pgl2_scan_every_anchor_count(k):
    spec = FieldSpec.gf(k)
    rng = random.Random(300 + k)
    for s in anchor_counts(spec):
        for _ in range({1: 8, 2: 6, 3: 4, 4: 2}[k]):
            rho = anchored_class(spec, rng, s)
            assert canonical_rep(rho) == canonical_rep_scan(rho), (s, rho)


def test_canonical_matches_uncapped_scan_at_k5():
    # k = 5 is above ENUMERATION_CAP_K; two or more degree-1 points anchor
    spec = FieldSpec.gf(5)
    rng = random.Random(305)
    for s in (2, 3):
        rho = anchored_class(spec, rng, s)
        assert canonical_rep(rho) == canonical_rep_scan(rho), (s, rho)


def test_canonical_witness_prefers_identity():
    # swap fixes this canonical class and precedes the identity
    # lexicographically; the identity is still the witness
    x1, x2 = BinaryForm.x1(GF4), BinaryForm.x2(GF4)
    rho = rho_of(GF4, ((x2, 1), 1), ((x1, 1), 1))
    assert act_on_class(gl2_swap(GF4), rho) == rho
    rep, witness = canonical_rep(rho)
    assert rep == rho
    assert witness == GL2Element.identity(GF4)


def test_anchored_search_runs_at_k8():
    spec = FieldSpec.gf(8)
    rng = random.Random(308)
    for s in (2, 3, 5):
        rho = anchored_class(spec, rng, s)
        rep, witness = canonical_rep(rho)
        assert act_on_class(witness, rho) == rep
        assert canonical_rep(rep) == (rep, GL2Element.identity(spec))
        assert canonical_rep(act_on_class(random_gl2(spec, rng), rho))[0] == rep


def test_canonical_caps():
    # fewer than two degree-1 points keep pgl2_enumerate's field cap
    spec = FieldSpec.gf(ENUMERATION_CAP_K + 1)
    rng = random.Random(309)
    for s in (0, 1):
        with pytest.raises(CapError, match="capped at GF"):
            canonical_rep(anchored_class(spec, rng, s))
    # a class of eps entries only is its own form, with the identity
    eps_only = rho_of(spec, ((EPS, 1), 1))
    assert canonical_rep(eps_only) == (eps_only, GL2Element.identity(spec))
    # otherwise the number of moves tried is capped, not the field
    assert CANDIDATE_CAP == 16**3 - 16
    gf1024, gf2048 = FieldSpec.gf(10), FieldSpec.gf(11)
    assert 2 * (gf1024.order - 1) <= CANDIDATE_CAP < 2 * (gf2048.order - 1)
    rho = anchored_class(gf1024, rng, 2)
    rep, witness = canonical_rep(rho)
    assert act_on_class(witness, rho) == rep
    with pytest.raises(CapError, match="2 degree-1 points .* tries 4094 moves"):
        canonical_rep(anchored_class(gf2048, rng, 2))
    assert 17 * 16 * 15 <= CANDIDATE_CAP < 18 * 17 * 16
    with pytest.raises(CapError, match="18 degree-1 points .* tries 4896 moves"):
        canonical_rep(anchored_class(spec, rng, 18))


def eps_only_classes(spec):
    """The empty class and classes whose entries are all eps."""
    yield ClassFunction.from_dict(spec, {})
    yield rho_of(spec, ((EPS, 1), 1))
    yield rho_of(spec, ((EPS, 1), 1), ((EPS, 2), 1))
    yield rho_of(spec, ((EPS, 2), 2), ((EPS, 3), 1))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_canonical_eps_only_matches_pgl2_scan(k):
    spec = FieldSpec.gf(k)
    rng = random.Random(320 + k)
    for rho in eps_only_classes(spec):
        assert canonical_rep(rho) == canonical_rep_scan(rho) == (rho, GL2Element.identity(spec))
        pair = assemble(rho)
        s = random_invertible(spec, rng, pair.dim) if pair.dim else Mat.identity(spec, 0)
        moved = transform_weak(pair, s, random_gl2(spec, rng))
        assert weakly_equivalent(pair, moved) == weakly_equivalent_scan(pair, moved)


@pytest.mark.parametrize("k", [5, 8])
def test_canonical_eps_only_above_enumeration_cap(k):
    # the old scan of PGL(2) refused these above GF(16)
    spec = FieldSpec.gf(k)
    rng = random.Random(330 + k)
    for rho in eps_only_classes(spec):
        assert canonical_rep(rho) == (rho, GL2Element.identity(spec))
        pair = assemble(rho)
        moved = transform_weak(pair, Mat.identity(spec, pair.dim), random_gl2(spec, rng))
        assert weakly_equivalent(pair, moved) == (True, GL2Element.identity(spec))


def test_canonical_every_point_at_k4():
    # all 17 degree-1 points of GF(16): exactly CANDIDATE_CAP triples
    spec = FieldSpec.gf(4)
    rho = anchored_class(spec, random.Random(310), 17)
    assert canonical_rep(rho) == canonical_rep_scan(rho)


def test_anchored_search_runs_at_k16():
    # three degree-1 points leave six candidates whatever the field
    spec = FieldSpec.gf(16)
    rng = random.Random(316)
    rho = anchored_class(spec, rng, 3)
    rep, witness = canonical_rep(rho)
    assert act_on_class(witness, rho) == rep
    assert canonical_rep(rep) == (rep, GL2Element.identity(spec))
    assert canonical_rep(act_on_class(random_gl2(spec, rng), rho))[0] == rep


# -- weak equivalence ------------------------------------------------------------------


def test_weak_swap_witness():
    rng = random.Random(13)
    pair = random_alternating_pair(GF2, rng, 4)
    swapped = AlternatingPair(pair.b, pair.a)
    ok, q = weakly_equivalent(pair, swapped)
    assert ok
    moved = transform_weak(pair, Mat.identity(GF2, 4), q)
    assert decompose(moved) == decompose(swapped)


def test_weak_generic_swap_witness_is_swap_matrix():
    # the x1-point block is not swap-symmetric, so the identity fails and the
    # enumeration returns the swap matrix itself
    pair = build_finite(tp("t"), 2)
    swapped = AlternatingPair(pair.b, pair.a)
    ok, q = weakly_equivalent(pair, swapped)
    assert ok
    assert (q.q11, q.q12, q.q21, q.q22) == (0, 1, 1, 0)


def test_weak_t_block_vs_infinity():
    ok, q = weakly_equivalent(build_finite(tp("t"), 1), build_infinity(1))
    assert ok
    assert (q.q11, q.q12, q.q21, q.q22) == (0, 1, 1, 0)


def test_weak_dimension_mismatch():
    ok, q = weakly_equivalent(build_infinity(1), build_infinity(2))
    assert not ok and q is None


def test_weak_transform_random_pairs():
    rng = random.Random(15)
    qs = list(gl2_enumerate(GF2))
    for _ in range(15):
        rho = random_class_function(GF2, rng, 10)
        pair = assemble(rho)
        if pair.dim == 0:
            continue
        s = random_invertible(GF2, rng, pair.dim)
        q = qs[rng.randrange(len(qs))]
        moved = transform_weak(pair, s, q)
        ok, _ = weakly_equivalent(pair, moved)
        assert ok


def test_weak_transform_gf4():
    rng = random.Random(17)
    qs = list(gl2_enumerate(GF4))
    for _ in range(6):
        rho = random_class_function(GF4, rng, 8)
        pair = assemble(rho)
        if pair.dim == 0:
            continue
        s = random_invertible(GF4, rng, pair.dim)
        q = qs[rng.randrange(len(qs))]
        ok, _ = weakly_equivalent(pair, transform_weak(pair, s, q))
        assert ok


def test_weak_mixed_fields_rejected():

    with pytest.raises(FieldError):
        weakly_equivalent(build_infinity(1), build_infinity(1, GF4))


def test_weak_negative_case():
    # x1^2+x1*x2+x2^2 is irreducible of degree 2; no GL(2,2) move sends it
    # to a pair of distinct linear points
    rho1 = rho_of(GF2, ((point_from_poly(tp("t^2+t+1")), 1), 1))
    rho2 = rho_of(GF2, ((BinaryForm.x1(GF2), 1), 1), ((BinaryForm.x2(GF2), 1), 1))
    ok, _ = weakly_equivalent(assemble(rho1), assemble(rho2))
    assert not ok


def test_relabel_matches_pair_transform():
    # relabel_class with Q equals decompose of the pair recombined through Q
    rng = random.Random(19)
    qs = list(gl2_enumerate(GF2))
    for _ in range(10):
        rho = random_class_function(GF2, rng, 10)
        pair = assemble(rho)
        if pair.dim == 0:
            continue
        q = qs[rng.randrange(len(qs))]
        moved = transform_weak(pair, Mat.identity(GF2, pair.dim), q)
        assert decompose(moved) == relabel_class(rho, q)


def weakly_equivalent_full_scan(rho_p, rho_r):
    """Reference: the first matching Q over all of GL(2), no prefilter."""
    for q in gl2_enumerate(rho_p.spec):
        if relabel_class(rho_p, q) == rho_r:
            return True, q
    return False, None


@pytest.mark.parametrize("k", [1, 2, 3])
def test_weakly_equivalent_matches_full_gl2_scan(k):
    spec = FieldSpec.gf(k)
    rng = random.Random(200 + k)
    qs = list(gl2_enumerate(spec))
    x1, x2 = BinaryForm.x1(spec), BinaryForm.x2(spec)
    # one orbit invariant, several orbits: x1, x2 and one quadratic point
    family = [
        assemble(rho_of(spec, ((x1, 1), 1), ((x2, 1), 1), ((point_from_poly(f), 1), 1)))
        for f in itertools.islice(monic_irreducibles(spec, 2), 6)
    ]
    cases = list(itertools.combinations(family, 2))
    # orbit partners through a random S and a random Q from all of GL(2)
    for _ in range({1: 8, 2: 6, 3: 3}[k]):
        pair = assemble(random_class_function(spec, rng, 10))
        if pair.dim:
            s = random_invertible(spec, rng, pair.dim)
            cases.append((pair, transform_weak(pair, s, qs[rng.randrange(len(qs))])))
    # pairs the orbit invariant tells apart
    cases.append((family[0], assemble(rho_of(spec, ((x1, 1), 1), ((x2, 1), 3)))))
    outcomes = set()
    for pair, other in cases:
        got = weakly_equivalent(pair, other)
        assert got == weakly_equivalent_full_scan(decompose(pair), decompose(other))
        outcomes.add(got[0])
    assert outcomes == {True, False}


def weak_cases(spec, rng, s):
    """A pair with s degree-1 points and two partners: its image under a
    random weak transform, and a pair with one point of the same degree
    moved off the support where one is free, which shares the orbit
    invariant and may or may not be weakly equivalent."""
    rho = anchored_class(spec, rng, s)
    pair = assemble(rho)
    moved = transform_weak(pair, random_invertible(spec, rng, pair.dim), random_gl2(spec, rng))
    points = [p for p, _, _ in rho.entries if p is not EPS]
    acc = {(p, n): m for p, n, m in rho.entries}
    if points:
        old = points[rng.randrange(len(points))]
        for _ in range(8):
            new = random_point(spec, rng, old.degree)
            if new not in points:
                acc = {(new if p == old else p, n): m for (p, n), m in acc.items()}
                break
    return [(pair, moved), (pair, assemble(ClassFunction.from_dict(spec, acc)))]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_weakly_equivalent_matches_pgl2_scan_every_anchor_count(k):
    spec = FieldSpec.gf(k)
    rng = random.Random(400 + k)
    # at k = 5 (above ENUMERATION_CAP_K) four degree-1 points, so that
    # moving one of them can leave the orbit
    counts = (4,) if k == 5 else anchor_counts(spec)
    outcomes = set()
    for s in counts:
        for pair, other in weak_cases(spec, rng, s):
            got = weakly_equivalent(pair, other)
            assert got == weakly_equivalent_scan(pair, other), s
            outcomes.add(got[0])
    # over GF(2) every moved point stays in the orbit; the full-scan test
    # above has the negative cases there
    assert outcomes == ({True} if k == 1 else {True, False})


def test_weakly_equivalent_at_k8():
    spec = FieldSpec.gf(8)
    rng = random.Random(408)
    pair = assemble(anchored_class(spec, rng, 3))
    q = random_gl2(spec, rng)
    ok, witness = weakly_equivalent(pair, transform_weak(pair, Mat.identity(spec, pair.dim), q))
    assert ok
    assert relabel_class(decompose(pair), witness) == relabel_class(decompose(pair), q)
