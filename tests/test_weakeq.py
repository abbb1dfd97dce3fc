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
    monic_irreducibles,
    parse_form,
    parse_poly,
    point_from_poly,
)
from altpairs.weakeq import (
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
    random_alternating_pair,
    random_class_function,
    random_invertible,
)


def tp(text, spec=GF2):
    return parse_poly(spec, text)


def rho_of(spec, *entries):
    return ClassFunction.from_dict(spec, {key: mult for key, mult in entries})


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
        prod = q * q.inv()
        assert (prod.q11, prod.q12, prod.q21, prod.q22) == (1, 0, 0, 1)
    with pytest.raises(ValueError):
        GL2Element(1, 1, 1, 1, GF2)


# -- action on class functions ------------------------------------------------------


def test_act_identity():
    rho = random_class_function(GF2, random.Random(1), 12)
    assert act_on_class(GL2Element.identity(GF2), rho) == rho


def test_act_swap_moves_x2_to_x1():
    for n in (1, 2, 3):
        rho = rho_of(GF2, ((BinaryForm.x2(GF2), n), 1))
        moved = act_on_class(GL2Element.swap(GF2), rho)
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
    from altpairs.blocks import build_infinity_over

    with pytest.raises(FieldError):
        weakly_equivalent(build_infinity(1), build_infinity_over(GF4, 1))


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
