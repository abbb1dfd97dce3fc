"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 7 is split: the e = 2 half and the Table-consistency check pass;
the e = 1 half is implemented exactly as stated and marked as a strict
expected failure, because it is mathematically unattainable: a basis change
can flip the square of a lifted generator, and the e = 1 models of two
congruent pairs can be non-isomorphic groups (different involution counts).
See test_chernikov.py::test_brute_force_arf_counterexample_regression for
the 32-element counterexample.
"""

import random
import time

import pytest

from altpairs.blocks import AlternatingPair, build_finite, build_infinity
from altpairs.chernikov import (
    IsoObstructionError,
    iso_from_witness,
    presentation_from_class,
    presentation_from_tuple,
)
from altpairs.field import FieldSpec
from altpairs.linalg import Mat
from altpairs.pencil import (
    assemble,
    congruent,
    decompose,
    pfaffian_form,
)
from altpairs.polyring import (
    EPS,
    BinaryForm,
    monic_irreducibles,
    point_from_poly,
)
from altpairs.weakeq import (
    canonical_rep,
    gl2_enumerate,
    transform_weak,
    weakly_equivalent,
)

from conftest import (
    GF2,
    GF4,
    block_commutators_reference,
    brute_congruent,
    brute_weakly_equivalent,
    embed,
    form_value,
    pack_alternating,
    random_alternating_pair,
    random_class_function,
    random_invertible,
    random_weak_pairs_with_witness,
    submatrix,
    transform_congruence,
    unpack_alternating,
)


def report(num: int, name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    line = f"ACCEPTANCE {num} ({name}): PASS in {elapsed:.2f}s (budget {budget:.0f}s)"
    print(line)
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget: {elapsed:.2f}s"


# -- 1: Lemma-style reconstruction of finite blocks from residues -------------------


def test_criterion_1_residue_reconstruction():
    from conftest import residue_oracle

    started = time.perf_counter()
    checked = 0
    for d in (1, 2, 3):
        for f in monic_irreducibles(GF2, d):
            for n in (1, 2, 3):
                oracle = residue_oracle(f, n)
                built = build_finite(f, n)
                half = oracle.dim // 2
                ablk = submatrix(oracle.a, range(half), range(half, 2 * half))
                trans = Mat.block_diag(GF2, [ablk.inv(), Mat.identity(GF2, half)])
                moved = transform_congruence(oracle, trans)
                assert moved.a.rows == built.a.rows, (str(f), n)
                assert moved.b.rows == built.b.rows, (str(f), n)
                checked += 1
    assert checked == 15
    report(1, "residue oracle reconstruction", started, 1.0)


# -- 2: Pfaffian table and square identity ------------------------------------------


def _pfaffian_block_table(spec):
    x2 = BinaryForm.x2(spec)
    for n in range(1, 9):
        pair = build_infinity(n, spec)
        assert pfaffian_form(pair) == x2.power(n), ("inf", n)
    for d in (1, 2, 3, 4):
        for f in monic_irreducibles(spec, d):
            for n in range(1, 8 // d + 1):
                pair = build_finite(f, n)
                assert pair.dim <= 16
                assert pfaffian_form(pair) == point_from_poly(f).power(n), (str(f), n)


def _pfaffian_square_identity(spec, rng, count):
    ext = FieldSpec.gf(spec.k * (4 if spec.k == 1 else 3))
    emb = embed(spec, ext)
    for _ in range(count):
        n = rng.randrange(1, 13)
        pair = random_alternating_pair(spec, rng, n)
        pf = pfaffian_form(pair)
        a_ext = Mat.from_rows(ext, [[emb.map(v) for v in r] for r in pair.a.rows], n)
        b_ext = Mat.from_rows(ext, [[emb.map(v) for v in r] for r in pair.b.rows], n)
        pf_ext = BinaryForm.make(ext, tuple(emb.map(c) for c in pf.coeffs))
        for _ in range(n + 3):
            x1 = rng.randrange(ext.order)
            x2 = rng.randrange(ext.order)
            detval = (a_ext.scale(x1) + b_ext.scale(x2)).det()
            pv = 0 if pf_ext.is_zero() else form_value(pf_ext, x1, x2)
            assert ext.mul(pv, pv) == detval


def test_criterion_2_pfaffian():
    started = time.perf_counter()
    _pfaffian_block_table(GF2)
    rng = random.Random(0xACC2)
    _pfaffian_square_identity(GF2, rng, 200)
    report(2, "pfaffian table and square identity", started, 5.0)


# -- 3: decomposition round-trip -----------------------------------------------------


def _roundtrip(spec, rng, count, max_dim=24):
    for _ in range(count):
        rho = random_class_function(spec, rng, max_dim)
        pair = assemble(rho)
        if pair.dim == 0:
            assert decompose(pair) == rho
            continue
        s = random_invertible(spec, rng, pair.dim)
        assert decompose(transform_congruence(pair, s)) == rho


def test_criterion_3_decomposition_roundtrip():
    started = time.perf_counter()
    _roundtrip(GF2, random.Random(0xACC3), 500)
    report(3, "decomposition round-trip x500", started, 30.0)


# -- 4: congruence vs exhaustive search ----------------------------------------------


def test_criterion_4_congruence_oracle():
    started = time.perf_counter()
    # dimension 3: all 2^3 x 2^3 alternating pairs, all ordered pairs of them
    pairs3 = []
    for abits in range(8):
        for bbits in range(8):
            pairs3.append((unpack_alternating(abits, 3), unpack_alternating(bbits, 3)))
    rhos = [decompose(AlternatingPair(a, b)) for a, b in pairs3]
    packed = [(pack_alternating(a), pack_alternating(b)) for a, b in pairs3]
    for i, (pa, pb) in enumerate(packed):
        for j, (ra, rb) in enumerate(packed):
            assert (rhos[i] == rhos[j]) == brute_congruent(pa, pb, ra, rb, 3), (i, j)
    # dimension 4: 100 random pairs, half related by construction
    rng = random.Random(0xACC4)
    for trial in range(100):
        p = random_alternating_pair(GF2, rng, 4)
        if trial % 2 == 0:
            r = random_alternating_pair(GF2, rng, 4)
        else:
            r = transform_congruence(p, random_invertible(GF2, rng, 4))
        expected = brute_congruent(
            pack_alternating(p.a), pack_alternating(p.b),
            pack_alternating(r.a), pack_alternating(r.b), 4,
        )
        assert congruent(p, r) == expected, trial
    report(4, "congruence vs exhaustive GL(n,2)", started, 120.0)


# -- 5: weak equivalence vs exhaustive search ------------------------------------------


def test_criterion_5_weak_equivalence_oracle():
    started = time.perf_counter()
    rng = random.Random(0xACC5)
    qs = list(gl2_enumerate(GF2))
    for trial in range(100):
        n = rng.randrange(1, 5)
        p = random_alternating_pair(GF2, rng, n)
        kind = trial % 3
        if kind == 0:
            r = random_alternating_pair(GF2, rng, n)
        elif kind == 1:
            r = transform_weak(
                p, random_invertible(GF2, rng, n), qs[rng.randrange(len(qs))]
            )
        else:
            r = AlternatingPair(p.b, p.a)
        expected = brute_weakly_equivalent(
            pack_alternating(p.a), pack_alternating(p.b),
            pack_alternating(r.a), pack_alternating(r.b), n,
        )
        got, witness = weakly_equivalent(p, r)
        assert got == expected, trial
        if got:
            moved = transform_weak(p, Mat.identity(GF2, n), witness)
            assert congruent(moved, r)
    report(5, "weak equivalence vs exhaustive GL(n,2) x GL(2,2)", started, 300.0)


# -- 6: orbit sanity -------------------------------------------------------------------


def test_criterion_6_orbit_sanity():
    started = time.perf_counter()
    from altpairs.pencil import ClassFunction
    from conftest import parse_form
    from altpairs.polyring import moebius_act

    points = [parse_form(GF2, t) for t in ("x1", "x2", "x1+x2")]
    # one orbit of the projective line under GL(2,2)
    orbit = {
        tuple(moebius_act(q.rows(), points[0], GF2).coeffs) for q in gl2_enumerate(GF2)
    }
    assert orbit == {(0, 1), (1, 0), (1, 1)}
    reps = []
    for pt in points:
        rho = ClassFunction.from_dict(GF2, {(pt, 1): 1})
        reps.append(canonical_rep(rho)[0])
    assert reps[0] == reps[1] == reps[2]
    eps_rho = ClassFunction.from_dict(GF2, {(EPS, 1): 1})
    rep, witness = canonical_rep(eps_rho)
    assert rep == eps_rho
    assert (witness.q11, witness.q12, witness.q21, witness.q22) == (1, 0, 0, 1)
    report(6, "projective orbit sanity", started, 5.0)


# -- 7: group layer --------------------------------------------------------------------


def test_criterion_7_group_layer_e2_and_table():
    started = time.perf_counter()
    # Table-derived presentations (hand-written tables in conftest) match
    # the block matrices for d <= 4
    cases = []
    for d in (1, 2, 3, 4):
        for f in monic_irreducibles(GF2, d):
            for n in range(1, 4 // d + 1):
                cases.append({(point_from_poly(f), n): 1})
    for n in (1, 2, 3, 4):
        cases.append({(BinaryForm.x2(GF2), n): 1})
    for eps in (0, 1, 2, 3):
        cases.append({(EPS, eps + 1): 1})
    from altpairs.pencil import ClassFunction

    for data in cases:
        rho = ClassFunction.from_dict(GF2, data)
        assert presentation_from_class(rho) == block_commutators_reference(rho)
    # 50 random weakly equivalent pairs, witness isomorphisms at e = 2,
    # each checked inside iso_from_witness by the exact certificate of
    # verify_quotient_map; orders stay <= 2^12, where test_chernikov.py
    # checks the certificate against the exhaustive oracle on these maps
    rng = random.Random(0xACC7)
    for pair, moved, s, q in random_weak_pairs_with_witness(rng, 50):
        p1 = presentation_from_tuple(list(pair.matrices))
        p2 = presentation_from_tuple(list(moved.matrices))
        qmap = iso_from_witness(p1, p2, s, q, 2)
        assert qmap.src.order == qmap.dst.order <= 1 << 12
    report(7, "group layer at e=2 + block/table consistency", started, 180.0)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated at e = 1: the prescribed witness map needs a "
        "half-socle square root that only exists for e >= 2, and the e = 1 "
        "models of weakly equivalent pairs can even be non-isomorphic groups "
        "(extraspecial-type counterexample with involution counts 39 vs 23); "
        "see the decision ledger and the chernikov regression test"
    ),
)
def test_criterion_7_group_layer_e1_as_stated():
    rng = random.Random(0xACC7)
    for pair, moved, s, q in random_weak_pairs_with_witness(rng, 50):
        p1 = presentation_from_tuple(list(pair.matrices))
        p2 = presentation_from_tuple(list(moved.matrices))
        try:
            iso_from_witness(p1, p2, s, q, 1)
        except IsoObstructionError as exc:
            print(
                "ACCEPTANCE 7 (group layer at e=1): FAIL - documented "
                f"obstruction: {exc}"
            )
            raise AssertionError(str(exc)) from exc


# -- 8: field generality (criteria 2 and 3 over GF(4)) -----------------------------------


def test_criterion_8_gf4():
    started = time.perf_counter()
    x2 = BinaryForm.x2(GF4)
    for n in range(1, 9):
        assert pfaffian_form(build_infinity(n, GF4)) == x2.power(n)
    for d in (1, 2):
        for f in monic_irreducibles(GF4, d):
            for n in range(1, 8 // d + 1):
                assert pfaffian_form(build_finite(f, n)) == point_from_poly(f).power(n)
    rng = random.Random(0xACC8)
    _pfaffian_square_identity(GF4, rng, 200)
    _roundtrip(GF4, rng, 500)
    report(8, "criteria 2-3 over GF(4)", started, 60.0)
