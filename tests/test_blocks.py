"""Canonical blocks and the residue-form oracle."""

import pytest

from altpairs.blocks import (
    AlternatingPair,
    BlockError,
    BlockId,
    build_finite,
    build_infinity,
    build_plus,
    companion,
    direct_sum,
)
from altpairs.linalg import Mat, smith_form
from altpairs.pencil import decompose, pfaffian_form, validate
from altpairs.polyring import EPS, BinaryForm, Poly, monic_irreducibles, parse_poly

from conftest import (
    GF2,
    GF4,
    GF16,
    GF512,
    monomial,
    res_at_infinity,
    residue_oracle,
    reverse_star,
    series_inverse_trunc,
    submatrix,
    transform_congruence,
)


def tp(text, spec=GF2):
    return parse_poly(spec, text)


# -- companion matrices ------------------------------------------------------------


def test_companion_convention():
    phi = companion(tp("t^2+t+1"))
    assert [list(r) for r in phi.rows] == [[0, 1], [1, 1]]


def test_companion_charpoly_via_smith():
    # product of the invariant factors of tI + Phi is the defining polynomial
    for text in ("t^3+t+1", "t^4+t^2+1", "t^2+t+1"):
        g = tp(text)
        phi = companion(g)
        inv = smith_form(Mat.identity(GF2, g.degree), phi)
        prod = Poly.one(GF2)
        for d in inv:
            prod = prod * d
        assert prod == g


def test_companion_rejects_nonmonic_or_constant():
    with pytest.raises(BlockError):
        companion(Poly.one(GF2))


# -- block constructions ------------------------------------------------------------


def test_build_finite_t_1():
    p = build_finite(tp("t"), 1)
    assert [list(r) for r in p.a.rows] == [[0, 1], [1, 0]]
    assert p.b.is_zero()


def test_build_finite_quadratic():
    p = build_finite(tp("t^2+t+1"), 1)
    assert p.dim == 4
    # upper-right block of B is the companion matrix [[0,1],[1,1]]
    assert [row[2:] for row in (list(r) for r in p.b.rows)][:2] == [[0, 1], [1, 1]]


def test_build_finite_dimension_formula():
    for d, text in ((1, "t+1"), (2, "t^2+t+1"), (3, "t^3+t+1")):
        for n in (1, 2, 3):
            assert build_finite(tp(text), n).dim == 2 * n * d


def test_build_finite_rejects_reducible():
    with pytest.raises(BlockError):
        build_finite(tp("t^2+1"), 1)  # (t+1)^2
    with pytest.raises(BlockError):
        build_finite(tp("t^2"), 1)


def test_build_infinity_small():
    p = build_infinity(1)
    assert p.a.is_zero()
    assert [list(r) for r in p.b.rows] == [[0, 1], [1, 0]]
    p2 = build_infinity(2)
    assert sum(v for r in p2.a.rows for v in r) == 2


def test_infinity_is_swapped_finite_t_block():
    for n in (1, 2, 3):
        inf = build_infinity(n)
        fin = build_finite(tp("t"), n)
        swapped = AlternatingPair(inf.b, inf.a)
        assert decompose(swapped) == decompose(fin)


@pytest.mark.parametrize("spec", [GF2, GF16, GF512], ids=str)
def test_infinity_block_equals_swapped_t_block(spec):
    # A = [[0, J], [J^T, 0]] with J the lower Jordan block and
    # B = [[0, I], [I, 0]], entry by entry, and equal to the finite block
    # for t^n with its two matrices swapped
    for n in (1, 2, 5):

        def paired(upper):
            top = [[0] * n + row for row in upper]
            return top + [[upper[j][i] for j in range(n)] + [0] * n for i in range(n)]

        jordan = [[int(j == i - 1) for j in range(n)] for i in range(n)]
        identity = [[int(j == i) for j in range(n)] for i in range(n)]
        inf = build_infinity(n, spec)
        assert inf.a == Mat.from_rows(spec, paired(jordan))
        assert inf.b == Mat.from_rows(spec, paired(identity))
        fin = build_finite(Poly.t(spec), n)
        assert inf == AlternatingPair(fin.b, fin.a)


def test_build_plus_degenerate():
    p = build_plus(0)
    assert p.dim == 1
    assert p.a.is_zero() and p.b.is_zero()


def test_build_plus_eps1_entries():
    p = build_plus(1)
    assert p.dim == 3
    nz_a = {(i, j) for i in range(3) for j in range(3) if p.a.rows[i][j]}
    nz_b = {(i, j) for i in range(3) for j in range(3) if p.b.rows[i][j]}
    assert nz_a == {(0, 1), (1, 0)}
    assert nz_b == {(0, 2), (2, 0)}


def test_build_plus_zero_pfaffian():
    assert pfaffian_form(build_plus(1)).is_zero()


def test_all_blocks_are_valid_pairs():
    blocks = [build_infinity(3), build_plus(2), build_finite(tp("t^3+t+1"), 1)]
    blocks.append(build_infinity(2, GF4))
    blocks.append(build_plus(1, GF4))
    blocks.append(build_finite(Poly.make(GF4, [2, 1]), 2))
    for b in blocks:
        assert validate(b).ok


def test_direct_sum():
    z = build_plus(0)
    s = direct_sum([z, z, z])
    assert s.dim == 3 and s.a.is_zero() and s.b.is_zero()
    one = build_finite(tp("t"), 1)
    assert direct_sum([one]).a.rows == one.a.rows
    mix = direct_sum([build_finite(tp("t"), 1), build_infinity(1)])
    assert [list(r) for r in mix.a.rows] == [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]
    assert [list(r) for r in mix.b.rows] == [
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]


def test_direct_sum_rejects_mixed_fields():
    with pytest.raises(BlockError):
        direct_sum([build_infinity(1), build_infinity(1, GF4)])


def test_direct_sum_empty_needs_spec():
    with pytest.raises(BlockError):
        direct_sum([])
    assert direct_sum([], spec=GF2).dim == 0


# -- residue oracle ------------------------------------------------------------------


def test_res_at_infinity_basics():
    g = tp("t^2+t+1")
    # residue of t^j/g is the t^(d-1) coefficient of t^j mod g
    assert res_at_infinity(monomial(GF2, 1), g) == 1
    assert res_at_infinity(monomial(GF2, 0), g) == 0
    # t^2 mod g = t + 1 -> coefficient of t^1 is 1
    assert res_at_infinity(monomial(GF2, 2), g) == 1


def test_residue_oracle_beta_toeplitz_shape():
    # the (u, v) Gram block is unitriangular Toeplitz in the series-inverse
    # coefficients of the reversed polynomial
    f = tp("t^2+t+1")
    pair = residue_oracle(f, 1)
    d = 2
    beta = series_inverse_trunc(reverse_star(f), d + 1)
    for l in range(d):
        for k in range(d):
            expected = beta.coeff(k - l) if k >= l else 0
            assert pair.a.rows[l][d + k] == expected
    # B block carries the shifted coefficients
    for l in range(d):
        for k in range(d):
            expected = beta.coeff(k - l + 1) if k >= l - 1 else 0
            assert pair.b.rows[l][d + k] == expected


def test_residue_oracle_uu_vv_blocks_vanish():
    for f, n in ((tp("t"), 2), (tp("t+1"), 2), (tp("t^2+t+1"), 2)):
        pair = residue_oracle(f, n)
        d = pair.dim // 2
        for m in pair.matrices:
            for i in range(d):
                for j in range(d):
                    assert m.rows[i][j] == 0
                    assert m.rows[d + i][d + j] == 0


def test_residue_oracle_congruent_to_built():
    for d in (1, 2):
        for f in monic_irreducibles(GF2, d):
            for n in (1, 2):
                assert decompose(residue_oracle(f, n)) == decompose(build_finite(f, n))


def test_residue_oracle_explicit_transform():
    # congruence by [[A^-1, 0], [0, I]] maps the oracle matrices exactly
    # onto the companion construction
    for d in (1, 2):
        for f in monic_irreducibles(GF2, d):
            for n in (1, 2):
                oracle = residue_oracle(f, n)
                built = build_finite(f, n)
                half = oracle.dim // 2
                ablk = submatrix(oracle.a, range(half), range(half, 2 * half))
                trans = Mat.block_diag(GF2, [ablk.inv(), Mat.identity(GF2, half)])
                moved = transform_congruence(oracle, trans)
                assert moved.a.rows == built.a.rows
                assert moved.b.rows == built.b.rows


def test_residue_oracle_gf4():
    f = Poly.make(GF4, [2, 1])  # t + t_gen
    oracle = residue_oracle(f, 2)
    built = build_finite(f, 2)
    assert decompose(oracle) == decompose(built)


# -- block ids -----------------------------------------------------------------------


def test_block_id_text_roundtrip():
    for text in ("fin:t^2+t+1^2", "fin:t^1", "inf:3", "plus:0", "plus:2"):
        bid = BlockId.parse(text)
        assert str(BlockId.parse(str(bid))) == str(bid)


def test_block_id_dims():
    assert BlockId.parse("fin:t^2+t+1^2").dim == 8
    assert BlockId.parse("inf:3").dim == 6
    assert BlockId.parse("plus:2").dim == 5


def test_block_id_points():
    # (point, n) labels with each point written out, against the parsed block
    labels = {
        GF2: [((1, 1, 1), 2, "fin:t^2+t+1^2"), ((0, 1), 1, "fin:t^1"), ((1, 0), 3, "inf:3")],
        GF4: [((2, 1, 1), 1, "fin:t^2+t+{2}^1"), ((2, 1), 2, "fin:t+{2}^2"), ((1, 0), 3, "inf:3")],
    }
    for spec, cases in labels.items():
        for coeffs, n, text in cases:
            assert BlockId.of_point(BinaryForm.make(spec, coeffs), n) == BlockId.parse(text, spec)
        assert BlockId.of_point(EPS, 1) == BlockId.parse("plus:0")
        assert BlockId.of_point(EPS, 3) == BlockId.parse("plus:2")
    with pytest.raises(BlockError):
        BlockId.of_point(BinaryForm.make(GF4, (0, 1, 0)), 1)  # x1 * x2 is no point


def test_block_id_build_matches_constructors():
    assert BlockId.parse("inf:2").build().b.rows == build_infinity(2).b.rows
    assert BlockId.parse("plus:1").build().a.rows == build_plus(1).a.rows


def test_block_id_rejects_bad_text():
    with pytest.raises(BlockError):
        BlockId.parse("fin:t^2+t+1")  # missing multiplicity
    with pytest.raises(BlockError):
        BlockId.parse("spam:1")
    for text in ("plus:abc", "inf:x", "inf:", "plus:-1", "inf:0"):
        with pytest.raises(BlockError):
            BlockId.parse(text)
