"""Exact matrix algebra and Smith normal form."""

import random
from functools import reduce
from operator import xor

import pytest

from altpairs import linalg
from altpairs.blocks import build_finite, direct_sum
from altpairs.cli import format_pair_document, parse_pair_document
from altpairs.field import FieldError, FieldSpec
from altpairs.linalg import LinAlgError, Mat, _nullities, _rref, _smith_diagonal, congruence, smith_form
from altpairs.pencil import _charpoly_root, assemble
from altpairs.polyring import (
    Poly,
    factor,
    monic_irreducibles,
    parse_poly,
)

from conftest import (
    GF2,
    GF4,
    GF16,
    GF512,
    charpoly_reference,
    kernel_mutants,
    krylov_degree_reference,
    mat_apply,
    nullspace,
    random_alternating,
    random_alternating_pair,
    random_class_function,
    random_invertible,
    random_matrix,
    reverse_star,
    rref_reference,
    series_inverse_trunc,
    smith_reference,
    transform_congruence,
)


def test_rank_identity():
    for n in (0, 1, 4, 7):
        assert Mat.identity(GF2, n).rank() == n
        assert Mat.identity(GF4, n).rank() == n


def test_nullspace_zero_matrix():
    basis = nullspace(Mat.zeros(GF2, 1, 2))
    assert len(basis) == 2
    assert basis == [(1, 0), (0, 1)]


def test_nullspace_is_kernel():
    rng = random.Random(23)
    for spec in (GF2, GF4):
        for _ in range(40):
            m = random_matrix(spec, rng, rng.randrange(1, 6), rng.randrange(1, 6))
            basis = nullspace(m)
            assert len(basis) == m.cols - m.rank()
            for v in basis:
                assert all(x == 0 for x in mat_apply(m, v))


def test_inverse_roundtrip():
    rng = random.Random(9)
    for spec in (GF2, GF4, GF16, GF512):
        for n in (1, 2, 5):
            s = random_invertible(spec, rng, n)
            assert (s @ s.inv()).rows == Mat.identity(spec, n).rows


def test_inverse_of_singular_raises():
    with pytest.raises(LinAlgError):
        Mat.zeros(GF2, 2, 2).inv()


def test_inverse_refusals_at_every_field():
    # rank n - 1 (one row a combination of the others) and a non-square
    # matrix, with field tables (k <= 8) and without them (k = 9)
    rng = random.Random(0x1E7)
    for spec in (GF2, GF4, GF16, GF512):
        for n in (2, 5):
            rows = list(random_invertible(spec, rng, n).packed)
            rows[0] = reduce(xor, [spec.packing.mul(rng.randrange(spec.order), r) for r in rows[1:]])
            rng.shuffle(rows)
            m = Mat(tuple(rows), n, spec)
            assert rref_reference(m)[1] == n - 1
            with pytest.raises(LinAlgError, match="singular"):
                m.inv()
        with pytest.raises(LinAlgError, match="non-square"):
            random_matrix(spec, rng, 2, 3).inv()


def test_det_multiplicative():
    rng = random.Random(31)
    for spec in (GF2, GF4, GF16, GF512):
        for _ in range(30):
            n = rng.randrange(1, 5)
            a = random_matrix(spec, rng, n, n)
            b = random_matrix(spec, rng, n, n)
            assert (a @ b).det() == spec.mul(a.det(), b.det())


def test_congruence_identity():
    a = random_alternating(GF2, random.Random(1), 4)
    assert congruence(Mat.identity(GF2, 4), a).rows == a.rows


def test_congruence_permutation_preserves_alternating():
    p = Mat.from_rows(GF2, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    a = random_alternating(GF2, random.Random(2), 3)
    c = congruence(p, a)
    for i in range(3):
        assert c.rows[i][i] == 0
        for j in range(3):
            assert c.rows[i][j] == c.rows[j][i]


def test_congruence_shear_example():
    s = Mat.from_rows(GF2, [[1, 1], [0, 1]])
    a = Mat.from_rows(GF2, [[0, 1], [1, 0]])
    assert congruence(s, a).rows == ((0, 1), (1, 0))


def test_congruence_rejects_singular():
    s = Mat.zeros(GF2, 2, 2)
    a = Mat.from_rows(GF2, [[0, 1], [1, 0]])
    with pytest.raises(LinAlgError):
        congruence(s, a)


def test_congruence_composition():
    rng = random.Random(4)
    for spec in (GF2, GF4):
        for _ in range(20):
            n = rng.randrange(1, 8)
            s1 = random_invertible(spec, rng, n)
            s2 = random_invertible(spec, rng, n)
            a = random_alternating(spec, rng, n)
            assert congruence(s1 @ s2, a).rows == congruence(s1, congruence(s2, a)).rows


def test_congruence_preserves_alternating_random():
    rng = random.Random(6)
    for spec in (GF2, GF4):
        for _ in range(25):
            n = rng.randrange(1, 13)
            s = random_invertible(spec, rng, n)
            c = congruence(s, random_alternating(spec, rng, n))
            for i in range(n):
                assert c.rows[i][i] == 0
                for j in range(i):
                    assert c.rows[i][j] == c.rows[j][i]


def test_beta_alpha_triangular_inverse():
    # the unitriangular Toeplitz matrix in the series-inverse coefficients
    # inverts to the one in the original coefficients (f = t^2+t+1, n = 1)
    g = parse_poly(GF2, "t^2+t+1")
    gstar = reverse_star(g)
    beta = series_inverse_trunc(gstar, g.degree + 1)
    d = g.degree

    def toeplitz(coeffs: Poly) -> Mat:
        return Mat.from_rows(
            GF2, [[coeffs.coeff(j - i) if j >= i else 0 for j in range(d)] for i in range(d)]
        )

    assert toeplitz(beta).inv().rows == toeplitz(gstar).rows


# -- Smith normal form -----------------------------------------------------------


def tpoly(text: str, spec=GF2) -> Poly:
    return parse_poly(spec, text)


def test_smith_empty():
    assert smith_form(Mat.zeros(GF2, 0, 0), Mat.zeros(GF2, 0, 0)) == ()


def test_smith_finite_block_pencil():
    pair = build_finite(tpoly("t^2+t+1"), 1)
    inv = smith_form(pair.a, pair.b)
    one = Poly.one(GF2)
    f = tpoly("t^2+t+1")
    assert inv == (one, one, f, f)


def test_smith_rejects_mismatched_pencils():
    with pytest.raises(LinAlgError):
        smith_form(Mat.zeros(GF2, 2, 3), Mat.zeros(GF2, 3, 2))
    with pytest.raises(FieldError):
        smith_form(Mat.zeros(GF2, 2, 2), Mat.zeros(GF4, 2, 2))


def test_smith_invariant_under_unimodular():
    # P (tA + B) Q = t PAQ + PBQ for constant invertible P and Q keeps the
    # invariant factors
    rng = random.Random(29)
    for spec in (GF2, GF4, GF16, GF512):
        for _ in range(15):
            nr = rng.randrange(1, 6)
            nc = rng.randrange(1, 6)
            a = random_matrix(spec, rng, nr, nc)
            make = _rank_deficient if rng.randrange(2) else random_matrix
            b = make(spec, rng, nr, nc)
            p = random_invertible(spec, rng, nr)
            q = random_invertible(spec, rng, nc)
            assert smith_form(p @ a @ q, p @ b @ q) == smith_form(a, b)


def test_matmul_shapes_and_errors():
    a = Mat.zeros(GF2, 2, 3)
    b = Mat.zeros(GF2, 3, 4)
    assert (a @ b).shape == (2, 4)
    with pytest.raises(LinAlgError):
        b @ a @ a
    with pytest.raises(Exception):
        Mat.zeros(GF2, 2, 2) + Mat.zeros(GF4, 2, 2)


def test_generic_and_packed_paths_agree():
    # products of packed rows must match the schoolbook product entry for entry
    rng = random.Random(44)
    for spec in (GF2, GF4, GF16, GF512):
        for _ in range(20):
            n = rng.randrange(1, 6)
            a = random_matrix(spec, rng, n, n)
            b = random_matrix(spec, rng, n, n)
            prod_packed = a @ b
            mul = spec.mul
            rows_a, rows_b = a.rows, b.rows
            expected = [[0 for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    acc = 0
                    for k in range(n):
                        acc ^= mul(rows_a[i][k], rows_b[k][j])
                    expected[i][j] = acc
            assert [list(r) for r in prod_packed.rows] == expected


@pytest.mark.parametrize("spec", [GF2, GF4, GF16, FieldSpec.gf(8), GF512], ids=str)
def test_times_matches_entrywise_product(spec):
    # a packed row x times a matrix, read off x's slots in place, against the
    # product entry by entry over mul_table and Mat.rows: x = 0, no rows
    # (n = 0), x whose top slots are zero (the early stop), and the tables
    # both built and stood in
    rng = random.Random(61 + spec.k)
    pk, rows = spec.packing, spec.packing.mul_table
    for n, m in [(0, 0), (0, 3), (1, 1), (3, 5), (8, 8), (13, 6)]:
        mat = random_matrix(spec, rng, n, m)
        for uses in (1, 1 << spec.k):
            tables = [pk.multiples(r, uses) for r in mat.packed]
            for top in range(n + 1):  # x is zero from slot top on
                x = [rng.randrange(spec.order) for _ in range(top)] + [0] * (n - top)
                expected = [reduce(xor, (rows[c][row[j]] for c, row in zip(x, mat.rows)), 0) for j in range(m)]
                assert linalg._times(pk, pk.pack(x), tables) == pk.pack(expected), (n, m, top)


@pytest.mark.parametrize("spec", [GF2, GF16, GF512], ids=str)
def test_times_mutant_is_killed(spec, monkeypatch):
    # _times without its last slot, patched under both names that reach it,
    # fails test_times_matches_entrywise_product
    for owner, name, fn in kernel_mutants():
        monkeypatch.setattr(owner, name, fn)
    with pytest.raises(AssertionError):
        test_times_matches_entrywise_product(spec)


def _canonical(m: Mat) -> Mat:
    """m, after checking that its packed rows are the ones ``from_rows``
    builds from its entries: reduced slots and no bit past the last column,
    so that equality and hash of packed rows are those of the entries."""
    again = Mat.from_rows(m.spec, m.rows, m.cols)
    assert again == m and hash(again) == hash(m), (m.shape, m.packed, again.packed)
    return m


@pytest.mark.parametrize("spec", [GF2, GF4, GF16, GF512], ids=str)
def test_every_operation_yields_canonical_packed_rows(spec):
    rng = random.Random(spec.k)
    # the transpose pads both sides to a power of two: sides below, at and above one
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4)]
    shapes += [(7, 8), (9, 8), (8, 17), (1, 33), (33, 1)]
    for r, c in shapes:
        a = _canonical(random_matrix(spec, rng, r, c))
        b = _canonical(random_matrix(spec, rng, r, c))
        _canonical(Mat.zeros(spec, r, c))
        assert _canonical(a + b).rows == tuple(tuple(map(xor, x, y)) for x, y in zip(a.rows, b.rows))
        for bits in (0, 1, spec.order - 1, rng.randrange(spec.order)):
            scaled = _canonical(a.scale(bits))
            assert scaled.rows == tuple(tuple(spec.mul(bits, v) for v in row) for row in a.rows)
        at = _canonical(a.transpose())
        assert at.shape == (c, r) and at.rows == (tuple(zip(*a.rows)) if r else ((),) * c)
        assert at.transpose() == a
        _canonical(a @ random_matrix(spec, rng, c, 3))
        _canonical(random_matrix(spec, rng, 2, r) @ a)
        parts = [a, b.transpose(), Mat.zeros(spec, 0, 2), Mat.zeros(spec, 2, 0)]
        _canonical(Mat.block_diag(spec, parts))
    for n in (0, 1, 4, 9):
        _canonical(Mat.identity(spec, n))
        _canonical(random_invertible(spec, rng, n).inv())
    pair = random_alternating_pair(spec, rng, 6)
    # uppercase digits, leading zeros and tabs take the parser off its fast path
    lines = [f"field {spec}", "dim 6"]
    for name, m in zip("AB", pair.matrices):
        lines += [f"matrix {name}"] + ["\t".join(f"0{v:X}" for v in row) for row in m.rows]
    for doc in (format_pair_document(pair), "\n".join(lines)):
        parsed = [_canonical(m) for _, m in parse_pair_document(doc).matrices]
        assert parsed == list(pair.matrices)


# -- packed rows against the entry-at-a-time references ---------------------------


def _rank_deficient(spec, rng, nrows, ncols):
    """X @ Y with X of nrows x r and r < min(nrows, ncols)."""
    r = rng.randrange(0, max(1, min(nrows, ncols)))
    return random_matrix(spec, rng, nrows, r) @ random_matrix(spec, rng, r, ncols)


def _lead_product(spec, diagonal):
    c = 1
    for d in diagonal:
        c = spec.mul(c, d.leading)
    return c


def assert_smith_matches_reference(a: Mat, b: Mat) -> list[Poly]:
    got = _smith_diagonal(a, b)
    ref = smith_reference(a, b)
    assert [d.monic() for d in got] == [d.monic() for d in ref]
    inv = smith_form(a, b)
    assert inv == tuple(d.monic() for d in ref)
    assert all((e % d).is_zero() for d, e in zip(inv, inv[1:]))
    if a.nrows == a.cols == len(ref):
        # both multiply out to det(tA + B)
        assert _lead_product(a.spec, got) == _lead_product(a.spec, ref)
    return got


@pytest.mark.parametrize("spec", [GF2, GF4, GF16, GF512], ids=str)
def test_smith_matches_reference_random_pencils(spec):
    rng = random.Random(71 + spec.k)
    for n in range(0, 21):
        m = n + rng.randrange(1, 4)
        pencils = [
            (random_matrix(spec, rng, n, n), random_matrix(spec, rng, n, n)),
            (random_matrix(spec, rng, n, m), random_matrix(spec, rng, n, m)),
            (random_matrix(spec, rng, m, n), random_matrix(spec, rng, m, n)),
            (_rank_deficient(spec, rng, n, n), _rank_deficient(spec, rng, n, n)),
            (random_alternating(spec, rng, n), random_alternating(spec, rng, n)),
        ]
        for a, b in pencils:
            assert_smith_matches_reference(a, b)


@pytest.mark.parametrize("spec", [GF2, GF4, GF16], ids=str)
def test_smith_matches_reference_scrambled_canonical_sums(spec):
    # finite blocks with n >= 4 have an invariant factor g^n of degree >= 4,
    # so the entries outgrow the four slots a linear pencil starts with
    rng = random.Random(73 + spec.k)
    points = [g for d in (1, 2) for g in monic_irreducibles(spec, d)]
    for _ in range(4):
        blocks = [build_finite(rng.choice(points[:4]), rng.randrange(4, 7))]
        rho = random_class_function(spec, rng, 8)
        pair = direct_sum(blocks + [assemble(rho)], spec=spec)
        pair = transform_congruence(pair, random_invertible(spec, rng, pair.dim))
        for a, b in ((pair.a, pair.b), (pair.b, pair.a)):
            got = assert_smith_matches_reference(a, b)
            if a is pair.a:
                assert max(d.degree for d in got) >= 4


@pytest.mark.parametrize("spec", [GF2, GF4, GF16, GF512], ids=str)
def test_rank_and_nullspace_match_reference(spec):
    rng = random.Random(79 + spec.k)
    for _ in range(30):
        nr, nc = rng.randrange(0, 21), rng.randrange(0, 21)
        make = random_matrix if rng.randrange(2) else _rank_deficient
        m = make(spec, rng, nr, nc)
        rref, rank, pivots = rref_reference(m)
        assert m.rank() == rank
        expected = []
        for f in (c for c in range(nc) if c not in pivots):
            vec = [0] * nc
            vec[f] = 1
            for i, p in enumerate(pivots):
                vec[p] = rref[i][f]
            expected.append(tuple(vec))
        assert nullspace(m) == expected
        if nr == nc:
            assert (m.det() != 0) == (rank == nr)


@pytest.mark.parametrize("spec", [GF2, GF16, GF512], ids=str)
def test_rref_reduced_at_any_rank(spec):
    # reduced=True on rows [M | N] pivoted on M's columns, at rank below n
    # and at full rank: M's columns become M's reduced echelon form with the
    # reference's pivots, the rows span what they spanned before, and the
    # product of pivot values is that of the pass down, det M at full rank
    rng = random.Random(0x4EF + spec.k)
    pk = spec.packing
    deficient = 0
    for _ in range(24):
        n = rng.randrange(1, 13)
        m = (random_matrix if rng.randrange(2) else _rank_deficient)(spec, rng, n, n)
        tail = random_matrix(spec, rng, n, n)
        rows = [a | b << (n * pk.w) for a, b in zip(m.packed, tail.packed)]
        work = list(rows)
        pivots, det = _rref(pk, work, n)
        ref_rows, rank, ref_pivots = rref_reference(m)
        assert pivots == ref_pivots
        low = (1 << n * pk.w) - 1
        assert Mat(tuple(r & low for r in work), n, spec).rows == tuple(map(tuple, ref_rows))
        spans = [rref_reference(Mat(tuple(vs), 2 * n, spec))[1] for vs in (rows, work, rows + work)]
        assert spans == [spans[0]] * 3
        assert det == _rref(pk, list(rows), n, reduced=False)[1]
        if rank == n:
            assert det == m.det() != 0
        deficient += rank < n
    assert deficient >= 8


# -- characteristic polynomial by Krylov sequences ------------------------------------


def _conjugates(spec, rng, m):
    """m, P m P^-1 for a random permutation P and S m S^-1 for a random
    invertible S: the Krylov sequences of unit vectors then cross the blocks."""
    n = m.nrows
    order = rng.sample(range(n), n)
    p = Mat.from_rows(spec, [[int(j == i) for j in range(n)] for i in order], n)
    s = random_invertible(spec, rng, n)
    return [m, p @ m @ p.transpose(), s @ m @ s.inv()]


def _derogatory(spec, rng):
    """Matrices with repeated invariant factors, so that a single Krylov
    sequence cannot span: zero, scalar, nilpotent, and block-diagonal with
    repeated blocks."""
    n = 7
    nilpotent = Mat.from_rows(
        spec, [[rng.randrange(spec.order) if j > i else 0 for j in range(n)] for i in range(n)], n
    )
    c, d = random_matrix(spec, rng, 2, 2), random_matrix(spec, rng, 3, 3)
    return [
        Mat.zeros(spec, n, n),
        Mat.identity(spec, n).scale(rng.randrange(1, spec.order)),
        nilpotent,
        Mat.block_diag(spec, [c, c, c]),
        Mat.block_diag(spec, [d, c, d]),
    ]


@pytest.mark.parametrize("spec", [GF2, GF4, GF16, GF512], ids=str)
def test_charpoly_is_the_product_of_the_invariant_factors(spec):
    # h = sqrt(det(tI + M + M)) from the Krylov sequences of M + M, whose
    # divisors pair up by construction, against det(tI + M) by the monic
    # Smith diagonal of tI + M by entries, on both branches of h, and
    # Cayley-Hamilton: chi(M) = 0
    rng = random.Random(83 + spec.k)
    assert _charpoly_root(spec, []) == Poly.one(spec)
    mats = [random_matrix(spec, rng, n, n) for n in (1, 2, 3, 6, 9)] + _derogatory(spec, rng)
    shortcuts = set()
    for m in (c for base in mats for c in _conjugates(spec, rng, base)):
        n, double = m.nrows, Mat.block_diag(spec, [m, m])
        chi = _charpoly_root(spec, list(double.packed))
        assert chi == charpoly_reference(m)
        shortcuts.add(krylov_degree_reference(double) == n)
        value = Mat.zeros(spec, n, n)
        for c in reversed(chi.coeffs):
            value = value @ m + Mat.identity(spec, n).scale(c)
        assert not any(value.packed)
    assert shortcuts == {True, False}


@pytest.mark.parametrize("spec", [GF2, GF4, GF16, GF512], ids=str)
def test_nullities_match_ranks_of_powers(spec):
    # dim ker f(M)^j from echelon bases against n - rank of f(M)^j by
    # matrix products, for each irreducible f of chi, until the kernel stops
    # growing (an unreachable top) and up to a top reached on the way
    rng = random.Random(97 + spec.k)
    pk = spec.packing
    mats = [random_matrix(spec, rng, n, n) for n in (2, 5, 8)] + _derogatory(spec, rng)
    for m in (c for base in mats for c in _conjugates(spec, rng, base)):
        n = m.nrows
        rows = [pk.pack(r) for r in m.rows]
        for f, _ in factor(charpoly_reference(m)):
            value = Mat.zeros(spec, n, n)
            for c in reversed(f.coeffs):
                value = value @ m + Mat.identity(spec, n).scale(c)
            power, expected = value, [n - value.rank()]
            while len(expected) < 2 or expected[-1] != expected[-2]:
                power = power @ value
                expected.append(n - power.rank())
            assert _nullities(pk, rows, n, f, n + 1) == expected
            assert _nullities(pk, rows, n, f, expected[0]) == expected[:1]
