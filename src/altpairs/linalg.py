"""Dense exact matrix algebra over GF(2^k) and over GF(2^k)[t].

Matrices store raw field bitmasks row-major.  Rank, nullspace, inverse and
determinant run Gaussian elimination; over GF(2) the rows are packed into
int bitsets first, otherwise row operations read rows of
``FieldSpec.mul_table``.  Smith normal form of polynomial matrices uses
classical minimum-degree pivoting with exact division, on raw coefficient
data through the one polynomial kernel (``field`` for GF(2)[t] bitmasks,
``polyring`` for GF(2^k)[t] tuples).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from .field import FieldError, FieldSpec, _gf2_poly_divmod, _gf2_poly_submul
from .polyring import Poly, _poly_divmod, _poly_submul


class LinAlgError(ValueError):
    """Singular matrix or shape mismatch."""


@dataclass(frozen=True)
class Mat:
    """Matrix over GF(2^k); entries are raw bitmask values."""

    rows: tuple[tuple[int, ...], ...]
    cols: int
    spec: FieldSpec

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rows(spec: FieldSpec, rows: Iterable[Sequence[int]], cols: int | None = None) -> "Mat":
        rs = tuple(tuple(r) for r in rows)
        if rs:
            cols = len(rs[0]) if cols is None else cols
            if any(len(r) != cols for r in rs):
                raise LinAlgError("ragged rows")
        elif cols is None:
            cols = 0
        for r in rs:
            for v in r:
                spec.check(v)
        return Mat(rs, cols, spec)

    @staticmethod
    def zeros(spec: FieldSpec, nrows: int, ncols: int) -> "Mat":
        return Mat(tuple((0,) * ncols for _ in range(nrows)), ncols, spec)

    @staticmethod
    def identity(spec: FieldSpec, n: int) -> "Mat":
        return Mat(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n, spec)

    @staticmethod
    def block_diag(spec: FieldSpec, mats: Sequence["Mat"]) -> "Mat":
        total_r = sum(m.nrows for m in mats)
        total_c = sum(m.cols for m in mats)
        rows = [[0] * total_c for _ in range(total_r)]
        ro = co = 0
        for m in mats:
            for i, row in enumerate(m.rows):
                rows[ro + i][co : co + m.cols] = row
            ro += m.nrows
            co += m.cols
        return Mat(tuple(tuple(r) for r in rows), total_c, spec)

    # -- structure -----------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.cols)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def transpose(self) -> "Mat":
        return Mat(
            tuple(tuple(self.rows[i][j] for i in range(self.nrows)) for j in range(self.cols)),
            self.nrows,
            self.spec,
        )

    def submatrix(self, row_range: range, col_range: range) -> "Mat":
        return Mat(
            tuple(tuple(self.rows[i][j] for j in col_range) for i in row_range),
            len(col_range),
            self.spec,
        )

    def _check(self, other: "Mat") -> "Mat":
        if other.spec != self.spec:
            raise FieldError(f"mixed fields: {self.spec} vs {other.spec}")
        return other

    def __add__(self, other: "Mat") -> "Mat":
        other = self._check(other)
        if self.shape != other.shape:
            raise LinAlgError(f"shape mismatch {self.shape} vs {other.shape}")
        return Mat(
            tuple(tuple(a ^ b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)),
            self.cols,
            self.spec,
        )

    def scale(self, bits: int) -> "Mat":
        mul = self.spec.mul
        return Mat(tuple(tuple(mul(bits, v) for v in r) for r in self.rows), self.cols, self.spec)

    def __matmul__(self, other: "Mat") -> "Mat":
        other = self._check(other)
        if self.cols != other.nrows:
            raise LinAlgError(f"shape mismatch {self.shape} @ {other.shape}")
        spec = self.spec
        if spec.k == 1:
            packed = [_pack(r) for r in other.rows]
            out = []
            for row in self.rows:
                acc = 0
                for j, v in enumerate(row):
                    if v:
                        acc ^= packed[j]
                out.append(_unpack(acc, other.cols))
            return Mat(tuple(out), other.cols, spec)
        mul = spec.mul
        ocols = other.cols
        out_rows = []
        for row in self.rows:
            acc = [0] * ocols
            for j, v in enumerate(row):
                if v:
                    orow = other.rows[j]
                    for c in range(ocols):
                        w = orow[c]
                        if w:
                            acc[c] ^= mul(v, w)
            out_rows.append(tuple(acc))
        return Mat(tuple(out_rows), ocols, spec)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise LinAlgError("vector length mismatch")
        spec = self.spec
        mul = spec.mul
        return tuple(
            _xor_sum(mul(row[j], vec[j]) for j in range(self.cols)) for row in self.rows
        )

    def is_zero(self) -> bool:
        return all(v == 0 for r in self.rows for v in r)

    def __str__(self) -> str:
        return "\n".join(" ".join(f"{v:x}" for v in r) for r in self.rows)

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        return _rref_full(self)[1]

    def nullspace(self) -> list[tuple[int, ...]]:
        """Reduced-echelon canonical basis of the right kernel."""
        rref, _, pivots = _rref_full(self)
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for f in free:
            vec = [0] * self.cols
            vec[f] = 1
            for i, p in enumerate(pivots):
                vec[p] = rref[i][f]
            basis.append(tuple(vec))
        return basis

    def det(self) -> int:
        if self.nrows != self.cols:
            raise LinAlgError("determinant of a non-square matrix")
        spec = self.spec
        n = self.nrows
        if n == 0:
            return 1
        if spec.k == 1:
            work = [_pack(r) for r in self.rows]
            for col in range(n):
                piv = next((r for r in range(col, n) if work[r] >> col & 1), None)
                if piv is None:
                    return 0
                work[col], work[piv] = work[piv], work[col]
                for r in range(col + 1, n):
                    if work[r] >> col & 1:
                        work[r] ^= work[col]
            return 1
        work = [list(r) for r in self.rows]
        mul, inv = spec.mul, spec.inv
        detval = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if work[r][col]), None)
            if piv is None:
                return 0
            work[col], work[piv] = work[piv], work[col]
            pv = work[col][col]
            detval = mul(detval, pv)
            pinv = inv(pv)
            for r in range(col + 1, n):
                f = work[r][col]
                if f:
                    f = mul(f, pinv)
                    work[r] = [a ^ mul(f, b) for a, b in zip(work[r], work[col])]
        return detval

    def is_invertible(self) -> bool:
        return self.nrows == self.cols and self.det() != 0

    def inv(self) -> "Mat":
        if self.nrows != self.cols:
            raise LinAlgError("inverse of a non-square matrix")
        n = self.nrows
        spec = self.spec
        if spec.k == 1:
            work = [_pack(r) | (1 << (n + i)) for i, r in enumerate(self.rows)]
            row = 0
            for col in range(n):
                piv = next((r for r in range(row, n) if work[r] >> col & 1), None)
                if piv is None:
                    raise LinAlgError("matrix is singular")
                work[row], work[piv] = work[piv], work[row]
                for r in range(n):
                    if r != row and (work[r] >> col & 1):
                        work[r] ^= work[row]
                row += 1
            return Mat(tuple(_unpack(w >> n, n) for w in work), n, spec)
        mul, inv = spec.mul, spec.inv
        work = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(self.rows)]
        row = 0
        for col in range(n):
            piv = next((r for r in range(row, n) if work[r][col]), None)
            if piv is None:
                raise LinAlgError("matrix is singular")
            work[row], work[piv] = work[piv], work[row]
            pinv = inv(work[row][col])
            if pinv != 1:
                work[row] = [mul(pinv, v) for v in work[row]]
            for r in range(n):
                if r != row and work[r][col]:
                    f = work[r][col]
                    work[r] = [a ^ mul(f, b) for a, b in zip(work[r], work[row])]
            row += 1
        return Mat(tuple(tuple(w[n:]) for w in work), n, spec)


def _xor_sum(items) -> int:
    acc = 0
    for v in items:
        acc ^= v
    return acc


def _pack(row: Sequence[int]) -> int:
    acc = 0
    for j, v in enumerate(row):
        if v:
            acc |= 1 << j
    return acc


def _unpack(mask: int, n: int) -> tuple[int, ...]:
    return tuple(mask >> j & 1 for j in range(n))


def _rref_full(m: Mat) -> tuple[list[list[int]], int, list[int]]:
    """Reduced row echelon form; returns (rows, rank, pivot columns)."""
    spec = m.spec
    nr, nc = m.shape
    if spec.k == 1:
        work = [_pack(r) for r in m.rows]
        pivots = []
        row = 0
        for col in range(nc):
            piv = next((r for r in range(row, nr) if work[r] >> col & 1), None)
            if piv is None:
                continue
            work[row], work[piv] = work[piv], work[row]
            for r in range(nr):
                if r != row and (work[r] >> col & 1):
                    work[r] ^= work[row]
            pivots.append(col)
            row += 1
            if row == nr:
                break
        return [list(_unpack(w, nc)) for w in work], len(pivots), pivots
    rows, inv = spec.mul_table, spec.inv
    work = [list(r) for r in m.rows]
    pivots = []
    row = 0
    for col in range(nc):
        piv = next((r for r in range(row, nr) if work[r][col]), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        pinv = inv(work[row][col])
        if pinv != 1:
            prow = rows[pinv]
            work[row] = [prow[v] for v in work[row]]
        for r in range(nr):
            if r != row and work[r][col]:
                frow = rows[work[r][col]]
                work[r] = [a ^ frow[b] for a, b in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
        if row == nr:
            break
    return work, len(pivots), pivots


def congruence(s: Mat, a: Mat) -> Mat:
    """S A S^T for invertible S."""
    s._check(a)
    if s.nrows != s.cols or a.nrows != a.cols or s.cols != a.nrows:
        raise LinAlgError(f"shape mismatch for congruence: {s.shape} on {a.shape}")
    if not s.is_invertible():
        raise LinAlgError("congruence requires an invertible transform")
    return s @ a @ s.transpose()


# -- polynomial matrices and Smith normal form ---------------------------------


@dataclass(frozen=True)
class PolyMat:
    """Matrix over GF(2^k)[t]."""

    rows: tuple[tuple[Poly, ...], ...]
    cols: int
    spec: FieldSpec

    @staticmethod
    def from_rows(spec: FieldSpec, rows: Iterable[Sequence[Poly]], cols: int | None = None) -> "PolyMat":
        rs = tuple(tuple(r) for r in rows)
        if rs:
            cols = len(rs[0]) if cols is None else cols
            if any(len(r) != cols for r in rs):
                raise LinAlgError("ragged rows")
        elif cols is None:
            cols = 0
        for r in rs:
            for p in r:
                if p.spec != spec:
                    raise FieldError("entry field does not match matrix field")
        return PolyMat(rs, cols, spec)

    @staticmethod
    def pencil(a: Mat, b: Mat) -> "PolyMat":
        """The matrix t*a + b over GF(2^k)[t]."""
        a._check(b)
        if a.shape != b.shape:
            raise LinAlgError("pencil needs equal shapes")
        spec = a.spec
        rows = tuple(
            tuple(Poly.make(spec, (b.rows[i][j], a.rows[i][j])) for j in range(a.cols))
            for i in range(a.nrows)
        )
        return PolyMat(rows, a.cols, spec)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.cols)


def smith_form(pm: PolyMat) -> tuple[Poly, ...]:
    """Monic invariant factors d_1 | d_2 | ... | d_r over GF(2^k)[t].

    Classical elimination with minimum-degree pivoting and exact division;
    r is the rank over the rational function field.
    """
    return tuple(d.monic() for d in _smith_diagonal(pm))


def _smith_diagonal(pm: PolyMat) -> list[Poly]:
    """The nonzero diagonal that elimination leaves, not yet made monic.

    The entries are associates of the invariant factors, in the same order.
    Runs on raw coefficient data through the polynomial kernels: int
    bitmasks and the ``field`` GF(2)[t] kernel over GF(2), coefficient
    tuples and the ``polyring`` GF(2^k)[t] kernel otherwise.
    """
    spec = pm.spec
    if spec.k == 1:
        raw = [[p.bitmask() for p in row] for row in pm.rows]
        diagonal = _smith_raw(
            raw, pm.shape, int.bit_length, _gf2_poly_divmod, _gf2_poly_submul, 1
        )
        return [Poly.from_bitmask(spec, v) for v in diagonal]
    raw = [[p.coeffs for p in row] for row in pm.rows]
    rows = spec.mul_table
    # positional binding: keyword partials measurably slow the inner loop
    diagonal = _smith_raw(
        raw,
        pm.shape,
        len,
        partial(_poly_divmod, rows, spec.inv_table),
        partial(_poly_submul, rows),
        (1,),
    )
    return [Poly(v, spec) for v in diagonal]


def _smith_raw(m: list[list], shape: tuple[int, int], size, divmod_, submul, one) -> list:
    """Diagonalize m in place by unimodular row and column operations and
    return the nonzero diagonal.

    Entries are raw polynomials whose zero is falsy; ``size(p)`` is
    deg p + 1, ``divmod_`` and ``submul`` (a + q*b) are the kernel
    operations and ``one`` is the unit polynomial.
    """
    nr, nc = shape
    invariants = []
    for k in range(min(nr, nc)):
        while True:
            best = None
            best_size = None
            for i in range(k, nr):
                row = m[i]
                for j in range(k, nc):
                    p = row[j]
                    if p:
                        d = size(p)
                        if best_size is None or d < best_size:
                            best = (i, j)
                            best_size = d
                            if d == 1:
                                break
                if best_size == 1:
                    break
            if best is None:
                return invariants
            bi, bj = best
            if bi != k:
                m[k], m[bi] = m[bi], m[k]
            if bj != k:
                for row in m:
                    row[k], row[bj] = row[bj], row[k]
            pivot = m[k][k]
            clean = True
            for i in range(k + 1, nr):
                if m[i][k]:
                    q, _ = divmod_(m[i][k], pivot)
                    if q:
                        mk = m[k]
                        m[i] = [submul(a, q, b) for a, b in zip(m[i], mk)]
                    if m[i][k]:
                        clean = False
            for j in range(k + 1, nc):
                if m[k][j]:
                    q, _ = divmod_(m[k][j], pivot)
                    if q:
                        for i in range(k, nr):
                            m[i][j] = submul(m[i][j], q, m[i][k])
                    if m[k][j]:
                        clean = False
            if not clean:
                continue
            if size(pivot) == 1:
                break  # a unit divides everything
            offender = None
            for i in range(k + 1, nr):
                row = m[i]
                for j in range(k + 1, nc):
                    if row[j] and divmod_(row[j], pivot)[1]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            off = m[offender]
            m[k] = [submul(a, one, b) for a, b in zip(m[k], off)]
        invariants.append(m[k][k])
    return invariants
