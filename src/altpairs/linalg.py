"""Dense exact matrix algebra over GF(2^k), and the Smith normal form of
pencils t*A + B over GF(2^k)[t].

Matrices store raw field bitmasks row-major.  Elimination packs each row
into one int with the field's GF(2^k)[t] kernel (``FieldSpec.packing``, whose
reduction masks widen to any row length): over GF(2^k) entry j sits in slot
j, so adding a multiple of the pivot row to another row is one xor of that
row with an entry of the pivot row's table of multiples
(``Packing.multiples``; below its cost threshold the entry is one kernel
product), however many columns there are.  Rank, kernels, determinant and
inverse share one elimination, ``_rref``, and ``_charpoly`` reduces Krylov
sequences against one echelon of such rows.  The Smith form reads t*A + B
straight from the rows of A and B and gives each entry a field of several
slots, so a row operation with a polynomial multiplier is one xor per
coefficient of the multiplier, and each diagonal entry is already the packed
int of a ``Poly``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import xor
from typing import Iterable, Sequence

from .field import FieldError, FieldSpec, Packing
from .polyring import Poly


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

    def transpose(self) -> "Mat":
        return Mat(
            tuple(tuple(self.rows[i][j] for i in range(self.nrows)) for j in range(self.cols)),
            self.nrows,
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
        row = self.spec.mul_table[bits]
        return Mat(tuple(tuple(row[v] for v in r) for r in self.rows), self.cols, self.spec)

    def __matmul__(self, other: "Mat") -> "Mat":
        other = self._check(other)
        if self.cols != other.nrows:
            raise LinAlgError(f"shape mismatch {self.shape} @ {other.shape}")
        pk = self.spec.packing
        tables = [pk.multiples(pk.pack(r), self.nrows) for r in other.rows]
        out = []
        for row in self.rows:
            acc = 0
            for v, t in zip(row, tables):
                if v:
                    acc ^= t[v]
            out.append(pk.unpack(acc, other.cols))
        return Mat(tuple(out), other.cols, self.spec)

    def is_zero(self) -> bool:
        return all(v == 0 for r in self.rows for v in r)

    def __str__(self) -> str:
        return "\n".join(" ".join(f"{v:x}" for v in r) for r in self.rows)

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        return len(_rref(*self._packed(), reduced=False)[0])

    def det(self) -> int:
        if self.nrows != self.cols:
            raise LinAlgError("determinant of a non-square matrix")
        pivots, det = _rref(*self._packed(), reduced=False)
        return det if len(pivots) == self.nrows else 0

    def is_invertible(self) -> bool:
        return self.nrows == self.cols and self.det() != 0

    def inv(self) -> "Mat":
        if self.nrows != self.cols:
            raise LinAlgError("inverse of a non-square matrix")
        n = self.nrows
        pk = self.spec.packing
        shift = n * pk.w
        # reduce [M | I] on M's columns: then the right half is M^-1
        work = [pk.pack(r) | 1 << (shift + i * pk.w) for i, r in enumerate(self.rows)]
        if len(_rref(pk, work, n)[0]) < n:
            raise LinAlgError("matrix is singular")
        return Mat(tuple(pk.unpack(r >> shift, n) for r in work), n, self.spec)

    def _packed(self) -> tuple[Packing, list[int], int]:
        pk = self.spec.packing
        return pk, [pk.pack(r) for r in self.rows], self.cols


def _rref(pk: Packing, work: list[int], ncols: int, reduced: bool = True) -> tuple[list[int], int]:
    """Bring packed rows to echelon form in place, pivoting on the first
    ``ncols`` columns; the pivot rows end up first, in order.  With
    ``reduced`` the pivots are also cleared above (reduced row echelon form).

    Returns the pivot columns and the product of the pivot values before
    they are scaled to 1.  Row swaps and added multiples keep the
    determinant in characteristic 2, so for a square matrix of full rank
    that product is its determinant.
    """
    w, mask, inv, table = pk.w, pk.mask, pk.inv_table, pk.mul_table
    nr = len(work)
    pivots = []
    det = 1
    for col in range(ncols):
        row = len(pivots)
        if row == nr:
            break
        shift = col * w
        for piv in range(row, nr):
            if work[piv] >> shift & mask:
                break
        else:
            continue
        p = work[piv]
        work[piv] = work[row]
        work[row] = 0  # the pivot row sits out the loop below
        f = p >> shift & mask
        if f != 1:
            det = table[det][f]
            p = pk.mul(inv[f], p)
        start = 0 if reduced else row + 1
        t = pk.multiples(p, nr - start)
        for r in range(start, nr):
            if f := work[r] >> shift & mask:
                work[r] ^= t[f]
        work[row] = p
        pivots.append(col)
    return pivots, det


def _kernel_images(pk: Packing, work: list[int], ncols: int, images: list[int]) -> list[int]:
    """Images under e_j -> images[j] of the reduced-echelon basis of the right
    kernel of the packed rows ``work`` (reduced in place).  The basis vector
    of free column f is e_f plus, at each pivot, the entry in column f of the
    pivot's row (characteristic 2)."""
    pivots, _ = _rref(pk, work, ncols)
    w, mask = pk.w, pk.mask
    free = sorted(set(range(ncols)) - set(pivots))
    out = [images[f] for f in free]
    for row, p in zip(work, pivots):
        t = pk.multiples(images[p], len(free))
        for i, f in enumerate(free):
            if c := row >> (f * w) & mask:
                out[i] ^= t[c]
    return out


def _charpoly(pk: Packing, rows: list[int], n: int) -> int:
    """det(t*I + M), packed, for the n x n matrix M with packed rows ``rows``
    (``pencil.pfaffian_form`` has the proof).

    Krylov sequences x, xM, xM^2, ... (Keller-Gehrig, TCS 36 (1985)) are
    reduced against one echelon, whose rows carry their coordinates in the
    current sequence from column n on, as ``Mat.inv`` carries [M | I].  A
    sequence starts at the unit vector of a column without a pivot, which is
    not in the span, and closes when a vector reduces to zero: its
    coordinates are then its minimal polynomial relative to the span before
    it.  Closed rows drop their coordinates, which the next sequence's would
    read as its own.
    """
    w, mask, inv = pk.w, pk.mask, pk.inv_table
    shift = n * w
    low = (1 << shift) - 1
    tables = [pk.multiples(r, n) for r in rows]
    echelon: list[tuple] = []  # (pivot column, row scaled to 1 there, its multiples)
    chi, start = 1, 0
    while len(echelon) < n:
        # the sequence closed last keeps its rows without coordinates
        echelon[start:] = [(p, r & low, pk.multiples(r & low, n)) for p, r, _ in echelon[start:]]
        start = len(echelon)
        x = 1 << (min(set(range(n)).difference(p for p, _, _ in echelon)) * w)
        coord = 1 << shift
        while True:
            v = x | coord
            for p, _, t in echelon:
                if f := v >> (p * w) & mask:
                    v ^= t[f]
            if not v & low:
                break
            p = ((v & -v).bit_length() - 1) // w  # the first nonzero column
            if (f := v >> (p * w) & mask) != 1:
                v = pk.mul(inv[f], v)
            echelon.append((p, v, pk.multiples(v, n - len(echelon))))
            x = reduce(xor, [t[f] for t, f in zip(tables, pk.unpack(x, n)) if f], 0)
            coord <<= w
        if len(echelon) == start:
            raise AssertionError("a Krylov sequence started inside the span")
        chi = pk.mul(chi, v >> shift)
    return chi


def congruence(s: Mat, a: Mat) -> Mat:
    """S A S^T for invertible S."""
    s._check(a)
    if s.nrows != s.cols or a.nrows != a.cols or s.cols != a.nrows:
        raise LinAlgError(f"shape mismatch for congruence: {s.shape} on {a.shape}")
    if not s.is_invertible():
        raise LinAlgError("congruence requires an invertible transform")
    return s @ a @ s.transpose()


# -- Smith normal form of pencils ------------------------------------------------


def smith_form(a: Mat, b: Mat) -> tuple[Poly, ...]:
    """Monic invariant factors d_1 | d_2 | ... | d_r of the pencil t*a + b
    over GF(2^k)[t].

    Classical elimination with exact division; each step starts from an
    entry of least degree in the first nonzero row and moves to the least
    remainder until the pivot divides its row, its column and the rest.  r is
    the rank of t*a + b over the field of fractions GF(2^k)(t).
    """
    return tuple(d.monic() for d in _smith_diagonal(a, b))


def _smith_diagonal(a: Mat, b: Mat) -> list[Poly]:
    """The nonzero diagonal left by eliminating t*a + b, not yet made monic.

    The entries are associates of the invariant factors, in the same order.
    Each row is one packed int (``field.Packing``) in which entry j owns a
    field of ``width`` slots, starting as b_ij in slot 0 and a_ij in slot 1,
    so adding q times the pivot row to a row reads the pivot row's table of
    multiples once per coefficient of q, and a division by the pivot reads
    the pivot's table.  Column operations run only once the pivot column is
    clean below the pivot, so they touch the pivot row alone.  Each step
    swaps rows or adds a multiple of one row or column to another, which in
    characteristic 2 keeps the determinant.
    """
    a._check(b)
    if a.shape != b.shape:
        raise LinAlgError("pencil needs equal shapes")
    spec = a.spec
    nr, nc = a.shape
    width = 4  # slots per entry; doubles before a product would overflow
    pk = spec.packing
    w = pk.w
    size = width * w
    mask = (1 << size) - 1
    m = []
    for ra, rb in zip(a.rows, b.rows):
        acc = 0
        for x, y in zip(reversed(ra), reversed(rb)):
            acc = acc << size | x << w | y
        m.append(acc)
    unit = spec.k  # the bit length of a degree-0 entry is at most k
    diagonal = []
    for s in range(min(nr, nc)):
        # pivot: an entry of least degree in the first nonzero row (finished
        # columns are zero here)
        best = 0
        for i in range(s, nr):
            for j, e in _entries(m[i], size):
                if not best or e.bit_length() < best:
                    best, bi, bj = e.bit_length(), i, j
                    if best <= unit:
                        break
            if best:
                break
        if not best:
            break
        while True:
            m[s], m[bi] = m[bi], m[s]
            c = bj * size
            p = m[s] >> c & mask
            dp = (p.bit_length() - 1) // w
            # divide by the monic associate pn = p / lead, and subtract the
            # quotients times the pivot row scaled the same way
            inv = pk.inv_table[p >> (dp * w)]
            if dp:  # a unit pivot divides with no remainder
                pn = pk.mul(inv, p)
                tn = pk.multiples(pn, nr - s)
            # row operations clear column c below the pivot up to remainders;
            # the least of these is the next pivot
            best = 0
            ops = []
            for i in range(s + 1, nr):
                e = m[i] >> c & mask
                if e:
                    q, r = pk.divmod(e, pn, tn) if dp else (e, 0)
                    if q:
                        ops.append((q, i))
                    if r and (not best or r.bit_length() < best):
                        best, bi = r.bit_length(), i
            if ops:
                top = _max_degree(m[s], nc, size, w) + (max(ops)[0].bit_length() - 1) // w
                if top >= width:
                    while top >= width:
                        width *= 2
                    new = width * w
                    m[s:] = [sum(e << (j * new) for j, e in _entries(v, size)) for v in m[s:]]
                    size = new
                    mask = (1 << size) - 1
                    c = bj * size
                prow = pk.mul(inv, m[s])
                t = pk.multiples(prow, len(ops))
                for q, i in ops:
                    m[i] ^= pk.scale(q, prow, t)
            if best:
                continue
            # column c is clean, so column operations only reduce the pivot
            # row mod p; the least remainder is the next pivot
            row = p << c
            if not dp:
                m[s] = row
                break  # a unit divides everything
            for j, e in _entries(m[s] ^ row, size):
                r = pk.divmod(e, pn, tn)[1]
                if r:
                    row |= r << (j * size)
                    if not best or r.bit_length() < best:
                        best, bj = r.bit_length(), j
            m[s] = row
            bi = s
            if best:
                continue
            offender = next(
                (i for i in range(s + 1, nr) if any(pk.divmod(e, pn, tn)[1] for _, e in _entries(m[i], size))),
                None,
            )
            if offender is None:
                break
            # the pivot stays; the next column pass leaves the offender's
            # remainders in the pivot row
            m[s] ^= m[offender]
        diagonal.append(Poly(p, spec))
    return diagonal


def _entries(v: int, size: int):
    """(j, entry) for each nonzero field of ``size`` bits in a packed row."""
    mask = (1 << size) - 1
    j = 0
    while v:
        if v & mask:
            yield j, v & mask
        v >>= size
        j += 1


def _max_degree(v: int, n: int, size: int, w: int) -> int:
    """Largest degree among the n entry fields of a packed row: OR the
    upper half of the fields onto the lower half until one is left."""
    while n > 1:
        n = (n + 1) // 2
        v = v >> (n * size) | v & ((1 << (n * size)) - 1)
    return (v.bit_length() - 1) // w
