"""Dense exact matrix algebra over GF(2^k), and the Smith normal form of
pencils t*A + B over GF(2^k)[t].

A matrix is its rows, each one int packed by the field's GF(2^k)[t] kernel
(``FieldSpec.packing``, whose reduction masks widen to any row length): entry
j sits in slot j, so a sum or a scalar multiple is a row at a time, and adding
a multiple of the pivot row to another row is one xor of that row with an
entry of the pivot row's table of multiples (``Packing.multiples``; below its
cost threshold the entry is one kernel product), however many columns there
are.  A row x times a matrix (``_times``) reads x's slots in place and xors in
one table entry per nonzero slot until the rest of x is zero.  Rank, kernels,
determinant and inverse share one elimination, ``_rref``, with two modes: a
pass down to echelon form, or one that also clears above each pivot and so
leaves the reduced echelon form at any rank.  ``_front`` is the one solve: it
reduces [A | B] on A's columns, which gives A^-1 B for A invertible
(``Mat.inv`` takes B = I) and otherwise the echelon that ``pencil._wong_dims``
walks on.  ``_nullities`` takes the kernels of powers of f(M) from echelon
bases.  The Smith form reads t*A + B straight from the rows of A and B and
gives each entry a field of several slots, so a row operation with a
polynomial multiplier is one xor per coefficient of the multiplier, and
each diagonal entry is already the packed int of a ``Poly``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import xor
from typing import Iterable, Sequence

from .field import FieldError, FieldSpec, Packing
from .polyring import Poly


class LinAlgError(ValueError):
    """Singular matrix or shape mismatch."""


@dataclass(frozen=True)
class Mat:
    """Matrix over GF(2^k), held as its packed rows (``field.Packing``):
    entry j of a row is slot j, bits [j*w, (j+1)*w) with w = 2k - 1, and no
    bit is set past slot ``cols - 1``, so equal matrices have equal rows.
    ``rows`` unpacks the entries for the callers that read them one by one."""

    packed: tuple[int, ...]
    cols: int
    spec: FieldSpec

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rows(spec: FieldSpec, rows: Iterable[Sequence[int]], cols: int | None = None) -> "Mat":
        rs = [tuple(r) for r in rows]
        if cols is None:
            cols = len(rs[0]) if rs else 0
        if any(len(r) != cols for r in rs):
            raise LinAlgError("ragged rows")
        for r in rs:
            for v in r:
                spec.check(v)
        return Mat(tuple(map(spec.packing.pack, rs)), cols, spec)

    @staticmethod
    def zeros(spec: FieldSpec, nrows: int, ncols: int) -> "Mat":
        return Mat((0,) * nrows, ncols, spec)

    @staticmethod
    def identity(spec: FieldSpec, n: int) -> "Mat":
        return Mat(tuple(1 << (i * spec.packing.w) for i in range(n)), n, spec)

    @staticmethod
    def block_diag(spec: FieldSpec, mats: Sequence["Mat"]) -> "Mat":
        w, rows, co = spec.packing.w, [], 0
        for m in mats:
            rows += [r << (co * w) for r in m.packed]
            co += m.cols
        return Mat(tuple(rows), co, spec)

    # -- structure -----------------------------------------------------------

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.spec.packing.unpack(r, self.cols) for r in self.packed)

    @property
    def nrows(self) -> int:
        return len(self.packed)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.packed), self.cols)

    def transpose(self) -> "Mat":
        return Mat(_transpose(self.packed, self.cols, self.spec.packing.w), self.nrows, self.spec)

    def _check(self, other: "Mat") -> "Mat":
        if other.spec != self.spec:
            raise FieldError(f"mixed fields: {self.spec} vs {other.spec}")
        return other

    def __add__(self, other: "Mat") -> "Mat":
        other = self._check(other)
        if self.shape != other.shape:
            raise LinAlgError(f"shape mismatch {self.shape} vs {other.shape}")
        return Mat(tuple(map(xor, self.packed, other.packed)), self.cols, self.spec)

    def scale(self, bits: int) -> "Mat":
        return Mat(tuple(self.spec.packing.mul(bits, r) for r in self.packed), self.cols, self.spec)

    def __matmul__(self, other: "Mat") -> "Mat":
        other = self._check(other)
        if self.cols != other.nrows:
            raise LinAlgError(f"shape mismatch {self.shape} @ {other.shape}")
        pk = self.spec.packing
        tables = [pk.multiples(r, self.nrows) for r in other.packed]
        return Mat(tuple(_times(pk, r, tables) for r in self.packed), other.cols, self.spec)

    def __str__(self) -> str:
        return "\n".join(" ".join(f"{v:x}" for v in r) for r in self.rows)

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        return len(_rref(self.spec.packing, list(self.packed), self.cols, reduced=False)[0])

    def det(self) -> int:
        if self.nrows != self.cols:
            raise LinAlgError("determinant of a non-square matrix")
        pivots, det = _rref(self.spec.packing, list(self.packed), self.cols, reduced=False)
        return det if len(pivots) == self.nrows else 0

    def is_invertible(self) -> bool:
        return self.nrows == self.cols and self.det() != 0

    def inv(self) -> "Mat":
        if self.nrows != self.cols:
            raise LinAlgError("inverse of a non-square matrix")
        _, det, rows = _front(self.spec.packing, self.packed, Mat.identity(self.spec, self.cols).packed)
        if not det:
            raise LinAlgError("matrix is singular")
        return Mat(tuple(rows), self.cols, self.spec)


def _transpose(packed: Sequence[int], ncols: int, w: int) -> tuple[int, ...]:
    """The packed rows of the transpose of a matrix with w-bit slots.  The
    rows go into one int, row i from slot i*size on for a power of two size
    covering both sides, and one block swap per power of two h < size
    (Hacker's Delight, 7-3) moves every entry: it swaps, in each 2h x 2h
    block, the h x h block above right with the one below left, which sits
    h*(size - 1) slots further on."""
    size = 1 << (max(len(packed), ncols, 1) - 1).bit_length()
    stride = size * w
    flat = 0
    for r in reversed(packed):
        flat = flat << stride | r
    for shift, mask in _swap_masks(size, w):
        t = (flat >> shift ^ flat) & mask
        flat ^= t ^ t << shift
    low = (1 << stride) - 1
    return tuple([flat >> (j * stride) & low for j in range(ncols)])


@lru_cache(maxsize=None)
def _swap_masks(size: int, w: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) for each block swap of ``_transpose``: the mask holds the
    slots above right of the block diagonal, the shift is to their partners."""
    out = []
    for h in (1 << b for b in range(size.bit_length() - 1)):
        row = sum(((1 << w) - 1) << (j * w) for j in range(size) if j & h)
        out.append((h * (size - 1) * w, sum(row << (i * size * w) for i in range(size) if not i & h)))
    return tuple(out)


def _rref(pk: Packing, work: list[int], ncols: int, reduced: bool = True) -> tuple[list[int], int]:
    """Bring packed rows to echelon form in place, pivoting on the first
    ``ncols`` columns; the pivot rows end up first, in order.  With
    ``reduced`` each pivot also clears its column above, which leaves the
    reduced row echelon form at any rank: a pivot row is zero before its
    pivot, so it changes no earlier pivot column.  Both modes find the same
    pivots with the same values, as clearing above touches only rows that
    have pivoted already.

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


def _front(pk: Packing, rows_a: Sequence[int], rows_b: Sequence[int]) -> tuple[list[int], int, list[int]]:
    """The pivot columns of A, det A and packed rows from one elimination of
    the rows [A | B] (B's shifted past A's) to reduced echelon form on A's
    columns, E [A | B] = [R | EB] with E invertible: for A invertible R = I
    and the rows are those of A^-1 B; otherwise det A = 0 and they are the
    rows [R | EB] themselves, the pivot rows first, which
    ``pencil._wong_dims`` walks on."""
    n = len(rows_a)
    shift = n * pk.w
    rows = [a | b << shift for a, b in zip(rows_a, rows_b)]
    pivots, det = _rref(pk, rows, n)
    if len(pivots) < n:
        return pivots, 0, rows
    return pivots, det, [r >> shift for r in rows]


def _times(pk: Packing, x: int, tables: list) -> int:
    """The packed row x times the matrix whose rows have the tables ``tables``."""
    w, mask, r = pk.w, pk.mask, 0
    for t in tables:
        if not x:
            break
        if c := x & mask:
            r ^= t[c]
        x >>= w
    return r


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


def _nullities(pk: Packing, rows: list[int], n: int, f: Poly, top: int) -> list[int]:
    """dim ker f(M)^j for j = 1, 2, ..., for the n x n matrix M with packed
    rows ``rows``, until the kernel reaches dimension ``top`` or stops
    growing.  Row i of f(M) is e_i f(M) by Horner from e_i M = rows[i]; as
    the row space of f(M)^j is that of f(M)^(j-1) times f(M), each step
    multiplies only an echelon basis of the previous one by f(M)."""
    w, (*low, _) = pk.w, f.coeffs
    tables = [pk.multiples(r, n * (len(low) - 1)) for r in rows]
    f_rows = []
    for i, r in enumerate(rows):
        v = r ^ low[-1] << (i * w)
        for c in reversed(low[:-1]):
            v = _times(pk, v, tables) ^ c << (i * w)
        f_rows.append(v)
    work, tables, dims = list(f_rows), None, []
    while True:
        rank = len(_rref(pk, work, n, reduced=False)[0])
        dims.append(n - rank)
        if dims[-1] >= top or len(dims) > 1 and dims[-1] == dims[-2]:
            return dims
        tables = tables or [pk.multiples(r, rank) for r in f_rows]
        work = [_times(pk, v, tables) for v in work[:rank]]


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
    low = pk.mask
    m = []
    for ra, rb in zip(a.packed, b.packed):
        acc = 0
        for shift in range((nc - 1) * w, -1, -w):  # the slots of a and b, last first
            acc = acc << size | (ra >> shift & low) << w | rb >> shift & low
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
