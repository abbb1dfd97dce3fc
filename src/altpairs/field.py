"""Exact arithmetic in GF(2^k) for small k, and the one GF(2^k)[t] kernel.

Elements are plain ints, their coefficient bitmask: bit i is the coefficient
of t^i in the residue class modulo the defining polynomial, and ``FieldSpec``
does the arithmetic on them by table lookup.  The tables come from the
field's ``Packing``: row a of the multiplication table is the table of
multiples of a (below), and the inverse of a is read off that row.  A
modulus is checked by ``polyring.is_irreducible`` over GF(2), so the field
has one product, one table builder and one irreducibility test.

``Packing`` is the only product and division in GF(2^k)[t]: ``polyring.Poly``
and the eliminations of ``linalg`` all run on it.  It stores a polynomial
over GF(2^k), or a whole matrix row, as one int with coefficient i in bits
[i*w, (i+1)*w), w = 2k - 1: a carry-less product leaves each slot an
unreduced sum of products of two field elements, and k - 1 masked
multiplications by the modulus reduce every slot at once.  The masks widen
when a longer int comes, so one ``Packing`` per field (``FieldSpec.packing``)
serves every length.  At k = 1, w = 1 and a packed polynomial is the GF(2)[t]
bitmask.

Elimination scales one pivot row b by many field elements, so
``Packing.multiples`` gives it a table t with t[f] = f*b, built by doubling:
b*x is b shifted by one bit and reduced once, and the multiples of f with
bit i set are those of f without it xor b*x^i, so 2^k - 1 xors and no
further reductions fill it.  A product then costs one lookup instead of a
carry-less product and k - 1 reductions.  The table pays off only when the
row is scaled more than about k times (measured at k <= 8), so with fewer
products, and above ``_TABLE_MAX_K``, the stand-in ``t[f]`` calls ``mul``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Sequence

MAX_K = 16

# largest k for which full multiplication and inverse tables are built
_TABLE_MAX_K = 8


class FieldError(ValueError):
    """Invalid field construction or mixed-field operation."""


def _gf2_poly_mul(a: int, b: int) -> int:
    """Carry-less product of GF(2)[t] bitmasks (bit i = coefficient of t^i),
    over the set bits of the smaller operand."""
    if a < b:
        a, b = b, a
    r = 0
    while b:
        s = b.bit_length() - 1
        r ^= a << s
        b ^= 1 << s
    return r


@lru_cache(maxsize=None)
def _irreducible_modulus(modulus: int) -> bool:
    """Irreducibility over GF(2) of a bitmask polynomial of degree >= 1.  A
    degree-1 modulus passes without the test, which runs in GF(2)[t] and so
    needs GF(2) built first."""
    if modulus.bit_length() == 2:
        return True
    from .polyring import Poly, is_irreducible  # polyring imports this module

    return is_irreducible(Poly(modulus, FieldSpec.gf2()))


@lru_cache(maxsize=None)
def default_modulus(k: int) -> int:
    """Smallest irreducible degree-k bitmask polynomial over GF(2)."""
    if not 1 <= k <= MAX_K:
        raise FieldError(f"extension degree must be in 1..{MAX_K}, got {k}")
    for cand in range(1 << k, 1 << (k + 1)):
        if _irreducible_modulus(cand):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


@dataclass(frozen=True)
class FieldSpec:
    """GF(2^k) together with its defining modulus bitmask.

    ``mul_table[a][b]`` is a*b and ``inv_table[a]`` the inverse of a != 0.
    Both are the tables of ``packing``, the GF(2^k)[t] kernel, which builds
    them once per (k, modulus) for all equal specs: row a is
    ``packing.multiples(a, 2^k)``.  For k <= _TABLE_MAX_K the tables are
    lists (row a is (0, a) at k = 1); above that they are ``_Computed``
    stand-ins whose rows call ``Packing.mul`` on each read and whose inverse
    of a is ``pow(a, 2^k - 2)``, taken once, so every caller indexes them
    the same way.
    """

    k: int
    modulus: int
    mul_table: list | _Computed = field(init=False, repr=False, compare=False)
    inv_table: list | _Computed = field(init=False, repr=False, compare=False)
    packing: Packing = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.k <= MAX_K:
            raise FieldError(f"extension degree must be in 1..{MAX_K}, got {self.k}")
        if self.modulus >> self.k != 1:
            raise FieldError(f"modulus 0x{self.modulus:x} does not have degree {self.k}")
        if not _irreducible_modulus(self.modulus):
            raise FieldError(f"modulus 0x{self.modulus:x} is reducible over GF(2)")
        packing = _shared_packing(self)
        object.__setattr__(self, "packing", packing)
        object.__setattr__(self, "mul_table", packing.mul_table)
        object.__setattr__(self, "inv_table", packing.inv_table)

    # -- construction ------------------------------------------------------

    @staticmethod
    def gf2() -> "FieldSpec":
        return FieldSpec(1, default_modulus(1))

    @staticmethod
    def gf(k: int, modulus: int | None = None) -> "FieldSpec":
        return FieldSpec(k, default_modulus(k) if modulus is None else modulus)

    @staticmethod
    def parse(text: str) -> "FieldSpec":
        """Parse ``gf2`` or ``gf2^k:0xMM``."""
        s = text.strip().lower()
        if s == "gf2":
            return FieldSpec.gf2()
        if s.startswith("gf2^"):
            body = s[4:]
            if ":" in body:
                kpart, mpart = body.split(":", 1)
                try:
                    k = int(kpart)
                    modulus = int(mpart, 16)
                except ValueError as exc:
                    raise FieldError(f"bad field spec {text!r}") from exc
                return FieldSpec(k, modulus)
            try:
                k = int(body)
            except ValueError as exc:
                raise FieldError(f"bad field spec {text!r}") from exc
            return FieldSpec.gf(k)
        raise FieldError(f"bad field spec {text!r}")

    def __str__(self) -> str:
        if self.k == 1:
            return "gf2"
        return f"gf2^{self.k}:0x{self.modulus:x}"

    # -- arithmetic on raw bitmask values ----------------------------------

    @property
    def order(self) -> int:
        return 1 << self.k

    def check(self, bits: int) -> int:
        if not 0 <= bits < (1 << self.k):
            raise FieldError(f"value 0x{bits:x} out of range for {self}")
        return bits

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a = self.inv(a)
            n = -n
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in " + str(self))
        return self.inv_table[a]

    def sqrt(self, a: int) -> int:
        """Unique square root: the Frobenius inverse a^(2^(k-1))."""
        return self.pow(a, 1 << (self.k - 1))


class _Computed:
    """Read-only table whose entry ``table[x]`` is ``fn(x)``, computed on
    each read; stands in for the lists above _TABLE_MAX_K."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, x):
        return self.fn(x)


class Packing:
    """GF(2^k)[t] on packed ints: slot i, bits [i*w, (i+1)*w) with w = 2k - 1,
    holds coefficient i.

    A row over GF(2^k) packs entry j into slot j, so a field element times
    the row scales every entry.  A row over GF(2^k)[t] gives each entry a
    field of several slots; a polynomial times the row multiplies every
    entry, provided each product stays inside its field.  The reduction
    masks cover a number of slots and widen to twice the length of a
    product or table row that reaches past them, so the ints may be of any
    length.  A row scaled many times gets a table of its multiples
    (``multiples``); ``scale`` and ``divmod`` read polynomial products off
    such a table.
    """

    __slots__ = ("k", "w", "mask", "modulus", "masks", "mul_table", "inv_table")

    def __init__(self, spec: FieldSpec):
        k = self.k = spec.k
        self.w = 2 * k - 1
        self.mask = (1 << k) - 1
        self.modulus = spec.modulus
        self._widen(0)
        if k > _TABLE_MAX_K:
            self.mul_table = _Computed(partial(self.multiples, uses=0))
            n = (1 << k) - 2
            # a^(2^k - 2) is the inverse of a; each is computed on its first read only
            self.inv_table = _Computed(lru_cache(maxsize=None)(lambda a: spec.pow(a, n)))
        else:
            # row a is the table of the multiples of a; inv[0] = 0 is never read
            rows = self.mul_table = [self.multiples(a, 1 << k) for a in range(1 << k)]
            self.inv_table = [0] + [row.index(1) for row in rows[1:]]

    def _widen(self, v: int) -> tuple[int, ...]:
        """Masks over twice the slots that v spans; they replace the old
        ones.  Each caller reduces with the masks it got back, so a narrower
        set stored by a concurrent caller costs only another widening.  At
        k = 1 there is nothing to reduce and the masks stay ()."""
        k, w = self.k, self.w
        n = 2 * (v.bit_length() // w + 1)
        ones = ((1 << (n * w)) - 1) // ((1 << w) - 1)  # bit 0 of every slot
        # bit i of every slot, for i from 2k - 2 down to k: the bits to clear
        masks = self.masks = tuple(ones << i for i in range(2 * k - 2, k - 1, -1))
        return masks

    def mul(self, a: int, b: int) -> int:
        if a == 1:
            return b
        r = _gf2_poly_mul(a, b)
        # the top bit of masks[0] is the last bit they reach
        if (masks := self.masks) and r > masks[0]:
            masks = self._widen(r)
        k, modulus = self.k, self.modulus
        for hi in masks:
            # the bits of r & hi lie w apart and the modulus has k + 1 <= w bits,
            # so this product is carry-free; it clears bit i of every slot
            r ^= ((r & hi) >> k) * modulus
        return r

    def multiples(self, b: int, uses: int):
        """t with t[f] == mul(f, b) for every field element f, b with reduced
        slots, for a caller that reads about ``uses`` entries.  The table of
        all 2^k entries pays only for more than k reads (k <= _TABLE_MAX_K);
        otherwise t is a stand-in that calls ``mul`` on each read, and at
        k = 1 it is (0, b)."""
        k = self.k
        if k == 1:
            return 0, b
        if uses <= k or k > _TABLE_MAX_K:
            return _Computed(partial(self.mul, b))
        masks = self.masks
        if b << 1 > masks[0]:
            masks = self._widen(b << 1)
        hi, modulus = masks[-1], self.modulus
        t = [0, b]
        for _ in range(k - 1):
            b <<= 1
            b ^= ((b & hi) >> k) * modulus  # b*x: clear bit k of every slot
            t += [v ^ b for v in t]
        return t

    def scale(self, q: int, b: int, t) -> int:
        """q times b, q packed, with ``t = multiples(b, ...)``: from a table
        (a list), the xor of t[q_i] shifted to each slot i of q; from the
        stand-in or (0, b), one kernel product, which costs less than a
        product per slot."""
        if type(t) is not list:
            return self.mul(q, b)
        w, mask = self.w, self.mask
        r = s = 0
        while q:
            if f := q & mask:
                r ^= t[f] << s
            q >>= w
            s += w
        return r

    def divmod(self, a: int, b: int, t) -> tuple[int, int]:
        """(a // b, a % b) of packed polynomials, b != 0, with
        ``t = multiples(b, ...)``, built once for every division by b.
        AssertionError when a step leaves the leading slot of the remainder
        set, as a wrong table can, rather than loop on it."""
        w = self.w
        top = (b.bit_length() - 1) // w * w  # bit offset of the leading slot of b
        inv = self.inv_table[b >> top]
        if not top:
            return self.mul(inv, a), 0
        row = self.mul_table[inv]
        q, n = 0, a.bit_length()
        while n > top:
            s = (n - 1) // w * w - top
            f = row[a >> (s + top)]
            q |= f << s
            a ^= t[f] << s
            if (n := a.bit_length()) > s + top:
                raise AssertionError("a table of multiples left the leading slot of a remainder")
        return q, a

    def pack(self, coeffs: Sequence[int]) -> int:
        w = self.w
        acc = 0
        for c in reversed(coeffs):
            acc = acc << w | c
        return acc

    def unpack(self, v: int, n: int) -> tuple[int, ...]:
        mask = self.mask
        return tuple([v >> s & mask for s in range(0, n * self.w, self.w)])


@lru_cache(maxsize=None)
def _shared_packing(spec: FieldSpec) -> Packing:
    return Packing(spec)
