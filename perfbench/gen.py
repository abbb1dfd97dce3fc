"""Seeded benchmark inputs with their known answers.

Every input is built from a known class function (or, for ``group``, from a
known weak-equivalence witness) and then scrambled, so the expected output
is known by construction.  The library touches an expected answer only
through class-function arithmetic (``relabel_class`` for a weak-orbit
partner, ``BinaryForm`` products for a Pfaffian), never through the matrix
path that classifies a pair.  The same seed gives byte-identical pair
documents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from altpairs import EPS, AlternatingPair, BinaryForm, ClassFunction, FieldSpec, Mat, assemble
from altpairs.polyring import format_form, monic_irreducibles, point_from_poly
from altpairs.weakeq import GL2Element, gl2_enumerate, relabel_class, transform_weak

CLASSIFY_KS = (1, 2, 4)
CLASSIFY_DIMS = (8, 16, 24, 32)

# Degrees of the distinct irreducibles of a generic input, summing to dim/2.
# Degrees stay small at larger k because listing the monic irreducibles of
# degree d over GF(2^k) tries 2^(k*d) candidates.
GENERIC_DEGREES = {
    1: {8: (1, 3), 16: (1, 3, 4), 24: (1, 2, 4, 5), 32: (1, 2, 3, 4, 6)},
    2: {8: (1, 3), 16: (1, 3, 4), 24: (1, 1, 2, 4, 4), 32: (1, 1, 1, 2, 3, 4, 4)},
    4: {
        8: (1, 1, 2),
        16: (1, 1, 2, 2, 2),
        24: (1, 1, 1, 1, 2, 2, 2, 2),
        32: (1, 1, 1, 1, 2, 2, 2, 2, 2, 2),
    },
}

# Class-function templates: (kind, size, mult, irreducible degree) entries,
# where kind is "eps" (size = minimal index + 1), "x2" or "fin" (size = n).
# The seed picks the irreducibles and the scramble; the shape is fixed, so
# an op's cost depends on its size class, not on the seed.
#
# Structured inputs: repeated divisors and eps blocks make the staircase and
# Smith do the work.
STRUCTURED = {
    8: (("eps", 2, 1, 0), ("eps", 1, 1, 0), ("fin", 2, 1, 1)),
    16: (("eps", 3, 1, 0), ("eps", 1, 1, 0), ("x2", 2, 1, 0), ("x2", 1, 1, 0), ("fin", 1, 2, 1)),
    24: (("eps", 4, 1, 0), ("eps", 2, 1, 0), ("x2", 3, 1, 0), ("fin", 2, 2, 1)),
    32: (
        ("eps", 4, 1, 0),
        ("eps", 3, 1, 0),
        ("x2", 2, 1, 0),
        ("x2", 1, 1, 0),
        ("fin", 3, 1, 1),
        ("fin", 1, 2, 2),
    ),
}

# Small classes for corpus files and group pairs.
SMALL = {
    4: (("fin", 1, 1, 1), ("fin", 1, 1, 1)),
    6: (("eps", 1, 2, 0), ("fin", 1, 1, 1), ("fin", 1, 1, 1)),
    7: (("eps", 1, 1, 0), ("x2", 1, 1, 0), ("fin", 1, 1, 1), ("fin", 1, 1, 1)),
    8: (("x2", 2, 1, 0), ("fin", 1, 1, 1), ("fin", 1, 1, 1)),
    12: (("eps", 2, 2, 0), ("x2", 1, 1, 0), ("fin", 1, 1, 1), ("fin", 1, 1, 1)),
    16: (
        ("eps", 1, 1, 0),
        ("eps", 2, 1, 0),
        ("x2", 2, 1, 0),
        ("x2", 1, 1, 0),
        ("fin", 1, 1, 1),
        ("fin", 1, 1, 2),
    ),
}


@dataclass
class PairCase:
    """One pair document and what the classifier must answer for it."""

    name: str
    text: str
    blocks: list  # expected class function, as the CLI prints it
    pfaffian: str  # expected Pfaffian, as the CLI prints it


@dataclass
class CorpusFile:
    name: str
    text: str
    blocks: list | None  # None: not alternating, must come back ok: false
    orbit: str | None = None  # files sharing this tag are weak-orbit partners


@dataclass
class CorpusBatch:
    name: str
    files: list = field(default_factory=list)


@dataclass
class GroupCase:
    """Two GF(2) pairs related by a known weak-equivalence witness (S, Q)."""

    name: str
    num_h: int
    p_mats: list
    r_mats: list
    s: Mat
    q: GL2Element


def pair_text(pair: AlternatingPair) -> str:
    """The CLI's pair-document format."""
    lines = [f"field {pair.spec}", f"dim {pair.dim}"]
    for name, m in zip(("A", "B"), pair.matrices):
        lines.append(f"matrix {name}")
        lines.extend(" ".join(f"{v:x}" for v in row) for row in m.rows)
    return "\n".join(lines) + "\n"


class Generator:
    """Seeded source of inputs; caches the irreducibles per (field, degree)."""

    def __init__(self, seed: str):
        self.rng = random.Random(seed)
        self._irreducibles: dict = {}
        self._gl2: dict = {}

    def irreducibles(self, spec: FieldSpec, degree: int) -> list:
        key = (spec.k, spec.modulus, degree)
        if key not in self._irreducibles:
            self._irreducibles[key] = list(monic_irreducibles(spec, degree))
        return self._irreducibles[key]

    def field_value(self, spec: FieldSpec, nonzero: bool = False) -> int:
        return self.rng.randrange(1 if nonzero else 0, spec.order)

    def invertible(self, spec: FieldSpec, n: int) -> tuple[Mat, int]:
        """A random invertible S = P L D U and its determinant prod(D)."""
        lower = [[0] * n for _ in range(n)]
        upper = [[0] * n for _ in range(n)]
        det = 1
        for i in range(n):
            d = self.field_value(spec, nonzero=True)
            det = spec.mul(det, d)
            lower[i][i] = 1
            upper[i][i] = d
            for j in range(i):
                lower[i][j] = self.field_value(spec)
            for j in range(i + 1, n):
                upper[i][j] = self.field_value(spec)
        self.rng.shuffle(lower)  # P L: the rows of L in random order
        return Mat.from_rows(spec, lower, n) @ Mat.from_rows(spec, upper, n), det

    def scramble(self, rho: ClassFunction) -> tuple[AlternatingPair, int]:
        """The canonical pair of rho under a random congruence, and det(S)."""
        pair = assemble(rho)
        s, det = self.invertible(rho.spec, pair.dim)
        st = s.transpose()
        return AlternatingPair(s @ pair.a @ st, s @ pair.b @ st), det

    def distinct_irreducibles(self, spec: FieldSpec, degrees) -> list:
        chosen: list = []
        for d in degrees:
            pool = [f for f in self.irreducibles(spec, d) if f not in chosen]
            chosen.append(pool[self.rng.randrange(len(pool))])
        return chosen

    # -- class functions -------------------------------------------------------

    def generic_class(self, spec: FieldSpec, dim: int) -> ClassFunction:
        """Distinct irreducibles with n = 1: a square-free Pfaffian."""
        fs = self.distinct_irreducibles(spec, GENERIC_DEGREES[spec.k][dim])
        return ClassFunction.from_dict(spec, {(point_from_poly(f), 1): 1 for f in fs})

    def template_class(self, spec: FieldSpec, entries) -> ClassFunction:
        fin_degrees = [d for kind, _, _, d in entries if kind == "fin"]
        fs = iter(self.distinct_irreducibles(spec, fin_degrees))
        data: dict = {}
        for kind, size, mult, _ in entries:
            if kind == "eps":
                point = EPS
            elif kind == "x2":
                point = BinaryForm.x2(spec)
            else:
                point = point_from_poly(next(fs))
            data[(point, size)] = data.get((point, size), 0) + mult
        return ClassFunction.from_dict(spec, data)

    # -- workloads -------------------------------------------------------------

    def pair_cases(self, prefix: str, reps: dict) -> list[PairCase]:
        """reps[(k, dim)] = (generic, structured) input counts."""
        cases = []
        for k in CLASSIFY_KS:
            spec = FieldSpec.gf(k)
            for dim in CLASSIFY_DIMS:
                for kind, count in zip(("generic", "structured"), reps[(k, dim)]):
                    for r in range(count):
                        if kind == "generic":
                            rho = self.generic_class(spec, dim)
                        else:
                            rho = self.template_class(spec, STRUCTURED[dim])
                        pair, det = self.scramble(rho)
                        cases.append(
                            PairCase(
                                name=f"{prefix}-k{k}-d{dim:02d}-{kind}-{r}",
                                text=pair_text(pair),
                                blocks=rho.to_json_dict()["blocks"],
                                pfaffian=format_form(expected_pfaffian(rho, det)),
                            )
                        )
        return cases

    def gl2_elements(self, spec: FieldSpec) -> list:
        if spec.k not in self._gl2:
            self._gl2[spec.k] = list(gl2_enumerate(spec))
        return self._gl2[spec.k]

    def corpus_batches(self, layouts) -> list[CorpusBatch]:
        """One batch directory per layout; a layout lists the (k, dim) of
        its weak-orbit pairs.  Each batch also gets two non-alternating files."""
        batches = []
        for b, layout in enumerate(layouts):
            batch = CorpusBatch(f"batch-{b:03d}")
            for i, (k, dim) in enumerate(layout):
                spec = FieldSpec.gf(k)
                rho = self.template_class(spec, SMALL[dim])
                pair, _ = self.scramble(rho)
                qs = self.gl2_elements(spec)
                q = qs[self.rng.randrange(len(qs))]
                s, _ = self.invertible(spec, dim)
                partner = transform_weak(pair, s, q)
                tag = f"{batch.name}-{i}"
                moved = relabel_class(rho, q)
                for suffix, p, r in (("a", pair, rho), ("b", partner, moved)):
                    batch.files.append(
                        CorpusFile(f"f{i:02d}{suffix}-k{k}", pair_text(p), r.to_json_dict()["blocks"], tag)
                    )
            for j in range(2):
                batch.files.append(CorpusFile(f"f9{j}-bad", self.non_alternating(), None))
            batches.append(batch)
        return batches

    def non_alternating(self) -> str:
        """A GF(2) pair with a broken symmetry or diagonal entry."""
        rng = self.rng
        n = rng.randrange(4, 9)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randrange(2)
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] ^= 1
        a = Mat.from_rows(FieldSpec.gf2(), rows, n)
        return pair_text(AlternatingPair(a, a))

    def group_cases(self, sizes) -> list[GroupCase]:
        """Canonical GF(2) pairs with num_h generators and their images
        under a random weak transform (S, Q)."""
        gf2 = FieldSpec.gf2()
        qs = self.gl2_elements(gf2)
        cases = []
        for idx, n in enumerate(sizes):
            rho = self.template_class(gf2, SMALL[n] if n in SMALL else STRUCTURED[n])
            pair = assemble(rho)
            s, _ = self.invertible(gf2, n)
            q = qs[self.rng.randrange(len(qs))]
            moved = transform_weak(pair, s, q)
            cases.append(GroupCase(f"g{idx:03d}-h{n}", n, list(pair.matrices), list(moved.matrices), s, q))
        return cases


def expected_pfaffian(rho: ClassFunction, det_s: int) -> BinaryForm:
    """Pf(S A S^T, S B S^T) = det(S) * prod g^(n*mult) over non-eps entries;
    zero when an eps entry is present (odd dimension included)."""
    spec = rho.spec
    acc = BinaryForm.one(spec)
    for point, n, mult in rho.entries:
        if point is EPS:
            return BinaryForm.zero(spec)
        acc = acc * point.power(n * mult)
    return acc.scale(det_s)
