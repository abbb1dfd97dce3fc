"""Exact classification of pairs of alternating bilinear forms over
characteristic-2 finite fields, with the attached nilpotent 2-groups."""

from .blocks import (
    AlternatingPair,
    BlockId,
    build_finite,
    build_infinity,
    build_plus,
    companion,
    direct_sum,
)
from .field import FieldSpec
from .linalg import Mat, congruence, smith_form
from .pencil import (
    ClassFunction,
    assemble,
    congruent,
    decompose,
    pfaffian_form,
    validate,
)
from .polyring import (
    EPS,
    BinaryForm,
    Poly,
    dehomogenize,
    factor,
    homogenize,
    moebius_act,
)
from .weakeq import GL2Element, act_on_class, canonical_rep, gl2_enumerate, weakly_equivalent
from .chernikov import (
    FiniteQuotient,
    iso_from_witness,
    presentation_from_class,
    presentation_from_tuple,
)

__version__ = "0.1.0"

__all__ = [
    "AlternatingPair",
    "BinaryForm",
    "BlockId",
    "ClassFunction",
    "EPS",
    "FieldSpec",
    "FiniteQuotient",
    "GL2Element",
    "Mat",
    "Poly",
    "act_on_class",
    "assemble",
    "build_finite",
    "build_infinity",
    "build_plus",
    "canonical_rep",
    "companion",
    "congruence",
    "congruent",
    "decompose",
    "dehomogenize",
    "direct_sum",
    "factor",
    "gl2_enumerate",
    "homogenize",
    "iso_from_witness",
    "moebius_act",
    "pfaffian_form",
    "presentation_from_class",
    "presentation_from_tuple",
    "smith_form",
    "validate",
    "weakly_equivalent",
]
