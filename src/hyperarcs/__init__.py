"""Hyperfocused and generalized hyperfocused arcs in PG(2,q), q = 2^r."""

from hyperarcs.gf2 import FieldSpec, field_make
from hyperarcs.arcs import (
    AdditiveSubgroup,
    Arc,
    build_complete_translation_arc,
    conic_translation_arc,
    frobenius_translation_arc,
    hyperfocused_lines,
    split_conic_arc,
    subgroup_make,
    translation_arc,
    translation_superarcs,
)
from hyperarcs.blocking import (
    ArcClasses,
    BlockingSet,
    arc_canonical_form,
    factorization_of,
    ghf_construct,
    ghf_eight,
    min_blocking_sets,
    projectively_equivalent,
    triangle_collinearity,
)
from hyperarcs.classify import classify_ghf
from hyperarcs.onefact import (
    OneFactorization,
    canonical_form,
    closure,
    embed_search,
    enumerate_factorizations,
    isomorphic,
)

__all__ = [
    "AdditiveSubgroup",
    "Arc",
    "ArcClasses",
    "BlockingSet",
    "FieldSpec",
    "OneFactorization",
    "arc_canonical_form",
    "build_complete_translation_arc",
    "canonical_form",
    "classify_ghf",
    "closure",
    "conic_translation_arc",
    "embed_search",
    "enumerate_factorizations",
    "factorization_of",
    "field_make",
    "frobenius_translation_arc",
    "ghf_construct",
    "ghf_eight",
    "hyperfocused_lines",
    "isomorphic",
    "min_blocking_sets",
    "projectively_equivalent",
    "split_conic_arc",
    "subgroup_make",
    "translation_arc",
    "translation_superarcs",
]
__version__ = "0.1.0"
