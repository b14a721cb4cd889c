"""Polyhedral maps on closed surfaces: validation, invariants,
classification of semi-equivelar maps at Euler characteristic 0, and
grid, truncation, subdivision, dual and double-cover constructions."""

from .core import (
    BadLabel,
    Disconnected,
    EdgeDegreeViolation,
    FaceIntersectionViolation,
    FaceSeqType,
    FaceTooSmall,
    InvalidMapError,
    LinkNotSingleCycle,
    NotFlat,
    PolyhedralMap,
    RepeatedVertexInFace,
    SematlasError,
    SurfaceId,
    euler_characteristic,
    face_sequence,
    is_orientable,
    is_semi_equivelar,
    surface_id,
    validate,
)
from .classify import (
    CanonicalForm,
    IntPolynomial,
    Isomorphism,
    canonical_form,
    edge_graph_char_poly,
    find_isomorphism,
    homological_systole,
    is_vertex_transitive,
)
from . import atlas, constructions, enumeration, export, semmap

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
