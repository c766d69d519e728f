"""Reproduction of "Image Indexing and Similarity Retrieval Based on A New
Spatial Relation Model" (Ying-Hong Wang, ICDCS 2001 workshops).

The package implements the 2D BE-string spatial-relation model, its
construction and modified-LCS similarity algorithms, the 2-D string family
baselines it is compared against, and an image database / retrieval system
built on top -- see DESIGN.md for the system inventory and EXPERIMENTS.md for
the reproduced results.

Typical usage::

    from repro import SymbolicPicture, Rectangle, RetrievalSystem, encode_picture

    picture = SymbolicPicture.build(
        width=100, height=100,
        objects=[("car", Rectangle(10, 10, 40, 30)), ("tree", Rectangle(60, 20, 80, 70))],
        name="street",
    )
    bestring = encode_picture(picture)
    system = RetrievalSystem.from_pictures([picture])
    results = system.query(picture).limit(5).execute()
"""

from repro.core import (
    AxisBEString,
    BEString2D,
    SimilarityPolicy,
    SimilarityResult,
    Transformation,
    encode_picture,
    similarity,
    similarity_between_pictures,
)
from repro.geometry import Interval, Point, Rectangle
from repro.iconic import IconObject, IconVocabulary, SymbolicPicture
from repro.index import ImageDatabase, QueryEngine, QuerySpec
from repro.retrieval import QueryBuilder, ResultSet, RetrievalSystem

__version__ = "1.0.0"

__all__ = [
    "AxisBEString",
    "BEString2D",
    "SimilarityPolicy",
    "SimilarityResult",
    "Transformation",
    "encode_picture",
    "similarity",
    "similarity_between_pictures",
    "Interval",
    "Point",
    "Rectangle",
    "IconObject",
    "IconVocabulary",
    "SymbolicPicture",
    "ImageDatabase",
    "QueryEngine",
    "QuerySpec",
    "QueryBuilder",
    "ResultSet",
    "RetrievalSystem",
    "__version__",
]


# ``LabeledRaster`` is left out of ``__all__``: it needs numpy (the ``raster``
# extra), and a star import must work without it.
def __getattr__(name: str):
    """Resolve ``LabeledRaster`` lazily, so ``import repro`` needs no numpy."""
    if name == "LabeledRaster":
        from repro import iconic

        return iconic.LabeledRaster
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
