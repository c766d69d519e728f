"""Iconic (symbolic) image substrate.

The paper assumes that "we have abstracted all objects and their MBR
coordinates from that image" before encoding.  This subpackage supplies that
abstraction layer:

* :class:`~repro.iconic.vocabulary.IconVocabulary` -- the closed set of icon
  classes (labels) a database works with.
* :class:`~repro.iconic.icon.IconObject` -- one recognised icon: a label plus
  its MBR, optionally disambiguated by an instance index.
* :class:`~repro.iconic.picture.SymbolicPicture` -- the symbolic image: frame
  size plus a collection of icons, with geometric transforms and pairwise
  relation queries.
* :class:`~repro.iconic.raster.LabeledRaster` -- a numpy label grid with
  connected-component extraction, so examples can go from "pixels" to a
  symbolic picture without any external imaging dependency.  It is the only
  part of the package that needs numpy (the ``raster`` extra), and it is
  imported on first access, so the rest of the package runs on the standard
  library alone.
* :mod:`~repro.iconic.ascii_art` -- terminal rendering of symbolic pictures
  (the reproduction's stand-in for the paper's visual demonstration system).
"""

from repro.iconic.icon import IconObject
from repro.iconic.picture import SymbolicPicture
from repro.iconic.vocabulary import IconVocabulary

# ``LabeledRaster`` is left out of ``__all__``: a star import must work
# without numpy.
__all__ = ["IconObject", "SymbolicPicture", "IconVocabulary"]


def __getattr__(name: str):
    """Resolve ``LabeledRaster`` on first access, importing numpy only then.

    Raises:
        ImportError: if ``LabeledRaster`` is requested and numpy is not
            installed.
    """
    if name != "LabeledRaster":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    try:
        from repro.iconic.raster import LabeledRaster
    except ModuleNotFoundError as error:
        if error.name != "numpy":
            raise
        raise ImportError(
            "LabeledRaster needs numpy, which the package installs only with its "
            "'raster' extra: pip install 'repro-2d-bestring[raster]'"
        ) from error
    return LabeledRaster
