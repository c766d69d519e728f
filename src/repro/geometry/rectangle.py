"""Axis-aligned rectangles (minimum bounding rectangles).

The 2D BE-string "straightly represents an icon by its MBR boundaries"; this
class is that MBR.  It also carries the geometric transforms (rotation within
an image frame, reflection across image axes) that Section 4 of the paper
retrieves by simple string manipulation -- the geometric versions here are the
ground truth the string-level transforms are validated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.geometry.interval import Interval
from repro.geometry.point import Point


@dataclass(frozen=True, order=True, init=False)
class Rectangle:
    """A closed axis-aligned rectangle ``[x_begin, x_end] x [y_begin, y_end]``.

    A value record (see ``docs/architecture.md``, "Value records"): slotted,
    built by a checked ``__init__`` that sets each slot directly, and
    pickled through that constructor.
    """

    __slots__ = ("x_begin", "y_begin", "x_end", "y_end")

    x_begin: float
    y_begin: float
    x_end: float
    y_end: float

    def __init__(self, x_begin: float, y_begin: float, x_end: float, y_end: float) -> None:
        # Negated, so a NaN coordinate (every comparison false) fails too.
        if not x_begin <= x_end:
            raise ValueError(f"x_begin {x_begin!r} must not exceed x_end {x_end!r}")
        if not y_begin <= y_end:
            raise ValueError(f"y_begin {y_begin!r} must not exceed y_end {y_end!r}")
        _set_x_begin(self, x_begin)
        _set_y_begin(self, y_begin)
        _set_x_end(self, x_end)
        _set_y_end(self, y_end)

    def __reduce__(self) -> Tuple[type, Tuple[float, float, float, float]]:
        return (type(self), (self.x_begin, self.y_begin, self.x_end, self.y_end))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_corners(cls, a: Point, b: Point) -> "Rectangle":
        """Build from two opposite corners in any order."""
        return cls(
            min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y)
        )

    @classmethod
    def from_intervals(cls, x: Interval, y: Interval) -> "Rectangle":
        """Build from the two axis projections."""
        return cls(x.begin, y.begin, x.end, y.end)

    @classmethod
    def from_origin_size(
        cls, x: float, y: float, width: float, height: float
    ) -> "Rectangle":
        """Build from the bottom-left corner plus a non-negative size."""
        if not (width >= 0 and height >= 0):
            raise ValueError("width and height must be non-negative")
        return cls(x, y, x + width, y + height)

    # ------------------------------------------------------------------
    # Projections and measures
    # ------------------------------------------------------------------
    @property
    def x_interval(self) -> Interval:
        """Projection of the rectangle onto the x-axis."""
        return Interval(self.x_begin, self.x_end)

    @property
    def y_interval(self) -> Interval:
        """Projection of the rectangle onto the y-axis."""
        return Interval(self.y_begin, self.y_end)

    @property
    def width(self) -> float:
        return self.x_end - self.x_begin

    @property
    def height(self) -> float:
        return self.y_end - self.y_begin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x_begin + self.x_end) / 2.0, (self.y_begin + self.y_end) / 2.0)

    @property
    def bottom_left(self) -> Point:
        return Point(self.x_begin, self.y_begin)

    @property
    def top_right(self) -> Point:
        return Point(self.x_end, self.y_end)

    def __iter__(self) -> Iterator[float]:
        yield self.x_begin
        yield self.y_begin
        yield self.x_end
        yield self.y_end

    def as_tuple(self) -> Tuple[float, float, float, float]:
        """Return ``(x_begin, y_begin, x_end, y_end)``."""
        return (self.x_begin, self.y_begin, self.x_end, self.y_end)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    # Each predicate is the conjunction of the matching ``Interval``
    # predicate on the two axis projections, written out on the coordinates
    # so a check builds no intervals (a picture checks every icon on load).
    def contains_point(self, point: Point) -> bool:
        """True when the point lies inside or on the boundary."""
        return (
            self.x_begin <= point.x <= self.x_end
            and self.y_begin <= point.y <= self.y_end
        )

    def contains(self, other: "Rectangle") -> bool:
        """True when ``other`` lies entirely inside this rectangle."""
        return (
            self.x_begin <= other.x_begin
            and other.x_end <= self.x_end
            and self.y_begin <= other.y_begin
            and other.y_end <= self.y_end
        )

    def intersects(self, other: "Rectangle") -> bool:
        """True when the closed rectangles share at least one point."""
        return (
            self.x_begin <= other.x_end
            and other.x_begin <= self.x_end
            and self.y_begin <= other.y_end
            and other.y_begin <= self.y_end
        )

    def strictly_intersects(self, other: "Rectangle") -> bool:
        """True when the rectangle interiors intersect."""
        return (
            self.x_begin < other.x_end
            and other.x_begin < self.x_end
            and self.y_begin < other.y_end
            and other.y_begin < self.y_end
        )

    # ------------------------------------------------------------------
    # Combinations
    # ------------------------------------------------------------------
    def intersection(self, other: "Rectangle") -> Optional["Rectangle"]:
        """The overlapping rectangle, or ``None`` when disjoint."""
        x = self.x_interval.intersection(other.x_interval)
        y = self.y_interval.intersection(other.y_interval)
        if x is None or y is None:
            return None
        return Rectangle.from_intervals(x, y)

    def union_hull(self, other: "Rectangle") -> "Rectangle":
        """Smallest rectangle covering both operands."""
        return Rectangle.from_intervals(
            self.x_interval.union_hull(other.x_interval),
            self.y_interval.union_hull(other.y_interval),
        )

    # ------------------------------------------------------------------
    # Transforms (within an image frame of size ``width`` x ``height``)
    # ------------------------------------------------------------------
    def translate(self, dx: float, dy: float) -> "Rectangle":
        """Shift the rectangle by ``(dx, dy)``."""
        return Rectangle(
            self.x_begin + dx, self.y_begin + dy, self.x_end + dx, self.y_end + dy
        )

    def scale(self, factor_x: float, factor_y: float | None = None) -> "Rectangle":
        """Scale about the origin by non-negative factors."""
        if factor_y is None:
            factor_y = factor_x
        if factor_x < 0 or factor_y < 0:
            raise ValueError("scale factors must be non-negative")
        return Rectangle(
            self.x_begin * factor_x,
            self.y_begin * factor_y,
            self.x_end * factor_x,
            self.y_end * factor_y,
        )

    def reflect_y_axis(self, frame_width: float) -> "Rectangle":
        """Mirror horizontally inside an image frame of the given width."""
        x = self.x_interval.reflect(frame_width)
        return Rectangle(x.begin, self.y_begin, x.end, self.y_end)

    def reflect_x_axis(self, frame_height: float) -> "Rectangle":
        """Mirror vertically inside an image frame of the given height."""
        y = self.y_interval.reflect(frame_height)
        return Rectangle(self.x_begin, y.begin, self.x_end, y.end)

    def rotate90(self, frame_width: float, frame_height: float) -> "Rectangle":
        """Rotate 90 degrees clockwise inside a frame of the given size.

        The rotated rectangle lives in a frame of size
        ``frame_height x frame_width``.  A point ``(x, y)`` maps to
        ``(frame_height - y, x)``; applying that to both corners and
        re-normalising gives the rotated MBR.
        """
        del frame_width  # only the height participates in the clockwise map
        return Rectangle(
            frame_height - self.y_end,
            self.x_begin,
            frame_height - self.y_begin,
            self.x_end,
        )

    def rotate180(self, frame_width: float, frame_height: float) -> "Rectangle":
        """Rotate 180 degrees inside a frame of the given size."""
        return Rectangle(
            frame_width - self.x_end,
            frame_height - self.y_end,
            frame_width - self.x_begin,
            frame_height - self.y_begin,
        )

    def rotate270(self, frame_width: float, frame_height: float) -> "Rectangle":
        """Rotate 270 degrees clockwise (= 90 counter-clockwise) in the frame."""
        del frame_height
        return Rectangle(
            self.y_begin,
            frame_width - self.x_end,
            self.y_end,
            frame_width - self.x_begin,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Rectangle(x=[{self.x_begin:g}, {self.x_end:g}], "
            f"y=[{self.y_begin:g}, {self.y_end:g}])"
        )


# The frozen ``__setattr__`` refuses every assignment, so ``__init__`` sets
# each slot through its member descriptor.
_set_x_begin = Rectangle.x_begin.__set__
_set_y_begin = Rectangle.y_begin.__set__
_set_x_end = Rectangle.x_end.__set__
_set_y_end = Rectangle.y_end.__set__
