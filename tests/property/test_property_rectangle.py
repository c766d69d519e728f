"""Property-based tests: rectangle predicates equal their interval definitions.

Each MBR predicate is the conjunction of an ``Interval`` predicate on the x
and y projections; ``Rectangle`` evaluates it on the coordinates directly.
"""

from hypothesis import example, given, strategies as st

from repro.geometry.point import Point
from repro.geometry.rectangle import Rectangle

#: Finite floats, mixed with a few shared values so that drawn rectangles
#: often touch along an edge or collapse to zero extent on an axis.
COORDINATES = st.one_of(
    st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def rectangles(draw):
    x_begin, x_end = sorted((draw(COORDINATES), draw(COORDINATES)))
    y_begin, y_end = sorted((draw(COORDINATES), draw(COORDINATES)))
    return Rectangle(x_begin, y_begin, x_end, y_end)


@given(rectangles(), rectangles())
@example(Rectangle(0.0, 0.0, 1.0, 1.0), Rectangle(1.0, 0.0, 2.0, 1.0))  # shared edge
@example(Rectangle(0.0, 0.0, 1.0, 1.0), Rectangle(0.5, 0.5, 0.5, 0.5))  # a point inside
@example(Rectangle(1.0, 1.0, 1.0, 1.0), Rectangle(1.0, 1.0, 1.0, 1.0))  # equal points
def test_rectangle_predicates_equal_interval_definitions(first, second):
    x, y = first.x_interval, first.y_interval
    other_x, other_y = second.x_interval, second.y_interval
    assert first.contains(second) == (x.contains(other_x) and y.contains(other_y))
    assert first.intersects(second) == (x.overlaps(other_x) and y.overlaps(other_y))
    assert first.strictly_intersects(second) == (
        x.strictly_overlaps(other_x) and y.strictly_overlaps(other_y)
    )


@given(rectangles(), COORDINATES, COORDINATES)
@example(Rectangle(0.0, 0.0, 1.0, 1.0), 1.0, 0.5)  # on the right edge
@example(Rectangle(0.0, 0.0, 0.0, 1.0), 0.0, 1.0)  # corner of a zero-width rectangle
def test_contains_point_equals_interval_definition(rectangle, x, y):
    assert rectangle.contains_point(Point(x, y)) == (
        rectangle.x_interval.contains_point(x) and rectangle.y_interval.contains_point(y)
    )
