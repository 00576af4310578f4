"""Planar geometry primitives used by the map, grid and reader models.

Everything in this module is deliberately simple: buildings are modelled as
axis-aligned rectangles connected by point-like doors, so the only geometry
the rest of the library needs is points, axis-aligned rectangles, segments,
Euclidean distances and segment/segment intersection tests (the latter are
used to count how many walls a radio signal crosses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple

__all__ = ["Point", "Rect", "Segment", "ORIENTATION_TOLERANCE"]

#: Absolute tolerance of the orientation and on-segment tests: a triple whose
#: cross product is below it counts as collinear.  Vectorised copies of
#: :meth:`Segment.intersects` import it so both agree bit for bit.
ORIENTATION_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Point:
    """A point in the plane (coordinates are metres)."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """A copy of this point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def towards(self, other: "Point", distance: float) -> "Point":
        """The point ``distance`` metres from here in the direction of ``other``.

        If ``other`` coincides with this point, this point is returned
        unchanged (there is no direction to move in).
        """
        total = self.distance_to(other)
        if total == 0.0:
            return self
        ratio = distance / total
        return Point(self.x + (other.x - self.x) * ratio,
                     self.y + (other.y - self.y) * ratio)

    def as_tuple(self) -> Tuple[float, float]:
        """The ``(x, y)`` tuple representation."""
        return (self.x, self.y)


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle, ``(x0, y0)`` bottom-left to ``(x1, y1)`` top-right."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError(
                "Rect corners must satisfy x0 <= x1 and y0 <= y1, got "
                f"({self.x0}, {self.y0}, {self.x1}, {self.y1})"
            )

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    def contains(self, point: Point, *, tol: float = 1e-9) -> bool:
        """Whether ``point`` lies inside the rectangle (boundary included)."""
        return (self.x0 - tol <= point.x <= self.x1 + tol
                and self.y0 - tol <= point.y <= self.y1 + tol)

    def contains_strict(self, point: Point) -> bool:
        """Whether ``point`` lies strictly inside the rectangle."""
        return self.x0 < point.x < self.x1 and self.y0 < point.y < self.y1

    def clamp(self, point: Point) -> Point:
        """The closest point of the rectangle to ``point``."""
        return Point(min(max(point.x, self.x0), self.x1),
                     min(max(point.y, self.y0), self.y1))

    def intersects(self, other: "Rect") -> bool:
        """Whether the two rectangles overlap (touching edges count)."""
        return (self.x0 <= other.x1 and other.x0 <= self.x1
                and self.y0 <= other.y1 and other.y0 <= self.y1)

    def edges(self) -> Iterator["Segment"]:
        """The four boundary segments, counter-clockwise from the bottom."""
        bl = Point(self.x0, self.y0)
        br = Point(self.x1, self.y0)
        tr = Point(self.x1, self.y1)
        tl = Point(self.x0, self.y1)
        yield Segment(bl, br)
        yield Segment(br, tr)
        yield Segment(tr, tl)
        yield Segment(tl, bl)


def _orientation(p: Point, q: Point, r: Point) -> int:
    """Orientation of the ordered triple: 0 collinear, 1 clockwise, -1 ccw."""
    value = (q.y - p.y) * (r.x - q.x) - (q.x - p.x) * (r.y - q.y)
    if abs(value) < ORIENTATION_TOLERANCE:
        return 0
    return 1 if value > 0 else -1


def _on_segment(p: Point, q: Point, r: Point) -> bool:
    """Whether ``q`` lies on the segment ``p``–``r`` assuming collinearity."""
    tol = ORIENTATION_TOLERANCE
    return (min(p.x, r.x) - tol <= q.x <= max(p.x, r.x) + tol
            and min(p.y, r.y) - tol <= q.y <= max(p.y, r.y) + tol)


@dataclass(frozen=True)
class Segment:
    """A line segment between two points."""

    a: Point
    b: Point

    @property
    def length(self) -> float:
        return self.a.distance_to(self.b)

    @property
    def midpoint(self) -> Point:
        return Point((self.a.x + self.b.x) / 2.0, (self.a.y + self.b.y) / 2.0)

    def intersects(self, other: "Segment") -> bool:
        """Whether the two segments share at least one point."""
        o1 = _orientation(self.a, self.b, other.a)
        o2 = _orientation(self.a, self.b, other.b)
        o3 = _orientation(other.a, other.b, self.a)
        o4 = _orientation(other.a, other.b, self.b)

        if o1 != o2 and o3 != o4:
            return True
        if o1 == 0 and _on_segment(self.a, other.a, self.b):
            return True
        if o2 == 0 and _on_segment(self.a, other.b, self.b):
            return True
        if o3 == 0 and _on_segment(other.a, self.a, other.b):
            return True
        if o4 == 0 and _on_segment(other.a, self.b, other.b):
            return True
        return False

    def distance_to_point(self, point: Point) -> float:
        """Euclidean distance from ``point`` to the segment."""
        ax, ay = self.a.x, self.a.y
        bx, by = self.b.x, self.b.y
        px, py = point.x, point.y
        dx, dy = bx - ax, by - ay
        norm_sq = dx * dx + dy * dy
        if norm_sq == 0.0:
            return self.a.distance_to(point)
        t = ((px - ax) * dx + (py - ay) * dy) / norm_sq
        t = min(1.0, max(0.0, t))
        return math.hypot(px - (ax + t * dx), py - (ay + t * dy))
