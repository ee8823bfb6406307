"""Routed paths: walks over ``(x, y, layer)`` grid nodes."""

from __future__ import annotations

from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from repro.geometry.point import Point
from repro.geometry.segment import Segment
from repro.grid.layers import Layer


class GridNode(NamedTuple):
    """One occupied grid location: a cell on a specific layer."""

    x: int
    y: int
    layer: Layer

    @property
    def point(self) -> Point:
        """The ``(x, y)`` cell, layer dropped."""
        return Point(self.x, self.y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GridNode({self.x}, {self.y}, {Layer(self.layer).short_name})"


class PathError(ValueError):
    """Raised for walks that are not legal grid paths."""


#: Layer members by value.  Paths are built by the thousand, so each node
#: looks its layer up here instead of calling the ``Layer`` enum; any
#: value this table does not hold still goes through ``Layer(value)``,
#: which accepts or rejects it exactly as before.
_LAYER_OF = {int(layer): layer for layer in Layer}


class GridPath:
    """An immutable legal walk over the routing grid.

    Consecutive nodes must either be Manhattan neighbours on the same layer
    (a wire step) or the same cell on the other layer (a via).  A path with
    a single node is legal (a connection whose endpoints already touch).
    """

    __slots__ = ("_nodes",)

    def __init__(self, nodes: Iterable[Tuple[int, int, int]]) -> None:
        layer_of = _LAYER_OF
        new_node = tuple.__new__
        normalised: List[GridNode] = []
        append = normalised.append
        for x, y, layer in nodes:
            try:
                member = layer_of[layer]
            except (KeyError, TypeError):
                member = None
            if member is None:
                member = Layer(layer)
            append(new_node(GridNode, (x, y, member)))
        if not normalised:
            raise PathError("a path needs at least one node")
        prev = normalised[0]
        px, py, player = prev
        for node in normalised[1:]:
            x, y, layer = node
            step = abs(px - x) + abs(py - y)
            if layer is player:
                if step != 1:
                    if node == prev:
                        raise PathError(f"repeated node {prev!r}")
                    raise PathError(
                        f"non-unit wire step {prev!r} -> {node!r}"
                    )
            elif step != 0:
                raise PathError(f"diagonal via {prev!r} -> {node!r}")
            prev, px, py, player = node, x, y, layer
        self._nodes = tuple(normalised)

    @property
    def nodes(self) -> Tuple[GridNode, ...]:
        """The node sequence (start to end)."""
        return self._nodes

    @property
    def start(self) -> GridNode:
        """First node of the walk."""
        return self._nodes[0]

    @property
    def end(self) -> GridNode:
        """Last node of the walk."""
        return self._nodes[-1]

    @property
    def wire_length(self) -> int:
        """Number of unit wire steps (vias excluded)."""
        return sum(
            1 for a, b in self._steps() if a.layer == b.layer
        )

    @property
    def via_count(self) -> int:
        """Number of layer changes along the walk."""
        return sum(1 for a, b in self._steps() if a.layer != b.layer)

    def via_cells(self) -> List[Point]:
        """Cells where the walk changes layer."""
        return [a.point for a, b in self._steps() if a.layer != b.layer]

    def segments(self) -> List[Tuple[Segment, Layer]]:
        """Maximal straight runs as ``(segment, layer)`` pairs.

        Vias break segments; a lone node yields one degenerate segment.
        """
        result: List[Tuple[Segment, Layer]] = []
        run_start = self._nodes[0]
        prev = self._nodes[0]
        prev_dir = None
        for node in self._nodes[1:]:
            if node.layer != prev.layer:
                result.append((Segment(run_start.point, prev.point), prev.layer))
                run_start, prev_dir = node, None
            else:
                direction = (node.x - prev.x, node.y - prev.y)
                if prev_dir is not None and direction != prev_dir:
                    result.append(
                        (Segment(run_start.point, prev.point), prev.layer)
                    )
                    run_start = prev
                prev_dir = direction
            prev = node
        result.append((Segment(run_start.point, prev.point), prev.layer))
        return result

    def reversed(self) -> "GridPath":
        """The same walk traversed end-to-start."""
        return GridPath(reversed(self._nodes))

    def _steps(self) -> Iterator[Tuple[GridNode, GridNode]]:
        return zip(self._nodes, self._nodes[1:])

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[GridNode]:
        return iter(self._nodes)

    def __getitem__(self, index: int) -> GridNode:
        return self._nodes[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridPath):
            return NotImplemented
        return self._nodes == other._nodes

    def __hash__(self) -> int:
        return hash(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GridPath({self.start!r} -> {self.end!r}, "
            f"wire={self.wire_length}, vias={self.via_count})"
        )


def straight_path(
    a: Point, b: Point, layer: Layer
) -> GridPath:
    """Build the single-segment path from ``a`` to ``b`` on ``layer``.

    ``a`` and ``b`` must be axis-aligned; a degenerate (single-node) path is
    produced when they coincide.
    """
    seg = Segment(a, b)
    pts: Sequence[Point] = list(seg.points())
    if Point(*a) != seg.a:
        pts = list(reversed(pts))
    return GridPath([(p.x, p.y, layer) for p in pts])
