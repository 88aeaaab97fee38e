"""Instance-vector coordinate layouts (paper §2).

The paper maps every dynamic statement instance of an imperfectly
nested loop to an **instance vector** via the labeled-AST encoding of
Equation (1): a depth-first walk that visits children right-to-left and
concatenates node labels (loop indices) and edge labels (0/1 path
markers).  A :class:`Layout` makes that encoding explicit — it is the
ordered list of *coordinates* (loop positions and edge positions) that
all instance vectors of a program share, and every matrix in the
framework is indexed against it.

Identity of AST nodes is by *path*: the tuple of child indices from the
(virtual) root, so structurally identical sibling subtrees (which arise
after loop distribution) stay distinct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.ir.ast import Guard, Loop, Node, Program, Statement
from repro.util.errors import LayoutError

__all__ = ["Coord", "LoopCoord", "EdgeCoord", "Layout", "Path"]

Path = tuple[int, ...]


@dataclass(frozen=True)
class Coord:
    """Base class for one position of the instance-vector space."""

    path: Path


@dataclass(frozen=True)
class LoopCoord(Coord):
    """The label position of the loop node at ``path``."""

    var: str

    def __str__(self) -> str:
        return f"loop:{self.var}@{'.'.join(map(str, self.path)) or 'root'}"


@dataclass(frozen=True)
class EdgeCoord(Coord):
    """The label position of the edge from the node at ``path`` to its
    ``child``-th child (0-based).  Present only when the node has two or
    more children (the §2.2 single-edge optimization), unless the layout
    was built with ``optimize_single_edges=False``."""

    child: int

    def __str__(self) -> str:
        return f"edge:{'.'.join(map(str, self.path)) or 'root'}->{self.child}"


class Layout:
    """The instance-vector coordinate system of a program.

    ``layout.coords`` lists the coordinates in instance-vector order:
    for each node, its loop label first, then its edge labels for
    children m..1 (right to left), then the subtree coordinates of
    children m..1 (right to left) — exactly Equation (1).
    """

    def __init__(self, program: Program, *, optimize_single_edges: bool = True):
        self.program = program
        self.optimize_single_edges = optimize_single_edges
        self._coords: list[Coord] = []
        self._index: dict[Coord, int] = {}
        self._node_at: dict[Path, Node] = {}
        self._stmt_paths: dict[str, Path] = {}
        self._build(program.body, ())
        for i, c in enumerate(self._coords):
            self._index[c] = i

    # -- construction ---------------------------------------------------------

    def _build(self, children: Sequence[Node], path: Path) -> None:
        if path:
            node = self._node_at[path]
            if isinstance(node, Loop):
                self._coords.append(LoopCoord(path, node.var))
        # The virtual root is an artifact of our forest representation and
        # never labels a single outgoing edge, even un-optimized.
        if len(children) >= 2 or (not self.optimize_single_edges and children and path):
            for j in reversed(range(len(children))):
                self._coords.append(EdgeCoord(path, j))
        for j in reversed(range(len(children))):
            child = children[j]
            cpath = path + (j,)
            self._node_at[cpath] = child
            if isinstance(child, Statement):
                self._stmt_paths[child.label] = cpath
            elif isinstance(child, Loop):
                self._build(child.body, cpath)
            elif isinstance(child, Guard):
                raise LayoutError("layouts are defined for source programs without guards")
            else:  # pragma: no cover - defensive
                raise LayoutError(f"unknown node type {type(child).__name__}")

    # -- basic queries ------------------------------------------------------------

    @property
    def coords(self) -> tuple[Coord, ...]:
        return tuple(self._coords)

    @property
    def dimension(self) -> int:
        return len(self._coords)

    def index(self, coord: Coord) -> int:
        try:
            return self._index[coord]
        except KeyError:
            raise LayoutError(f"coordinate {coord} is not in this layout") from None

    def node_at(self, path: Path) -> Node:
        if not path:
            raise LayoutError("the virtual root has no node")
        try:
            return self._node_at[path]
        except KeyError:
            raise LayoutError(f"no node at path {path}") from None

    def children_of(self, path: Path) -> tuple[Node, ...]:
        """The children of the loop at ``path``; for the virtual root
        ``()``, the program's top-level body."""
        if not path:
            return self.program.body
        node = self.node_at(path)
        assert isinstance(node, Loop)
        return node.body

    def statement_path(self, label: str) -> Path:
        try:
            return self._stmt_paths[label]
        except KeyError:
            raise LayoutError(f"no statement labeled {label!r}") from None

    def statement_labels(self) -> list[str]:
        return sorted(self._stmt_paths, key=lambda l: self._stmt_paths[l])

    def loop_coords(self) -> list[LoopCoord]:
        return [c for c in self._coords if isinstance(c, LoopCoord)]

    def edge_coords(self) -> list[EdgeCoord]:
        return [c for c in self._coords if isinstance(c, EdgeCoord)]

    def loop_coord_by_var(self, var: str) -> LoopCoord:
        """Lookup a loop coordinate by variable name.

        Raises :class:`LayoutError` if the name is ambiguous (possible
        after distribution duplicates a loop) or unknown.
        """
        matches = [c for c in self.loop_coords() if c.var == var]
        if not matches:
            raise LayoutError(f"no loop variable {var!r} in layout")
        if len(matches) > 1:
            raise LayoutError(f"loop variable {var!r} is ambiguous; use paths")
        return matches[0]

    def loop_index_by_var(self, var: str) -> int:
        return self.index(self.loop_coord_by_var(var))

    # -- statement-centric queries ---------------------------------------------------

    def surrounding_loop_coords(self, label: str) -> list[LoopCoord]:
        """Loop coordinates of the loops enclosing the statement,
        outermost first."""
        spath = self.statement_path(label)
        out = []
        for depth in range(1, len(spath)):
            prefix = spath[:depth]
            node = self._node_at[prefix]
            if isinstance(node, Loop):
                out.append(LoopCoord(prefix, node.var))
        return out

    def surrounding_loop_positions(self, label: str) -> list[int]:
        return [self.index(c) for c in self.surrounding_loop_coords(label)]

    def padded_positions(self, label: str) -> list[int]:
        """Indices of this statement's padded loop positions (Def. 4):
        loop coordinates whose loop does *not* surround the statement."""
        surrounding = set(self.surrounding_loop_positions(label))
        return [
            self.index(c)
            for c in self.loop_coords()
            if self.index(c) not in surrounding
        ]

    def common_loop_coords(self, label1: str, label2: str) -> list[LoopCoord]:
        """Loop coordinates common to both statements, outside-in."""
        c1 = self.surrounding_loop_coords(label1)
        c2 = set(self.surrounding_loop_coords(label2))
        return [c for c in c1 if c in c2]

    def edge_entry(self, coord: EdgeCoord, label: str) -> int:
        """0/1 edge label for this statement's root-to-leaf path."""
        spath = self.statement_path(label)
        edge_path = coord.path + (coord.child,)
        return 1 if spath[: len(edge_path)] == edge_path else 0

    def pad_source(self, coord: LoopCoord, label: str) -> LoopCoord | None:
        """For a padded position, the loop whose label fills it: the
        nearest labeled (i.e. surrounding-``label``) ancestor of the
        coordinate's node.  None when there is no labeled ancestor (the
        entry pads with 0)."""
        surrounding = {c.path: c for c in self.surrounding_loop_coords(label)}
        p = coord.path
        while p:
            p = p[:-1]
            if p in surrounding:
                return surrounding[p]
        return None

    def iter_coords(self) -> Iterator[tuple[int, Coord]]:
        return enumerate(self._coords)

    def describe(self) -> str:
        """Human-readable table of the coordinate system."""
        return "\n".join(f"{i:3d}  {c}" for i, c in self.iter_coords())

    def __len__(self) -> int:
        return self.dimension

    def __repr__(self) -> str:
        return f"Layout({self.program.name!r}, dim={self.dimension})"
