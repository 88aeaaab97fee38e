"""Block-structure validation and transformed-AST recovery (paper §5.2).

A legal transformation matrix must carry each *edge* coordinate of the
source layout to an edge coordinate of the target layout via exact unit
rows, consistently with a per-node permutation of children — that is
the "block structure" of Figure 5, and recovering those permutations is
procedure ``NewAST`` of Figure 6.  Loop-label rows are unconstrained
here (skewing and alignment may reference any source coordinate); they
are handled by the per-statement machinery during code generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.instance.layout import EdgeCoord, Layout, Path
from repro.ir.ast import Loop, Node, Program, Statement
from repro.linalg.intmat import IntMatrix
from repro.util.errors import CodegenError

__all__ = ["NewStructure", "recover_structure"]


@dataclass
class NewStructure:
    """Result of structure recovery.

    ``child_order[p]`` gives, for the node at *old* path ``p``, the old
    child indices in their new order.  ``skeleton`` is the transformed
    program with children permuted (loop bounds still the old ones —
    code generation replaces them).  ``new_layout`` is the layout of the
    skeleton; its coordinate indices equal the row indices of the
    transformation matrix.  ``old_to_new_path`` maps old node paths to
    new node paths.
    """

    child_order: dict[Path, list[int]] = field(default_factory=dict)
    skeleton: Program | None = None
    new_layout: Layout | None = None
    old_to_new_path: dict[Path, Path] = field(default_factory=dict)

    def new_statement_path(self, layout: Layout, label: str) -> Path:
        return self.old_to_new_path[layout.statement_path(label)]

    def syntactically_before(self, label1: str, label2: str) -> bool:
        """⪯ₛ in the *new* AST."""
        assert self.skeleton is not None
        return self.skeleton.syntactically_before(label1, label2)


def _block_range(layout: Layout, path: Path) -> tuple[int, int]:
    """The contiguous [start, end) coordinate range of the subtree at
    ``path`` (for the virtual root, the whole layout)."""
    if not path:
        return 0, layout.dimension
    idxs = [
        i
        for i, c in layout.iter_coords()
        if c.path[: len(path)] == path or (isinstance(c, EdgeCoord) and c.path == path)
    ]
    if not idxs:
        return 0, 0
    lo, hi = min(idxs), max(idxs) + 1
    assert idxs == list(range(lo, hi)), "subtree coordinates are not contiguous"
    return lo, hi


def recover_structure(layout: Layout, matrix: IntMatrix) -> NewStructure:
    """Validate the Figure-5 block structure of ``matrix`` and recover
    the transformed AST (Figure 6's ``NewAST``).

    Raises :class:`CodegenError` when the matrix does not have the
    required structure.
    """
    n = layout.dimension
    if matrix.shape != (n, n):
        raise CodegenError(f"matrix shape {matrix.shape} does not match layout dim {n}")
    program = layout.program
    result = NewStructure()

    def subtree_size(path: Path) -> int:
        lo, hi = _block_range(layout, path)
        return hi - lo

    def recurse(old_path: Path, new_path: Path, new_start: int, new_end: int) -> Node | list[Node]:
        """Process the node at ``old_path`` whose new block occupies
        rows [new_start, new_end); returns the rebuilt node (or the
        top-level body list for the virtual root)."""
        result.old_to_new_path[old_path] = new_path
        node = layout.node_at(old_path) if old_path else None
        if isinstance(node, Statement):
            return node
        children = layout.children_of(old_path)
        c = len(children)
        cursor = new_start
        if isinstance(node, Loop):
            cursor += 1  # the loop-label row; unconstrained here
        order: list[int]
        if c >= 2:
            edge_rows = list(range(cursor, cursor + c))
            cursor += c
            old_edge_cols = [layout.index(EdgeCoord(old_path, j)) for j in range(c)]
            # Decode the permutation: new edge row (for new child c-1-a)
            # must be the unit vector of exactly one old edge column.
            new_child_of: dict[int, int] = {}
            for a, r in enumerate(edge_rows):
                row = matrix[r]
                hits = [j for j, col in enumerate(old_edge_cols) if row[col] == 1]
                if len(hits) != 1 or any(
                    v != 0 for k, v in enumerate(row) if k != old_edge_cols[hits[0]]
                ):
                    raise CodegenError(
                        f"row {r} is not a unit edge row for node {old_path or 'root'}; "
                        "matrix lacks the Figure-5 block structure"
                    )
                # edge rows are listed right-to-left: relative a <-> new child c-1-a
                new_child_of[c - 1 - a] = hits[0]
            if sorted(new_child_of.values()) != list(range(c)):
                raise CodegenError(
                    f"edge rows of node {old_path or 'root'} do not form a permutation"
                )
            order = [new_child_of[k] for k in range(c)]
        else:
            order = list(range(c))
        result.child_order[old_path] = order

        # child blocks appear in reverse new order after the edges
        new_children: list[Node | None] = [None] * c
        sizes = [subtree_size(old_path + (j,)) for j in order]
        for k in reversed(range(c)):
            size = sizes[k]
            rebuilt = recurse(old_path + (order[k],), new_path + (k,), cursor, cursor + size)
            assert not isinstance(rebuilt, list)
            new_children[k] = rebuilt
            cursor += size
        if cursor != new_end:
            raise CodegenError(
                f"block of node {old_path or 'root'} has inconsistent size "
                f"(ended at {cursor}, expected {new_end})"
            )
        if isinstance(node, Loop):
            return node.with_body(tuple(new_children))
        return list(new_children)  # virtual root

    body = recurse((), (), 0, n)
    assert isinstance(body, list)
    result.skeleton = program.with_body(tuple(body), name=program.name + "_transformed")
    result.new_layout = Layout(result.skeleton, optimize_single_edges=layout.optimize_single_edges)
    if result.new_layout.dimension != n:  # pragma: no cover - structural invariant
        raise CodegenError("recovered skeleton has wrong layout dimension")
    return result
