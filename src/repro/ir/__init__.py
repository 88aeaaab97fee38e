"""Loop-nest IR (system S3): AST, expressions, parser, printer."""

from repro.ir.ast import (
    ArrayDecl, BoundSet, ExprCondition, Guard, HullBound, Loop, Node, Program,
    Statement, simplify_hull,
)
from repro.ir.expr import (
    BUILTIN_FUNCTIONS, ArrayRef, BinOp, Call, Expr, FloatLit, IntLit,
    UnaryOp, VarRef, affine_to_expr, as_affine,
)
from repro.ir.builder import NestBuilder, nest
from repro.ir.parser import (
    canonical_text, canonicalize, parse_expr, parse_program, program_key,
)
from repro.ir.printer import node_to_str, program_to_str

__all__ = [
    "Program", "Loop", "Statement", "Guard", "Node", "BoundSet", "HullBound",
    "simplify_hull", "ArrayDecl", "ExprCondition",
    "Expr", "IntLit", "FloatLit", "VarRef", "ArrayRef", "BinOp", "UnaryOp",
    "Call", "BUILTIN_FUNCTIONS", "as_affine", "affine_to_expr",
    "parse_program", "parse_expr", "program_to_str", "node_to_str",
    "canonicalize", "canonical_text", "program_key",
    "nest", "NestBuilder",
]
