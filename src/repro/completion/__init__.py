"""Completion procedure (system S10, paper §6)."""

from repro.completion.complete import CompletionResult, complete_transformation

__all__ = ["complete_transformation", "CompletionResult"]
