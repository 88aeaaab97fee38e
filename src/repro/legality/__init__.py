"""Legality testing (system S8, paper §5.1-5.3)."""

from repro.legality.check import (
    DepStatus, LegalityReport, assert_legal, check, check_legality, lex_scan,
    surely_carried,
)
from repro.legality.structure import NewStructure, recover_structure

__all__ = [
    "check", "check_legality", "assert_legal", "LegalityReport", "DepStatus",
    "lex_scan", "surely_carried", "recover_structure", "NewStructure",
]
