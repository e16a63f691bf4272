"""Static enforcement of the determinism contract.

``repro.analysis`` is a self-contained, stdlib-``ast`` based checker
package behind the ``repro lint`` CLI subcommand.  Each checker module
enforces one documented invariant of the repository (see
docs/architecture.md): RNG stream discipline, absence of
nondeterminism sources in engine code, campaign-fingerprint coverage,
single-source schema tags, and die purity.

The package deliberately imports nothing from the rest of ``repro``
except :mod:`repro.schemas` — it is a typed island checked strictly by
mypy, and linting must not execute (or depend on the health of) the
code under analysis.
"""

from __future__ import annotations

from repro.analysis.base import (
    MODULE_SCOPE,
    Checker,
    Finding,
    LintUsageError,
    Project,
    SourceFile,
)
from repro.analysis.runner import (
    CHECKERS,
    DEFAULT_TARGETS,
    LintReport,
    default_root,
    run_lint,
)

__all__ = [
    "CHECKERS",
    "Checker",
    "DEFAULT_TARGETS",
    "Finding",
    "LintReport",
    "LintUsageError",
    "MODULE_SCOPE",
    "Project",
    "SourceFile",
    "default_root",
    "run_lint",
]
