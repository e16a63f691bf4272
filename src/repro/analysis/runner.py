"""The ``repro lint`` entry point: run every checker, render/serialize
the report.

An intentional exception to a checker is an allowlist in that
checker's module (``rng.CONSTRUCTOR_ALLOWLIST``,
``nondeterminism.PERF_COUNTER_ALLOWLIST``), reviewed with the code it
excuses.

The scan covers ``src/repro`` and ``benchmarks`` (the benchmark
harness emits schema-tagged artifacts and samples die populations, so
it is bound by the same contracts).  Tests are deliberately out of
scope: a test that pins a schema literal or constructs a throwaway
generator is asserting the contract, not participating in it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.analysis import (
    fingerprint,
    nondeterminism,
    purity,
    rng,
    schema_registry,
)
from repro.analysis.base import Checker, Finding, LintUsageError, Project
from repro.schemas import LINT_REPORT_SCHEMA

#: Repo-relative directories a lint run scans.
DEFAULT_TARGETS = ("src/repro", "benchmarks")

#: The registered checkers, each bound to the invariant it enforces.
CHECKERS: tuple[Checker, ...] = (
    Checker("rng", rng.INVARIANT, rng.check),
    Checker("nondeterminism", nondeterminism.INVARIANT, nondeterminism.check),
    Checker("fingerprint", fingerprint.INVARIANT, fingerprint.check),
    Checker("schema-registry", schema_registry.INVARIANT, schema_registry.check),
    Checker("purity", purity.INVARIANT, purity.check),
)


@dataclass(frozen=True)
class LintReport:
    """One lint run: what was scanned and what was found.

    Attributes:
        root: the repository root scanned.
        files_scanned: number of parsed source files.
        findings: every finding, sorted by location.
    """

    root: str
    files_scanned: int
    findings: tuple[Finding, ...]

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self) -> str:
        """The human-readable report."""
        lines = [finding.render() for finding in self.findings]
        summary = (
            f"repro lint: {len(self.findings)} finding(s), "
            f"{self.files_scanned} file(s) scanned"
        )
        if self.findings:
            lines.append(summary)
        else:
            lines.append(f"{summary} — clean")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        """The ``repro.lint-report/v2`` document."""
        return {
            "schema": LINT_REPORT_SCHEMA,
            "root": self.root,
            "files_scanned": self.files_scanned,
            "clean": self.clean,
            "checkers": [
                {"name": checker.name, "invariant": checker.invariant}
                for checker in CHECKERS
            ],
            "findings": [finding.to_dict() for finding in self.findings],
        }


def default_root() -> Path:
    """The repository root: cwd when it holds the tree, else derived
    from the installed package location (src/repro/... -> root)."""
    cwd = Path.cwd()
    if (cwd / "src" / "repro" / "streams.py").is_file():
        return cwd
    package_dir = Path(__file__).resolve().parent.parent
    candidate = package_dir.parent.parent
    if (candidate / "src" / "repro" / "streams.py").is_file():
        return candidate
    raise LintUsageError(
        "cannot locate the repository root (no src/repro tree under "
        f"{cwd} or the installed package); pass --root"
    )


def run_lint(
    root: Path | None = None,
    targets: Iterable[str] = DEFAULT_TARGETS,
) -> LintReport:
    """Run every checker.

    Args:
        root: repository root (auto-detected when omitted).
        targets: repo-relative directories to scan.

    Raises:
        LintUsageError: unusable root or unparseable source.
    """
    resolved_root = root if root is not None else default_root()
    if not resolved_root.is_dir():
        raise LintUsageError(f"root {resolved_root} is not a directory")
    project = Project.load(resolved_root, targets)
    findings: list[Finding] = []
    for checker in CHECKERS:
        findings.extend(checker.run(project))
    return LintReport(
        root=str(resolved_root),
        files_scanned=len(project.files),
        findings=tuple(
            sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
        ),
    )
