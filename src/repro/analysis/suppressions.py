"""The committed suppression file of ``repro lint``.

Intentional exceptions to a checker live in one reviewed file at the
repository root (``lint-suppressions.txt``), one per line::

    # comment
    PUR002 src/repro/core/mdac.py Mdac.amplify -- one-line justification

The four parts: the rule id, the repo-relative path, the qualified
scope the finding sits in (``Class.method``, a function name,
``<module>``, or ``*`` for any scope in the file), then ``--`` and a
mandatory one-line justification.  Scope-keyed matching survives line
drift — a suppression does not rot when unrelated edits move code
around — while staying narrow enough that a *new* violation in a
different method of the same file is still reported.

An entry that matches nothing is itself a finding (``SUP001``), so the
file cannot accumulate dead exceptions; a malformed line is a finding
too (``SUP002``) rather than a crash, so the lint report always
renders.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.base import Finding

#: Default repo-relative location of the suppression file.
SUPPRESSION_FILE = "lint-suppressions.txt"

#: Invariant id for suppression-hygiene findings.
INVARIANT = "suppression-hygiene"


@dataclass(frozen=True)
class Suppression:
    """One committed exception.

    Attributes:
        rule: the rule id it silences (``PUR002``, ...).
        path: repo-relative POSIX path it applies to.
        scope: qualified scope within the file, or ``*``.
        reason: the mandatory one-line justification.
        line: its line in the suppression file.
    """

    rule: str
    path: str
    scope: str
    reason: str
    line: int

    def matches(self, finding: Finding) -> bool:
        return (
            self.rule == finding.rule
            and self.path == finding.path
            and self.scope in ("*", finding.scope)
        )


@dataclass(frozen=True)
class SuppressionResult:
    """The outcome of applying a suppression file to raw findings.

    Attributes:
        kept: findings no suppression matched (plus hygiene findings).
        suppressed: (finding, suppression) pairs that were silenced.
    """

    kept: tuple[Finding, ...]
    suppressed: tuple[tuple[Finding, Suppression], ...]


def parse_suppressions(
    text: str, file_label: str
) -> tuple[list[Suppression], list[Finding]]:
    """Parse the suppression file text.

    Returns the parsed entries plus ``SUP002`` findings for malformed
    lines (missing fields or missing justification).
    """
    entries: list[Suppression] = []
    findings: list[Finding] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, separator, reason = line.partition("--")
        parts = head.split()
        if separator == "" or len(parts) != 3 or not reason.strip():
            findings.append(
                Finding(
                    path=file_label,
                    line=number,
                    col=0,
                    rule="SUP002",
                    invariant=INVARIANT,
                    scope="<file>",
                    message=(
                        "malformed suppression (expected "
                        "'RULE path scope -- justification')"
                    ),
                    hint="every exception carries a one-line reason",
                )
            )
            continue
        entries.append(
            Suppression(
                rule=parts[0],
                path=parts[1],
                scope=parts[2],
                reason=reason.strip(),
                line=number,
            )
        )
    return entries, findings


def load_suppressions(
    path: Path, file_label: str
) -> tuple[list[Suppression], list[Finding]]:
    """Parse the suppression file at ``path`` (absent = no entries)."""
    if not path.is_file():
        return [], []
    return parse_suppressions(path.read_text(), file_label)


def apply_suppressions(
    findings: Iterable[Finding],
    suppressions: Sequence[Suppression],
    file_label: str,
) -> SuppressionResult:
    """Split findings into kept and suppressed; flag unused entries."""
    kept: list[Finding] = []
    suppressed: list[tuple[Finding, Suppression]] = []
    used: set[int] = set()
    for finding in findings:
        match = next(
            (entry for entry in suppressions if entry.matches(finding)),
            None,
        )
        if match is None:
            kept.append(finding)
        else:
            used.add(match.line)
            suppressed.append((finding, match))
    for entry in suppressions:
        if entry.line not in used:
            kept.append(
                Finding(
                    path=file_label,
                    line=entry.line,
                    col=0,
                    rule="SUP001",
                    invariant=INVARIANT,
                    scope="<file>",
                    message=(
                        f"suppression '{entry.rule} {entry.path} "
                        f"{entry.scope}' matches no finding"
                    ),
                    hint="delete stale entries so the file stays honest",
                )
            )
    return SuppressionResult(kept=tuple(kept), suppressed=tuple(suppressed))
