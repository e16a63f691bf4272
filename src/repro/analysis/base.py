"""Shared infrastructure of the ``repro lint`` checkers.

Everything here is plain ``ast`` over source text — no imports of the
code under analysis, so the linter can check a tree that does not even
import (and a fixture tree in a test's tmp directory exactly the same
way as the real repository).

The pieces:

* :class:`Finding` — one lint result: file, line, rule id, the
  architecture invariant it enforces, a message and a fix hint.
* :class:`SourceFile` / :class:`Project` — the parsed view of the
  scanned tree, with repo-relative POSIX paths as the stable addressing
  scheme (checker allowlists key on them).
* :func:`import_aliases` / :func:`resolve_dotted` — best-effort static
  resolution of ``np.random.default_rng``-style dotted names through
  the module's import bindings, so aliased imports cannot dodge a
  checker.
* :func:`walk_scoped` — an AST walk that carries the qualified
  enclosing scope (``Class.method``), which findings report.
* :func:`docstring_nodes` — the string constants that are docstrings,
  so text that merely *mentions* a forbidden pattern is never flagged.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

#: Scope label for module-level findings.
MODULE_SCOPE = "<module>"


class LintUsageError(Exception):
    """The lint run itself is misconfigured (bad root, bad file)."""


@dataclass(frozen=True)
class Finding:
    """One lint result.

    Attributes:
        path: repo-relative POSIX path of the offending file.
        line: 1-based source line.
        col: 0-based source column.
        rule: stable rule id (``RNG001``, ``PUR002``, ...).
        invariant: the architecture invariant the rule enforces
            (``rng-stream-discipline``, ``die-purity``, ...).
        scope: qualified enclosing scope (``Class.method``, a function
            name, or ``<module>``).
        message: what is wrong.
        hint: how to fix it (or where the sanctioned helper lives).
    """

    path: str
    line: int
    col: int
    rule: str
    invariant: str
    scope: str
    message: str
    hint: str

    def render(self) -> str:
        """The one-line human-readable form."""
        text = (
            f"{self.path}:{self.line}:{self.col + 1}: {self.rule} "
            f"[{self.invariant}] {self.message}"
        )
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (feeds the ``repro.lint-report/v2`` doc)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "invariant": self.invariant,
            "scope": self.scope,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass(frozen=True)
class SourceFile:
    """One parsed source file of the scanned tree."""

    path: str
    tree: ast.Module


class Project:
    """The parsed view of every file a lint run looks at.

    Args:
        root: the repository root the relative paths are anchored at.
        files: parsed sources, repo-relative POSIX paths.
    """

    def __init__(self, root: Path, files: Iterable[SourceFile]):
        self.root = root
        self.files: tuple[SourceFile, ...] = tuple(files)
        self._by_path: dict[str, SourceFile] = {
            source.path: source for source in self.files
        }

    @classmethod
    def load(cls, root: Path, targets: Iterable[str]) -> "Project":
        """Parse every ``.py`` file under the target directories.

        Args:
            root: repository root.
            targets: repo-relative directories (or single files) to
                scan; missing ones are skipped so a partial fixture
                tree still loads.

        Raises:
            LintUsageError: when a scanned file fails to parse — a
                syntax error would otherwise silently drop the file
                from every checker.
        """
        files: list[SourceFile] = []
        for target in targets:
            base = root / target
            if base.is_file():
                paths = [base]
            elif base.is_dir():
                paths = sorted(base.rglob("*.py"))
            else:
                continue
            for path in paths:
                relative = path.relative_to(root).as_posix()
                try:
                    tree = ast.parse(path.read_text(), filename=relative)
                except SyntaxError as error:
                    raise LintUsageError(f"cannot parse {relative}: {error}") from None
                files.append(SourceFile(path=relative, tree=tree))
        return cls(root, files)

    def file(self, path: str) -> SourceFile | None:
        """The parsed file at a repo-relative path, if scanned."""
        return self._by_path.get(path)


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted import path for every import binding.

    ``import numpy as np`` binds ``np -> numpy``;
    ``from numpy.random import default_rng as mk`` binds
    ``mk -> numpy.random.default_rng``.  Relative imports are internal
    to the package under analysis and are not resolved.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else local
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def resolve_dotted(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """The fully-resolved dotted name of a Name/Attribute chain.

    ``np.random.default_rng`` resolves to
    ``numpy.random.default_rng`` under ``import numpy as np``; returns
    None for expressions that are not a plain dotted chain (calls,
    subscripts, ...).
    """
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(aliases.get(current.id, current.id))
    return ".".join(reversed(parts))


def walk_scoped(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
    """Every AST node paired with its qualified enclosing scope.

    The scope of a node inside ``class Mdac: def amplify(...)`` is
    ``"Mdac.amplify"``; module-level nodes report
    :data:`MODULE_SCOPE`.  A def/class node itself belongs to the scope
    that *contains* it.
    """
    stack: list[tuple[ast.AST, str]] = [(tree, MODULE_SCOPE)]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            yield child, scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == MODULE_SCOPE else f"{scope}.{child.name}"
                stack.append((child, inner))
            else:
                stack.append((child, scope))


def docstring_nodes(tree: ast.Module) -> set[int]:
    """``id()`` of every Constant node that is a docstring."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if not body:
            continue
        first = body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            out.add(id(first.value))
    return out


@dataclass(frozen=True)
class Checker:
    """One registered checker: a rule family bound to an invariant."""

    name: str
    invariant: str
    run: Callable[[Project], Iterable[Finding]]
