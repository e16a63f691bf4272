"""Checker 3 — campaign fingerprint coverage (``FPR*``).

A resumable ledger is only safe if the fingerprint in its header
really covers everything that can change a measured bit
(docs/architecture.md invariant 4).  The fingerprint serializes the
whole :class:`AdcConfig`, minus an explicit exclusion registry for
pure execution heuristics that must *not* invalidate ledgers (empty
while no such field exists).  The failure mode this checker guards
against is silent: someone adds a config field, never decides its
ledger semantics, and either stale ledgers resume against changed
physics (missing from the fingerprint) or harmless heuristics
invalidate every ledger in the fleet (wrongly included).

The registries live next to the dataclass in
``src/repro/core/config.py``:

* ``FINGERPRINT_FIELDS`` — fields that participate in the fingerprint;
* ``FINGERPRINT_EXCLUDED`` — field -> one-line justification for the
  fields that deliberately do not.

Rules:

* ``FPR001`` — a registry is missing or unparseable.
* ``FPR002`` — an ``AdcConfig`` field appears in neither registry
  (the "decide its ledger semantics" error).
* ``FPR003`` — a registry entry names no existing field (stale).
* ``FPR004`` — a field appears in both registries.
* ``FPR005`` — an exclusion has no justification string.
* ``FPR006`` — ``CampaignSpec.fingerprint`` drops a field by string
  literal instead of through ``FINGERPRINT_EXCLUDED``.
* ``FPR007`` — ``CampaignSpec.fingerprint`` never references the
  exclusion registry at all.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import MODULE_SCOPE, Finding, Project

#: Invariant id (docs/architecture.md, invariant 4).
INVARIANT = "fingerprint-coverage"

#: Where the config dataclass and its registries live.
CONFIG_PATH = "src/repro/core/config.py"
#: Where the fingerprint is assembled.
CAMPAIGN_PATH = "src/repro/runtime/campaign.py"

CONFIG_CLASS = "AdcConfig"
INCLUDED_NAME = "FINGERPRINT_FIELDS"
EXCLUDED_NAME = "FINGERPRINT_EXCLUDED"


def _finding(
    path: str, node: ast.AST, rule: str, scope: str, message: str, hint: str
) -> Finding:
    return Finding(
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        rule=rule,
        invariant=INVARIANT,
        scope=scope,
        message=message,
        hint=hint,
    )


def _dataclass_fields(class_def: ast.ClassDef) -> dict[str, ast.AnnAssign]:
    fields: dict[str, ast.AnnAssign] = {}
    for statement in class_def.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            fields[statement.target.id] = statement
    return fields


def _string_elements(node: ast.expr) -> list[str] | None:
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    out: list[str] = []
    for element in node.elts:
        if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
            return None
        out.append(element.value)
    return out


def _module_assignment(tree: ast.Module, name: str) -> ast.expr | None:
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
            value = statement.value
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
            value = statement.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                return value
    return None


def check(project: Project) -> Iterator[Finding]:
    """Run the fingerprint-coverage rules over the project."""
    config = project.file(CONFIG_PATH)
    if config is None:
        return
    class_def = next(
        (
            node
            for node in config.tree.body
            if isinstance(node, ast.ClassDef) and node.name == CONFIG_CLASS
        ),
        None,
    )
    if class_def is None:
        return
    fields = _dataclass_fields(class_def)

    included_node = _module_assignment(config.tree, INCLUDED_NAME)
    included = None if included_node is None else _string_elements(included_node)
    if included is None:
        yield _finding(
            config.path,
            included_node or class_def,
            "FPR001",
            MODULE_SCOPE,
            f"{INCLUDED_NAME} is missing or not a literal tuple of "
            "field names",
            "declare the fingerprinted fields next to the dataclass",
        )
        included = []

    excluded_node = _module_assignment(config.tree, EXCLUDED_NAME)
    excluded: dict[str, tuple[str, ast.AST]] = {}
    if not isinstance(excluded_node, ast.Dict):
        yield _finding(
            config.path,
            excluded_node or class_def,
            "FPR001",
            MODULE_SCOPE,
            f"{EXCLUDED_NAME} is missing or not a literal dict of "
            "field -> justification",
            "declare the exclusions next to the dataclass",
        )
    else:
        for key, value in zip(excluded_node.keys, excluded_node.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                continue
            reason = (
                value.value
                if isinstance(value, ast.Constant)
                and isinstance(value.value, str)
                else ""
            )
            excluded[key.value] = (reason, key)
            if not reason.strip():
                yield _finding(
                    config.path,
                    key,
                    "FPR005",
                    MODULE_SCOPE,
                    f"exclusion '{key.value}' has no justification",
                    "every fingerprint exclusion carries a one-line "
                    "reason it cannot change a measured bit",
                )

    included_set = set(included)
    for name, node in fields.items():
        in_included = name in included_set
        in_excluded = name in excluded
        if in_included and in_excluded:
            yield _finding(
                config.path,
                node,
                "FPR004",
                CONFIG_CLASS,
                f"field '{name}' is both fingerprinted and excluded",
                "a field has exactly one ledger semantic",
            )
        elif not in_included and not in_excluded:
            yield _finding(
                config.path,
                node,
                "FPR002",
                CONFIG_CLASS,
                f"field '{name}' has undecided ledger semantics",
                f"add it to {INCLUDED_NAME} (it can change measured "
                f"bits) or to {EXCLUDED_NAME} with a justification",
            )
    for name in list(included_set) + list(excluded):
        if name not in fields:
            source_node = excluded[name][1] if name in excluded else included_node
            yield _finding(
                config.path,
                source_node or class_def,
                "FPR003",
                MODULE_SCOPE,
                f"registry names '{name}', which is not an "
                f"{CONFIG_CLASS} field",
                "remove the stale registry entry",
            )

    yield from _check_fingerprint_method(project)


def _check_fingerprint_method(project: Project) -> Iterator[Finding]:
    campaign = project.file(CAMPAIGN_PATH)
    if campaign is None:
        return
    method: ast.FunctionDef | None = None
    for node in campaign.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "CampaignSpec":
            for statement in node.body:
                if (
                    isinstance(statement, ast.FunctionDef)
                    and statement.name == "fingerprint"
                ):
                    method = statement
    if method is None:
        return
    scope = "CampaignSpec.fingerprint"
    references_registry = False
    for node in ast.walk(method):
        if isinstance(node, ast.Name) and node.id == EXCLUDED_NAME:
            references_registry = True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield _finding(
                campaign.path,
                node,
                "FPR006",
                scope,
                f"fingerprint drops '{node.args[0].value}' by string "
                "literal",
                f"exclusions must come from {EXCLUDED_NAME} so the "
                "registry stays the single authority",
            )
    if not references_registry:
        yield _finding(
            campaign.path,
            method,
            "FPR007",
            scope,
            f"fingerprint never consults {EXCLUDED_NAME}",
            "iterate the registry when dropping excluded fields",
        )
