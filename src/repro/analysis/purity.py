"""Checker 5 — die purity (``PUR*``).

Template transparency (docs/architecture.md invariant 6) rests on a
structural property: a constructed die, and the cached template every
die of its PVT point shares, is immutable for its lifetime.  A die
converts more than once, so an :class:`Mdac` that mutated itself during
one conversion would leak state into the next, and a mutated template
into every die later built on it — the kind of bug that only shows up
as a bit mismatch three workloads away.
This checker makes the property static: in the die classes,
attribute assignment is legal only inside the documented constructors
(``__init__`` / ``__post_init__`` / the ``_build*`` construction
helpers ``__init__`` delegates to).

Rules:

* ``PUR001`` — ``self.attr = ...`` (or ``del self.attr``) outside a
  constructor method of a die class.
* ``PUR002`` — ``setattr(self, ...)`` / ``object.__setattr__(self,
  ...)`` outside a constructor method (the frozen-dataclass bypass).
  A derived value is computed in the constructor instead of memoised
  on first use.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import Finding, Project

#: Invariant id (docs/architecture.md, invariant 6).
INVARIANT = "die-purity"

#: The die classes: everything a ``die_cache.build_die`` call returns,
#: transitively, and the cached die templates the dies of one PVT point
#: share — the template itself and what it hands to every die built on
#: it.
DIE_CLASSES: dict[str, frozenset[str]] = {
    "src/repro/core/adc.py": frozenset({"PipelineAdc", "DieTemplate", "StageTemplate"}),
    "src/repro/core/stage.py": frozenset({"PipelineStage"}),
    "src/repro/core/mdac.py": frozenset({"Mdac"}),
    "src/repro/core/subadc.py": frozenset({"SubAdc"}),
    "src/repro/core/flash.py": frozenset({"FlashBackend"}),
    "src/repro/core/correction.py": frozenset({"DigitalCorrection"}),
    "src/repro/devices/comparator.py": frozenset({"DynamicComparator"}),
    "src/repro/devices/opamp.py": frozenset({"TwoStageMillerOpamp"}),
    "src/repro/devices/opamp_design.py": frozenset({"OpampDesigner", "InputPair"}),
    "src/repro/devices/switch.py": frozenset(
        {
            "_TransmissionGateBase",
            "TransmissionGate",
            "BulkSwitchedTransmissionGate",
            "BootstrappedSwitch",
        }
    ),
    "src/repro/analog/sampling.py": frozenset({"TrackingModel", "SamplingNetwork"}),
    "src/repro/analog/bias.py": frozenset(
        {"ScBiasCurrentGenerator", "FixedBiasGenerator"}
    ),
}

#: Methods allowed to assign attributes.
CONSTRUCTOR_METHODS = frozenset({"__init__", "__post_init__"})

#: Construction helpers ``__init__`` delegates to.
CONSTRUCTOR_PREFIX = "_build"


def _is_constructor(method_name: str) -> bool:
    return method_name in CONSTRUCTOR_METHODS or method_name.startswith(
        CONSTRUCTOR_PREFIX
    )


def _self_attribute(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_self_setattr(node: ast.Call) -> bool:
    func = node.func
    named_setattr = isinstance(func, ast.Name) and func.id == "setattr"
    dunder_setattr = (
        isinstance(func, ast.Attribute)
        and func.attr == "__setattr__"
        and isinstance(func.value, ast.Name)
        and func.value.id == "object"
    )
    if not (named_setattr or dunder_setattr):
        return False
    return bool(
        node.args
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "self"
    )


def check(project: Project) -> Iterator[Finding]:
    """Run the die-purity rules over the die classes."""
    for path, class_names in DIE_CLASSES.items():
        source = project.file(path)
        if source is None:
            continue
        for node in source.tree.body:
            if isinstance(node, ast.ClassDef) and node.name in class_names:
                yield from _check_class(path, node)


def _check_class(path: str, class_def: ast.ClassDef) -> Iterator[Finding]:
    for statement in class_def.body:
        if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if _is_constructor(statement.name):
            continue
        scope = f"{class_def.name}.{statement.name}"
        for node in ast.walk(statement):
            yield from _check_node(path, class_def.name, scope, node)


def _check_node(
    path: str, class_name: str, scope: str, node: ast.AST
) -> Iterator[Finding]:
    targets: list[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    for target in targets:
        flat = (
            list(target.elts)
            if isinstance(target, (ast.Tuple, ast.List))
            else [target]
        )
        for element in flat:
            attribute = _self_attribute(element)
            if attribute is not None:
                yield Finding(
                    path=path,
                    line=element.lineno,
                    col=element.col_offset,
                    rule="PUR001",
                    invariant=INVARIANT,
                    scope=scope,
                    message=(
                        f"die class {class_name} assigns "
                        f"self.{attribute} outside its constructors"
                    ),
                    hint=(
                        "a die is frozen after construction; compute "
                        "per-call state locally or key it off the "
                        "conversion, not the die"
                    ),
                )
    if isinstance(node, ast.Call) and _is_self_setattr(node):
        yield Finding(
            path=path,
            line=node.lineno,
            col=node.col_offset,
            rule="PUR002",
            invariant=INVARIANT,
            scope=scope,
            message=(
                f"die class {class_name} mutates self via "
                "setattr outside its constructors"
            ),
            hint="compute the derived value in a constructor method",
        )
