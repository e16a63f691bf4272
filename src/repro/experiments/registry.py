"""Experiment result types and the id -> runner registry."""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.evaluation.reporting import format_table
from repro.runtime.batch import BatchResult, BatchRunner, ProgressCallback


@dataclass(frozen=True)
class ClaimCheck:
    """One verifiable paper claim.

    Attributes:
        claim: the claim, quoting or paraphrasing the paper.
        passed: whether the reproduction satisfies it.
        detail: the measured numbers behind the verdict.
    """

    claim: str
    passed: bool
    detail: str

    def render(self) -> str:
        status = "PASS" if self.passed else "MISS"
        return f"[{status}] {self.claim}\n       {self.detail}"


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one experiment produced.

    Attributes:
        experiment_id: registry id (``fig5``, ``table1``, ...).
        title: one-line description of the reproduced artifact.
        headers: column names of the regenerated rows.
        rows: the regenerated table/series rows.
        claims: the paper-shape claim checks.
        notes: free-text caveats (e.g. documented deviations).
    """

    experiment_id: str
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    claims: tuple[ClaimCheck, ...]
    notes: tuple[str, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def render(self) -> str:
        """Full textual report."""
        lines = [f"== {self.experiment_id}: {self.title} ==", ""]
        lines.append(format_table(self.headers, self.rows))
        lines.append("")
        for claim in self.claims:
            lines.append(claim.render())
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


#: Registered experiment runners: id -> callable(quick) -> result(s).
_REGISTRY: dict[str, Callable[[bool], ExperimentResult]] = {}


def register(experiment_id: str):
    """Decorator: add a runner to the registry."""

    def wrap(runner: Callable[[bool], ExperimentResult]):
        if experiment_id in _REGISTRY:
            raise ConfigurationError(
                f"duplicate experiment id '{experiment_id}'"
            )
        _REGISTRY[experiment_id] = runner
        return runner

    return wrap


def available_experiments() -> list[str]:
    """All registered experiment ids."""
    _load_all()
    return sorted(_REGISTRY)


def run_experiment(experiment_id: str, quick: bool = False) -> ExperimentResult:
    """Run one experiment by id.

    Args:
        experiment_id: one of :func:`available_experiments`.
        quick: trade statistical confidence for speed (fewer samples /
            sweep points); used by smoke tests.
    """
    _load_all()
    if experiment_id not in _REGISTRY:
        raise ConfigurationError(
            f"unknown experiment '{experiment_id}'; available: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[experiment_id](quick)


def _run_for_batch(task: tuple[str, bool]) -> ExperimentResult:
    """Picklable batch task: run one registered experiment."""
    experiment_id, quick = task
    return run_experiment(experiment_id, quick=quick)


def run_experiment_batch(
    experiment_ids: Iterable[str],
    quick: bool = False,
    workers: int | None = 1,
    progress: ProgressCallback | None = None,
) -> BatchResult:
    """Run many experiments through the batch runtime.

    The fig4-fig8/table1 runners (and every other registered
    experiment) route through this for multi-experiment invocations:
    each experiment becomes one batch task, so ``repro all --workers 4``
    regenerates independent artifacts concurrently while a failing
    experiment is isolated in ``BatchResult.failures`` instead of
    aborting the rest.

    Args:
        experiment_ids: registry ids, in the order results should come
            back.
        quick: trade statistical confidence for speed.
        workers: worker processes (1 = serial, bit-exact with
            sequential :func:`run_experiment` calls).
        progress: per-experiment progress callback.

    Returns:
        A :class:`~repro.runtime.batch.BatchResult` whose outcome
        values are :class:`ExperimentResult` records, in input order.
    """
    _load_all()
    ids = list(experiment_ids)
    unknown = [e for e in ids if e not in _REGISTRY]
    if unknown:
        raise ConfigurationError(
            f"unknown experiment(s): {', '.join(unknown)}; available: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    runner = BatchRunner(workers=workers, progress=progress)
    return runner.run(_run_for_batch, [(eid, quick) for eid in ids])


def _load_all() -> None:
    """Import all experiment modules so their registrations run."""
    from repro.experiments import (  # noqa: F401
        ablations,
        amplitude,
        corners,
        extensions,
        fig4_power,
        fig5_vs_rate,
        fig6_vs_fin,
        fig8_fom,
        scenarios,
        table1,
    )
