"""PVT characterization experiments (extension).

- ``ext-corners`` — the five-corner sign-off table the IP-block claim
  implies: the converter must hold datasheet-class performance at every
  process corner and temperature extreme, because an SoC integrator
  cannot bin converters.  Runs on the campaign engine
  (:mod:`repro.runtime.campaign`): the grid's cells run in chunks, each
  die converting its own record, instead of the legacy serial per-cell
  testbench loop.
- ``scenario-pvt-signoff`` — the full IP-vendor sign-off: the corner x
  temperature grid crossed with a die population, rolled up into the
  min/typ/max datasheet an integrator would be handed.
- ``ext-datasheet`` — the min/typ/max electrical characteristics over a
  die batch at the nominal point (see :mod:`repro.evaluation.datasheet`).
"""

from __future__ import annotations

from repro.core.config import AdcConfig
from repro.evaluation.datasheet import characterize
from repro.experiments.registry import ClaimCheck, ExperimentResult, register
from repro.runtime.campaign import CampaignSpec, run_campaign
from repro.technology.corners import Corner


@register("ext-corners")
def run_corners(quick: bool = False) -> ExperimentResult:
    """Five corners x hot/cold at 110 MS/s (campaign engine)."""
    spec = CampaignSpec(
        corners=(Corner.TT, Corner.SS, Corner.FF) if quick else tuple(Corner),
        temperatures_c=(27.0, 125.0) if quick else (-40.0, 27.0, 125.0),
        n_dies=1,
        die_seeds=(1,),
        n_samples=2048 if quick else 4096,
    )
    report = run_campaign(spec, engine="vectorized")
    report.batch.raise_first_failure()

    rows = tuple(
        (
            cell.corner.upper(),
            f"{cell.temperature_c:.0f}",
            f"{cell.snr_db:.1f}",
            f"{cell.sndr_db:.1f}",
            f"{cell.enob_bits:.2f}",
        )
        for cell in report.cells
    )
    worst = report.worst_cell()
    claims = (
        ClaimCheck(
            claim=(
                "the converter stays within ~1 ENOB of nominal at every "
                "process corner and temperature extreme (the IP-block "
                "robustness eq. (1) + bandgap biasing is designed for)"
            ),
            passed=worst.sndr_db >= 58.0,
            detail=(
                f"worst SNDR {worst.sndr_db:.1f} dB at "
                f"{worst.corner.upper()}/{worst.temperature_c:.0f}C"
            ),
        ),
    )
    return ExperimentResult(
        experiment_id="ext-corners",
        title="PVT corner characterization (110 MS/s, f_in = 10 MHz)",
        headers=("corner", "T [C]", "SNR [dB]", "SNDR [dB]", "ENOB"),
        rows=rows,
        claims=claims,
        notes=(
            "Extension: the paper reports nominal conditions only.",
            "Vectorized campaign engine: the corner x temperature grid "
            "runs in chunks of cells, one die conversion per cell, "
            "bit-exact per cell with the serial DynamicTestbench loop.",
        ),
    )


@register("scenario-pvt-signoff")
def run_pvt_signoff(quick: bool = False) -> ExperimentResult:
    """Full PVT x die-population sign-off on the campaign engine."""
    spec = CampaignSpec(
        corners=(Corner.TT, Corner.SS, Corner.FF) if quick else tuple(Corner),
        temperatures_c=(27.0, 125.0) if quick else (-40.0, 27.0, 125.0),
        n_dies=2 if quick else 4,
        seed=2026,
        n_samples=1024 if quick else 2048,
    )
    report = run_campaign(spec, engine="vectorized")
    report.batch.raise_first_failure()

    signoff = report.signoff()
    rows = tuple(line.cells() for line in signoff.lines)
    by_name = {line.parameter: line for line in signoff.lines}
    sndr = by_name["SNDR (f_in=10MHz)"]
    enob = by_name["ENOB"]
    worst = report.worst_cell()
    claims = (
        ClaimCheck(
            claim=(
                "every (corner, temperature, die) cell of the sign-off "
                "grid delivers datasheet-class SNDR — an SoC integrator "
                "cannot bin converters"
            ),
            passed=sndr.minimum >= 58.0,
            detail=(
                f"SNDR min/typ/max = {sndr.minimum:.1f}/{sndr.typical:.1f}/"
                f"{sndr.maximum:.1f} dB over {len(report.cells)} cells; "
                f"worst cell {worst.cell_id}"
            ),
        ),
        ClaimCheck(
            claim=(
                "the grid's typical ENOB stays within a bit of the "
                "paper's nominal 10.4 ENOB"
            ),
            passed=enob.typical >= 9.4,
            detail=(
                f"ENOB min/typ/max = {enob.minimum:.2f}/{enob.typical:.2f}/"
                f"{enob.maximum:.2f} bits"
            ),
        ),
    )
    return ExperimentResult(
        experiment_id="scenario-pvt-signoff",
        title="PVT sign-off campaign (corners x temperatures x dies)",
        headers=("parameter", "min", "typ", "max", "unit"),
        rows=rows,
        claims=claims,
        notes=(
            "Extension: the paper reports one die at nominal "
            "conditions; an IP vendor signs off the full grid.",
            "Resumable: `repro campaign --ledger run.jsonl` checkpoints "
            "completed cells and `--resume` continues an interrupted "
            "run without recomputation.",
        ),
    )


@register("ext-datasheet")
def run_datasheet(quick: bool = False) -> ExperimentResult:
    """Min/typ/max electrical characteristics over a die batch."""
    config = AdcConfig.paper_default()
    datasheet = characterize(
        config,
        n_dies=3 if quick else 6,
        n_samples=2048 if quick else 4096,
        samples_per_code=16,
    )
    rows = tuple(line.cells() for line in datasheet.lines)
    by_name = {line.parameter: line for line in datasheet.lines}
    sndr = by_name["SNDR (f_in=10MHz)"]
    claims = (
        ClaimCheck(
            claim=(
                "every die in the batch meets the 10-ENOB datasheet "
                "class the paper advertises"
            ),
            passed=sndr.minimum >= 62.0,
            detail=(
                f"SNDR min/typ/max = {sndr.minimum:.1f}/"
                f"{sndr.typical:.1f}/{sndr.maximum:.1f} dB over "
                f"{datasheet.n_dies} dies"
            ),
        ),
        ClaimCheck(
            claim="the published die (Table I) sits inside the batch bands",
            passed=sndr.minimum - 1.0 <= 64.2 <= sndr.maximum + 1.0,
            detail=f"paper SNDR 64.2 dB vs band "
            f"[{sndr.minimum:.1f}, {sndr.maximum:.1f}] dB",
        ),
    )
    return ExperimentResult(
        experiment_id="ext-datasheet",
        title="Min/typ/max datasheet characterization",
        headers=("parameter", "min", "typ", "max", "unit"),
        rows=rows,
        claims=claims,
        notes=("Extension: a paper reports one die; an IP vendor ships "
               "limits.",),
    )
