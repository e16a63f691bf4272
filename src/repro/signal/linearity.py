"""Static linearity: INL and DNL by code density.

Table I quotes DNL = +-1.2 LSB and INL = -1.5/+1 LSB.  Both standard
bench methods are implemented:

- **Ramp (uniform) histogram**: a slow over-ranged linear ramp makes
  every code equally likely; bin-count deviation from the mean is DNL,
  its running sum is INL.
- **Sine histogram**: a full-scale-plus sine has the arcsine amplitude
  density; transition levels are recovered with the arccos transform of
  the cumulative histogram (IEEE 1241), removing the pdf shape.

Both return a :class:`LinearityResult` with end bins excluded (their
counts depend on overdrive, not linearity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.profiling import record


@dataclass(frozen=True)
class LinearityResult:
    """INL/DNL measurement outcome.

    Attributes:
        dnl: per-code DNL [LSB]; length n_codes-2 (end bins dropped);
            entry k refers to code k+1.
        inl: per-transition INL [LSB], endpoint-fit; same indexing.
        dnl_min / dnl_max: worst-case DNL [LSB].
        inl_min / inl_max: worst-case INL [LSB].
        missing_codes: codes (excluding ends) with zero hits.
        monotonic: True when the measured transfer never reverses.
    """

    dnl: np.ndarray
    inl: np.ndarray
    dnl_min: float
    dnl_max: float
    inl_min: float
    inl_max: float
    missing_codes: tuple[int, ...]
    monotonic: bool

    def summary(self) -> str:
        """One-line textual summary (reports, benches)."""
        return (
            f"DNL [{self.dnl_min:+.2f}, {self.dnl_max:+.2f}] LSB | "
            f"INL [{self.inl_min:+.2f}, {self.inl_max:+.2f}] LSB | "
            f"missing {len(self.missing_codes)} | "
            f"{'monotonic' if self.monotonic else 'NON-MONOTONIC'}"
        )


def _assemble(dnl: np.ndarray, counts: np.ndarray, n_codes: int) -> LinearityResult:
    inl = np.cumsum(dnl)
    # Endpoint fit: force INL to zero at both ends of the used range.
    if inl.size > 1:
        trend = np.linspace(0.0, inl[-1], inl.size)
        inl = inl - trend
    missing = tuple(
        int(code)
        for code in np.arange(1, n_codes - 1)[counts[1:-1] == 0]
    )
    # A histogram test flags non-monotonicity indirectly: a code that
    # never occurs (DNL = -1) marks a transfer reversal or a dead zone.
    monotonic = not missing and bool(np.all(dnl > -1.0 + 1e-9))
    return LinearityResult(
        dnl=dnl,
        inl=inl,
        dnl_min=float(dnl.min()),
        dnl_max=float(dnl.max()),
        inl_min=float(inl.min()),
        inl_max=float(inl.max()),
        missing_codes=missing,
        monotonic=monotonic,
    )


def _linearity_from_counts(
    counts: np.ndarray, n_codes: int, expected: np.ndarray
) -> LinearityResult:
    """DNL/INL from one die's code-density histogram."""
    interior = slice(1, n_codes - 1)
    exp_interior = expected[interior]
    if np.any(exp_interior <= 0):
        raise AnalysisError("expected density must be positive off the ends")
    normalized = counts[interior] / exp_interior
    scale = normalized.mean()
    if scale <= 0:
        raise AnalysisError("capture does not cover the code range")
    dnl = normalized / scale - 1.0
    return _assemble(dnl, counts, n_codes)


def histogram_linearity(
    codes: np.ndarray, n_codes: int, expected_density: np.ndarray
) -> LinearityResult | list[LinearityResult]:
    """Generic code-density linearity against an expected density.

    Args:
        codes: captured output codes — one record, or a
            (dies, n_samples) block measured row by row.
        n_codes: number of possible codes (2^R).
        expected_density: relative expected hit probability per code
            (length n_codes); only its shape matters.

    Returns:
        The linearity result (end bins excluded); a list with one
        result per row for a 2-D block.
    """
    data = np.asarray(codes)
    if data.ndim not in (1, 2):
        raise AnalysisError("codes must be 1-D or (dies, n_samples)")
    if data.shape[-1] < 16 * n_codes:
        raise AnalysisError(
            f"need >= {16 * n_codes} samples for a {n_codes}-code "
            f"histogram, got {data.shape[-1]}"
        )
    expected = np.asarray(expected_density, dtype=float)
    if expected.shape != (n_codes,):
        raise AnalysisError("expected_density must have one entry per code")
    if data.min() < 0 or data.max() >= n_codes:
        raise AnalysisError(
            f"codes must lie in [0, {n_codes}), got "
            f"[{data.min()}, {data.max()}]"
        )
    if data.ndim == 2:
        return [histogram_linearity(row, n_codes, expected) for row in data]
    with record("analyze", "linearity"):
        counts = np.bincount(data.astype(int), minlength=n_codes).astype(float)
        return _linearity_from_counts(counts, n_codes, expected)


def ramp_linearity(
    codes: np.ndarray, n_codes: int
) -> LinearityResult | list[LinearityResult]:
    """INL/DNL from a slow over-ranged linear ramp capture.

    Accepts one record or a (dies, n_samples) block; a block returns
    one result per row, each the 1-D measurement of that row.
    """
    return histogram_linearity(codes, n_codes, np.ones(n_codes))


def sine_linearity(
    codes: np.ndarray,
    n_codes: int,
    amplitude_codes: float | None = None,
    offset_codes: float | None = None,
) -> LinearityResult:
    """INL/DNL from a full-scale-plus sine capture (IEEE 1241).

    Transition levels are estimated as
    ``T_k = C - A*cos(pi * CH_k)`` with CH the cumulative hit fraction;
    DNL falls out as the normalized transition spacing.

    Args:
        codes: captured output codes.
        n_codes: number of possible codes.
        amplitude_codes: sine amplitude in code units; estimated from
            the clip fractions when omitted.
        offset_codes: sine offset in code units; mid-scale when omitted.
    """
    data = np.asarray(codes)
    if data.size < 16 * n_codes:
        raise AnalysisError(
            f"need >= {16 * n_codes} samples for a {n_codes}-code histogram"
        )
    counts = np.bincount(data.astype(int), minlength=n_codes).astype(float)
    total = counts.sum()
    cumulative = np.cumsum(counts) / total  # CH_k = P(code <= k)
    # Transition level between code k and k+1 from the arcsine CDF.
    ch = np.clip(cumulative[:-1], 1e-9, 1.0 - 1e-9)
    transitions = -np.cos(np.pi * ch)  # in units of the sine amplitude
    if offset_codes is None:
        offset_codes = (n_codes - 1) / 2.0
    if amplitude_codes is None:
        amplitude_codes = n_codes / 2.0 * 1.02
    levels = offset_codes + amplitude_codes * transitions
    spacing = np.diff(levels)  # width of each interior code [codes]
    if spacing.size != n_codes - 2:
        raise AnalysisError("internal: transition bookkeeping is off")
    mean_width = spacing.mean()
    if mean_width <= 0:
        raise AnalysisError("degenerate histogram: zero mean code width")
    dnl = spacing / mean_width - 1.0
    return _assemble(dnl, counts, n_codes)
