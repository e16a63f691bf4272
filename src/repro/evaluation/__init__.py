"""Measurement harness: testbenches, figures of merit, survey.

This subpackage is the reproduction of the paper's *measurement setup*
(section 4): dynamic testing with filtered RF sources, static code-
density testing, power measurement, the area-aware figure of merit of
eq. (2), and the 15-converter survey behind Fig. 8.
"""

from repro.evaluation.fom import paper_figure_of_merit, walden_figure_of_merit
from repro.evaluation.noise_budget import NoiseBudget, compute_noise_budget
from repro.evaluation.reporting import format_series, format_table
from repro.evaluation.survey import SurveyEntry, survey_entries, this_design_entry
from repro.evaluation.testbench import (
    DynamicTestbench,
    PowerTestbench,
    StaticTestbench,
)

__all__ = [
    "DynamicTestbench",
    "NoiseBudget",
    "compute_noise_budget",
    "PowerTestbench",
    "StaticTestbench",
    "SurveyEntry",
    "format_series",
    "format_table",
    "paper_figure_of_merit",
    "survey_entries",
    "this_design_entry",
    "walden_figure_of_merit",
]
