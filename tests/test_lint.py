"""Tests for the ``repro lint`` static invariant checker.

The load-bearing contracts:

* **Per-checker fixtures** — each rule family fires on a minimal
  violating tree and stays silent on the sanctioned equivalent, so a
  rule regression is caught by name.
* **Repo self-check** — the real repository lints clean; the gate in
  CI is this same call.
* **Registry consistency** — the static fingerprint registries in
  ``core/config.py`` partition the live ``AdcConfig`` fields exactly.
"""

import dataclasses
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    CHECKERS,
    LintUsageError,
    Project,
    run_lint,
)
from repro.analysis import fingerprint as fingerprint_checker
from repro.analysis import nondeterminism as nondeterminism_checker
from repro.analysis import purity as purity_checker
from repro.analysis import rng as rng_checker
from repro.analysis import schema_registry as schema_checker
from repro.cli import main
from repro.core.config import (
    FINGERPRINT_EXCLUDED,
    FINGERPRINT_FIELDS,
    AdcConfig,
)
from repro.runtime.campaign import CampaignSpec
from repro.schemas import LINT_REPORT_SCHEMA

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_project(tmp_path: Path, files: dict) -> Project:
    """Write a fixture tree and parse it."""
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return Project.load(tmp_path, ("src/repro", "benchmarks"))


def rules(findings) -> list:
    return [finding.rule for finding in findings]


# --- checker 1: RNG stream discipline ------------------------------------


def test_rng001_flags_construction_outside_allowlist(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/repro/core/foo.py": """
                import numpy as np

                def f(seed):
                    return np.random.default_rng(seed)
                """,
        },
    )
    findings = list(rng_checker.check(project))
    assert rules(findings) == ["RNG001"]
    assert findings[0].scope == "f"
    assert findings[0].path == "src/repro/core/foo.py"


def test_rng001_sees_through_import_aliases(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/repro/core/foo.py": """
                from numpy.random import default_rng as mk

                def f(seed):
                    return mk(seed)
                """,
        },
    )
    assert rules(rng_checker.check(project)) == ["RNG001"]


def test_rng001_allows_the_stream_roots(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/repro/streams.py": """
                import numpy as np

                def noise_generator(seed):
                    return np.random.default_rng(seed)
                """,
        },
    )
    assert rules(rng_checker.check(project)) == []


def test_rng002_bans_global_state_draws_everywhere(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/repro/streams.py": """
                import numpy as np

                def f():
                    return np.random.normal(0.0, 1.0, 8)
                """,
        },
    )
    assert rules(rng_checker.check(project)) == ["RNG002"]


def test_rng_parameter_draws_are_legal(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/repro/core/foo.py": """
                def f(rng):
                    return rng.normal(0.0, 1.0, 8)
                """,
        },
    )
    assert rules(rng_checker.check(project)) == []


# --- checker 2: nondeterminism sources -----------------------------------


def test_det001_bans_random_import_in_engine_layer(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/repro/core/foo.py": "import random\n",
            "src/repro/runtime/foo.py": "import random\n",
        },
    )
    findings = list(nondeterminism_checker.check(project))
    assert rules(findings) == ["DET001"]
    assert findings[0].path == "src/repro/core/foo.py"


def test_det002_bans_wall_clocks_in_engine_layer(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/repro/devices/foo.py": """
                import time

                def f():
                    return time.time()
                """,
        },
    )
    assert rules(nondeterminism_checker.check(project)) == ["DET002"]


def test_det003_bans_environment_reads_in_engine_layer(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/repro/signal/foo.py": """
                import os

                def f():
                    return os.environ.get("REPRO_MODE", os.getenv("X"))
                """,
        },
    )
    assert rules(nondeterminism_checker.check(project)) == [
        "DET003",
        "DET003",
    ]


def test_det004_restricts_perf_counter_to_timing_sites(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/repro/core/foo.py": """
                from time import perf_counter

                def f():
                    return perf_counter()
                """,
            "src/repro/profiling.py": """
                from time import perf_counter

                def f():
                    return perf_counter()
                """,
        },
    )
    findings = list(nondeterminism_checker.check(project))
    assert rules(findings) == ["DET004"]
    assert findings[0].path == "src/repro/core/foo.py"


# --- checker 3: fingerprint coverage -------------------------------------

CONFIG_HEADER = textwrap.dedent(
    """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class AdcConfig:
        a: int = 1
        b: int = 2
        c: int = 3
    """
)


def config_fixture(registries: str) -> str:
    return CONFIG_HEADER + textwrap.dedent(registries)


def test_fpr002_flags_undecided_field(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/repro/core/config.py": config_fixture(
                """
                FINGERPRINT_FIELDS = ("a",)
                FINGERPRINT_EXCLUDED = {"b": "pure heuristic"}
                """
            ),
        },
    )
    findings = list(fingerprint_checker.check(project))
    assert rules(findings) == ["FPR002"]
    assert "'c'" in findings[0].message


def test_fingerprint_registries_partition_cleanly(tmp_path):
    registries = {
        "one-exclusion": """
            FINGERPRINT_FIELDS = ("a", "c")
            FINGERPRINT_EXCLUDED = {"b": "pure heuristic"}
            """,
        # The live config's form: every field fingerprinted.
        "empty-exclusions": """
            FINGERPRINT_FIELDS = ("a", "b", "c")
            FINGERPRINT_EXCLUDED: dict[str, str] = {}
            """,
    }
    for name, registry in registries.items():
        project = make_project(
            tmp_path / name, {"src/repro/core/config.py": config_fixture(registry)}
        )
        assert rules(fingerprint_checker.check(project)) == [], name


def test_fpr001_flags_missing_registries(tmp_path):
    project = make_project(tmp_path, {"src/repro/core/config.py": CONFIG_HEADER})
    findings = list(fingerprint_checker.check(project))
    assert rules(findings)[:2] == ["FPR001", "FPR001"]


def test_fpr003_fpr004_fpr005_registry_hygiene(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/repro/core/config.py": config_fixture(
                """
                FINGERPRINT_FIELDS = ("a", "b", "ghost")
                FINGERPRINT_EXCLUDED = {"b": "reason", "c": ""}
                """
            ),
        },
    )
    found = rules(fingerprint_checker.check(project))
    assert found.count("FPR003") == 1  # ghost
    assert found.count("FPR004") == 1  # b in both
    assert found.count("FPR005") == 1  # c unjustified


def test_fpr006_fpr007_fingerprint_method_discipline(tmp_path):
    campaign = """
        import dataclasses

        class CampaignSpec:
            def fingerprint(self, config):
                d = dataclasses.asdict(config)
                d.pop("b", None)
                return d
        """
    project = make_project(
        tmp_path,
        {
            "src/repro/core/config.py": config_fixture(
                """
                FINGERPRINT_FIELDS = ("a", "b", "c")
                FINGERPRINT_EXCLUDED = {}
                """
            ),
            "src/repro/runtime/campaign.py": campaign,
        },
    )
    found = rules(fingerprint_checker.check(project))
    assert "FPR006" in found and "FPR007" in found


# --- checker 4: schema single source -------------------------------------


def test_sch001_flags_literals_outside_registry(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/repro/runtime/foo.py": """
                '''Emits repro.foo-report/v1 documents.'''

                SCHEMA = "repro.foo-report/v1"
                """,
        },
    )
    findings = list(schema_checker.check(project))
    # The docstring mention is not flagged; the binding is.
    assert rules(findings) == ["SCH001"]


def test_sch002_sch003_registry_hygiene(tmp_path):
    project = make_project(
        tmp_path,
        {
            "src/repro/schemas.py": """
                A_SCHEMA = "repro.thing/v1"
                B_SCHEMA = "repro.thing/v2"

                def hidden():
                    return "repro.other/v1"
                """,
        },
    )
    found = rules(schema_checker.check(project))
    assert found == ["SCH002", "SCH003"]


# --- checker 5: die purity -----------------------------------------------

MDAC_FIXTURE = """
    class Mdac:
        def __init__(self):
            self.gain = 2.0
            self._build_caps()

        def _build_caps(self):
            self.c1 = 1.0

        def transfer(self, v):
            self.last_input = v
            object.__setattr__(self, "_memo", v)
            return v * self.gain
    """


def test_purity_rules_fire_outside_constructors_only(tmp_path):
    project = make_project(tmp_path, {"src/repro/core/mdac.py": MDAC_FIXTURE})
    findings = list(purity_checker.check(project))
    assert sorted(rules(findings)) == ["PUR001", "PUR002"]
    assert all(f.scope == "Mdac.transfer" for f in findings)


def test_purity_ignores_uncached_classes(tmp_path):
    project = make_project(
        tmp_path,
        {"src/repro/core/mdac.py": MDAC_FIXTURE.replace("Mdac", "Helper")},
    )
    assert rules(purity_checker.check(project)) == []


def test_purity_covers_the_die_template(tmp_path):
    """Dies of one PVT point share their template, so it is frozen too."""
    project = make_project(
        tmp_path,
        {
            "src/repro/core/adc.py": """
                class DieTemplate:
                    def __init__(self, config):
                        self.config = config
                        self._build_stages()

                    def _build_stages(self):
                        self.stages = ()

                    def retune(self, rate):
                        self.conversion_rate = rate
                """,
        },
    )
    findings = list(purity_checker.check(project))
    assert rules(findings) == ["PUR001"]
    assert findings[0].scope == "DieTemplate.retune"


# --- the runner and the repo self-check ----------------------------------


def test_checker_registry_covers_all_five_invariants():
    assert sorted(checker.invariant for checker in CHECKERS) == [
        "deterministic-replay",
        "die-purity",
        "fingerprint-coverage",
        "rng-stream-discipline",
        "schema-single-source",
    ]


def test_repo_lints_clean():
    report = run_lint(REPO_ROOT)
    assert report.clean, report.render()


def test_run_lint_rejects_unparseable_tree(tmp_path):
    broken = tmp_path / "src" / "repro" / "foo.py"
    broken.parent.mkdir(parents=True)
    broken.write_text("def broken(:\n")
    with pytest.raises(LintUsageError):
        run_lint(tmp_path)


def test_lint_report_document(tmp_path):
    make_project(
        tmp_path,
        {
            "src/repro/core/foo.py": """
                import numpy as np

                def f(seed):
                    return np.random.default_rng(seed)
                """,
        },
    )
    report = run_lint(tmp_path)
    doc = report.to_dict()
    assert doc["schema"] == LINT_REPORT_SCHEMA
    assert doc["clean"] is False
    assert [f["rule"] for f in doc["findings"]] == ["RNG001"]
    assert json.loads(json.dumps(report.to_dict())) == doc


# --- the CLI -------------------------------------------------------------


def test_cli_lint_clean_repo_exit_zero(capsys):
    assert main(["lint", "--root", str(REPO_ROOT)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_lint_violations_exit_one(tmp_path, capsys):
    make_project(
        tmp_path,
        {"src/repro/core/foo.py": "import random\n"},
    )
    report_path = tmp_path / "report.json"
    code = main(
        [
            "lint",
            "--root",
            str(tmp_path),
            "--json",
            str(report_path),
        ]
    )
    assert code == 1
    assert "DET001" in capsys.readouterr().out
    doc = json.loads(report_path.read_text())
    assert doc["schema"] == LINT_REPORT_SCHEMA
    assert doc["clean"] is False


def test_cli_lint_usage_error_exit_two(tmp_path, capsys):
    code = main(
        [
            "lint",
            "--root",
            str(tmp_path / "missing"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


# --- live registry consistency -------------------------------------------


def test_fingerprint_registries_match_live_dataclass():
    fields = {field.name for field in dataclasses.fields(AdcConfig)}
    included = set(FINGERPRINT_FIELDS)
    excluded = set(FINGERPRINT_EXCLUDED)
    assert included | excluded == fields
    assert included & excluded == set()
    assert all(reason.strip() for reason in FINGERPRINT_EXCLUDED.values())


def test_fingerprint_drops_exactly_the_excluded_fields():
    spec = CampaignSpec(n_dies=1, temperatures_c=(27.0,))
    document = spec.fingerprint(AdcConfig.paper_default())
    assert set(document["config"]) == set(FINGERPRINT_FIELDS)
