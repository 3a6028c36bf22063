"""In-process smoke tests for the ``repro`` console script.

Invokes :func:`repro.experiments.api.cli.main` directly (no subprocess) for
``repro list`` and ``repro run <id> --fast`` on the two cheapest
experiments, asserting exit code 0 and that a schema-conformant artifact
file is written.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.api import SCHEMA_VERSION, experiment_ids
from repro.experiments.api.cli import main

# the two cheapest artefacts, shrunk further via typed --set overrides
CHEAP_RUNS = {
    "fig1-regression": ["--set", "panels=local_reparameterization",
                        "--set", "n_per_cluster=6", "--set", "num_epochs=3",
                        "--set", "num_predictions=2"],
    "table2-gnn": ["--set", "num_nodes=60", "--set", "train_per_class=5",
                   "--set", "val_per_class=5", "--set", "num_runs=1",
                   "--set", "ml_iterations=5", "--set", "mf_iterations=5",
                   "--set", "num_predictions=2"],
}


def test_list_prints_every_registered_id(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for experiment_id in experiment_ids():
        assert experiment_id in out
    for number in ("E1", "E2", "E3", "E4", "E5", "E6"):
        assert number in out


@pytest.mark.parametrize("experiment_id", sorted(CHEAP_RUNS))
def test_run_fast_writes_artifact(experiment_id, tmp_path, capsys):
    argv = ["run", experiment_id, "--fast", "--seed", "5",
            "--output-dir", str(tmp_path)] + CHEAP_RUNS[experiment_id]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert experiment_id in out

    artifact = tmp_path / f"{experiment_id}.json"
    assert artifact.exists()
    payload = json.loads(artifact.read_text())
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["experiment_id"] == experiment_id
    assert payload["config"]["seed"] == 5
    assert payload["config"]["fast"] is True
    assert payload["metrics"]
    assert payload["wall_clock_seconds"] > 0.0


def test_set_output_dir_override_respected(tmp_path):
    target = tmp_path / "viaset"
    argv = ["run", "fig1-regression", "--fast",
            "--set", f"output_dir={target}"] + CHEAP_RUNS["fig1-regression"]
    assert main(argv) == 0
    assert (target / "fig1-regression.json").exists()


def test_run_no_artifact_flag(tmp_path):
    argv = ["run", "fig1-regression", "--fast", "--no-artifact",
            "--output-dir", str(tmp_path)] + CHEAP_RUNS["fig1-regression"]
    assert main(argv) == 0
    assert not (tmp_path / "fig1-regression.json").exists()


def test_unknown_experiment_id_exits_2(capsys):
    assert main(["run", "fig9-unknown"]) == 2
    assert "fig9-unknown" in capsys.readouterr().err


def test_bad_override_exits_2(capsys):
    assert main(["run", "fig1-regression", "--fast", "--set", "not_a_field=1"]) == 2
    assert "not_a_field" in capsys.readouterr().err


class TestRunAllRobustness:
    """``repro run-all`` finishes the sweep, summarizes and exits 1 on failure."""

    @staticmethod
    def _spec(experiment_id, runner, number="E9"):
        from repro.experiments.api.base import BaseExperimentConfig
        from repro.experiments.api.registry import ExperimentSpec

        return ExperimentSpec(experiment_id=experiment_id,
                              config_cls=BaseExperimentConfig, runner=runner,
                              number=number, artefact="Test", title="test spec")

    def _patch(self, monkeypatch, specs):
        from repro.experiments.api import cli

        monkeypatch.setattr(cli, "all_experiments", lambda: specs)

    def test_continues_past_failures_and_exits_1(self, monkeypatch, capsys):
        ran = []

        def ok_runner(config):
            ran.append("ok")
            return {"metric": 1.0}, None

        def boom_runner(config):
            ran.append("boom")
            raise RuntimeError("kaboom")

        self._patch(monkeypatch, [self._spec("exp-boom", boom_runner, "E8"),
                                  self._spec("exp-ok", ok_runner, "E9")])
        assert main(["run-all", "--no-artifact"]) == 1
        captured = capsys.readouterr()
        # the failure did not abort the sweep: the later experiment still ran
        assert ran == ["boom", "ok"]
        assert "kaboom" in captured.err
        assert "run-all: 1/2 experiments passed" in captured.out
        assert "FAIL  exp-boom" in captured.out
        assert "PASS  exp-ok" in captured.out

    def test_non_value_errors_are_caught(self, monkeypatch, capsys):
        def type_error_runner(config):
            raise TypeError("not a ValueError")

        self._patch(monkeypatch, [self._spec("exp-typeerror", type_error_runner)])
        assert main(["run-all", "--no-artifact"]) == 1
        assert "TypeError" in capsys.readouterr().err

    def test_set_overrides_reach_every_experiment(self, monkeypatch, capsys):
        seen = []

        def recording_runner(config):
            seen.append(config.seed)
            return {"m": 1.0}, None

        self._patch(monkeypatch, [self._spec("exp-a", recording_runner, "E8"),
                                  self._spec("exp-b", recording_runner, "E9")])
        assert main(["run-all", "--no-artifact", "--set", "seed=7"]) == 0
        assert seen == [7, 7]

    def test_malformed_set_override_exits_2(self, monkeypatch, capsys):
        self._patch(monkeypatch, [self._spec("exp-a", lambda c: ({"m": 1.0}, None))])
        assert main(["run-all", "--no-artifact", "--set", "missing-equals"]) == 2
        assert "missing-equals" in capsys.readouterr().err

    def test_unknown_key_fails_only_that_experiment(self, monkeypatch, capsys):
        # per-experiment config errors are sweep failures, not argument errors
        self._patch(monkeypatch, [self._spec("exp-a", lambda c: ({"m": 1.0}, None))])
        assert main(["run-all", "--no-artifact", "--set", "not_a_field=1"]) == 1
        captured = capsys.readouterr()
        assert "not_a_field" in captured.err
        assert "run-all: 0/1 experiments passed" in captured.out

    def test_all_passing_exits_0_with_summary(self, monkeypatch, capsys):
        self._patch(monkeypatch, [self._spec("exp-a", lambda c: ({"m": 1.0}, None), "E8"),
                                  self._spec("exp-b", lambda c: ({"m": 2.0}, None), "E9")])
        assert main(["run-all", "--no-artifact"]) == 0
        out = capsys.readouterr().out
        assert "run-all: 2/2 experiments passed" in out
        assert out.count("PASS") == 2 and "FAIL" not in out


class TestRunFailureDiagnostics:
    """A failing runner exits 1 with a one-line diagnostic, not a traceback."""

    @staticmethod
    def _patch_boom(monkeypatch):
        from repro.experiments.api import cli
        from repro.experiments.api.base import BaseExperimentConfig
        from repro.experiments.api.registry import ExperimentSpec

        def boom_runner(config):
            raise RuntimeError("kaboom mid-run")

        spec = ExperimentSpec(experiment_id="exp-boom",
                              config_cls=BaseExperimentConfig, runner=boom_runner,
                              number="E9", artefact="Test", title="boom")
        monkeypatch.setattr(cli, "get_experiment", lambda _id: spec)

    def test_runner_failure_exits_1_with_one_line(self, monkeypatch, capsys):
        self._patch_boom(monkeypatch)
        assert main(["run", "exp-boom", "--no-artifact"]) == 1
        err = capsys.readouterr().err
        assert "repro: exp-boom: RuntimeError: kaboom mid-run" in err
        assert "Traceback" not in err

    def test_verbose_keeps_the_traceback(self, monkeypatch, capsys):
        self._patch_boom(monkeypatch)
        assert main(["run", "exp-boom", "--no-artifact", "--verbose"]) == 1
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "repro: exp-boom: RuntimeError: kaboom mid-run" in err

    def test_bad_arguments_still_exit_2(self, monkeypatch, capsys):
        # config-building errors are usage errors (2), not runner failures (1)
        self._patch_boom(monkeypatch)
        assert main(["run", "exp-boom", "--set", "nofield=1"]) == 2


class TestRunAllEngineFlags:
    """run-all rides the execution engine: journal + resume, flag validation."""

    def _specs(self, recorder):
        from repro.experiments.api.base import BaseExperimentConfig
        from repro.experiments.api.registry import ExperimentSpec

        def make(experiment_id, number):
            def runner(config):
                recorder.append(experiment_id)
                return {"m": 1.0}, None
            return ExperimentSpec(experiment_id=experiment_id,
                                  config_cls=BaseExperimentConfig, runner=runner,
                                  number=number, artefact="Test", title="t")
        return [make("exp-a", "E8"), make("exp-b", "E9")]

    def _patch(self, monkeypatch, specs):
        from repro.experiments.api import cli

        monkeypatch.setattr(cli, "all_experiments", lambda: specs)

    def test_resume_skips_journaled_experiments(self, monkeypatch, tmp_path,
                                                capsys):
        ran = []
        self._patch(monkeypatch, self._specs(ran))
        out_dir = str(tmp_path)
        assert main(["run-all", "--output-dir", out_dir]) == 0
        assert ran == ["exp-a", "exp-b"]
        assert (tmp_path / ".run-all" / "journal" / "exp-a.json").exists()
        capsys.readouterr()
        assert main(["run-all", "--output-dir", out_dir, "--resume"]) == 0
        assert ran == ["exp-a", "exp-b"]  # nothing re-ran
        out = capsys.readouterr().out
        assert "run-all: 2/2 experiments passed (2 journaled, skipped)" in out
        assert out.count("SKIP") == 2

    def test_resume_without_artifacts_exits_2(self, monkeypatch, capsys):
        self._patch(monkeypatch, self._specs([]))
        assert main(["run-all", "--no-artifact", "--resume"]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_timeout_without_workers_exits_2(self, monkeypatch, capsys):
        self._patch(monkeypatch, self._specs([]))
        assert main(["run-all", "--no-artifact", "--timeout", "5"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_retries_recover_transient_failures(self, monkeypatch, capsys):
        from repro.experiments.api.base import BaseExperimentConfig
        from repro.experiments.api.registry import ExperimentSpec

        calls = []

        def flaky(config):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return {"m": 1.0}, None

        spec = ExperimentSpec(experiment_id="exp-flaky",
                              config_cls=BaseExperimentConfig, runner=flaky,
                              number="E9", artefact="Test", title="t")
        self._patch(monkeypatch, [spec])
        assert main(["run-all", "--no-artifact", "--retries", "1",
                     "--backoff", "0"]) == 0
        out = capsys.readouterr().out
        assert "run-all: 1/1 experiments passed" in out
        assert "PASS  exp-flaky (attempts=2)" in out


def test_list_empty_registry_prints_friendly_message(monkeypatch, capsys):
    from repro.experiments.api import cli

    monkeypatch.setattr(cli, "all_experiments", lambda: [])
    assert main(["list"]) == 0
    assert "no experiments registered" in capsys.readouterr().out


class TestLintCommand:
    """``repro lint``: exit 0 clean / 1 findings / 2 usage error."""

    def test_clean_file_exits_0(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("import numpy as np\ngen = np.random.default_rng(0)\n")
        assert main(["lint", str(clean)]) == 0
        out = capsys.readouterr().out
        assert "0 errors, 0 warnings" in out

    def test_findings_exit_1_and_are_printed(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import numpy as np\ngen = np.random.default_rng()\n")
        assert main(["lint", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out and "dirty.py" in out

    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "no-such-dir")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_shipped_src_tree_is_clean(self, capsys):
        import repro

        src_repro = Path(repro.__file__).parent
        assert main(["lint", str(src_repro)]) == 0


class TestCheckModelCommand:
    """``repro check-model``: static model/guide validation through the CLI."""

    def test_unknown_id_exits_2(self, capsys):
        assert main(["check-model", "fig9-unknown"]) == 2
        assert "fig9-unknown" in capsys.readouterr().err

    def test_no_ids_without_all_exits_2(self, capsys):
        assert main(["check-model"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_fig1_fast_exits_0(self, capsys):
        assert main(["check-model", "fig1-regression", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "fig1-regression/mean-field-vi: ok" in out

    def test_all_fast_exits_0(self, capsys):
        assert main(["check-model", "--all", "--fast"]) == 0
        out = capsys.readouterr().out
        for experiment_id in experiment_ids():
            assert experiment_id in out
        assert "0 with findings" in out

    def test_defective_target_exits_1(self, monkeypatch, capsys):
        import numpy as np

        import repro.ppl as ppl
        import repro.ppl.distributions as dist
        from repro.analysis import ValidationTarget
        from repro.experiments.api import cli as api_cli
        from repro.experiments.api.base import BaseExperimentConfig
        from repro.experiments.api.registry import ExperimentSpec

        def model():
            ppl.sample("z", dist.Normal(np.zeros(5), np.ones(5)).to_event(1))

        def guide():
            ppl.sample("z", dist.Delta(ppl.param("loc", np.zeros(6)), event_dim=1))

        spec = ExperimentSpec(
            experiment_id="exp-defective", config_cls=BaseExperimentConfig,
            runner=lambda c: ({}, None), number="E9", artefact="Test", title="t",
            validation_targets=lambda config: [ValidationTarget("pair", model, guide)])
        monkeypatch.setattr("repro.experiments.api.registry.get_experiment",
                            lambda experiment_id: spec)
        assert main(["check-model", "exp-defective"]) == 1
        out = capsys.readouterr().out
        assert "shape-mismatch" in out and "1 with errors" in out
