"""Unit tests for the backend-check normalization and the benchmark gates.

The heavyweight paths (perfbench runs, broker variants) are exercised by
the `perfbench-gate` and smoke CI jobs; here we pin the cheap invariants
those jobs rely on: output normalization, the up-front check of
``repro check-backends`` variant names, the per-name comparison of the
state hot-path gate, and the pass/fail rules of ``check_perfbench.py`` on
synthetic runs and trajectory points.
"""

import json
import sys
from pathlib import Path

import pytest

from repro import check_backends
from repro.check_backends import VARIANTS, normalize_output
from repro.cli import _build_parser, main

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS_DIR))

import check_perfbench  # noqa: E402
from check_state_hotpath import compare_means  # noqa: E402


class TestNormalization:
    def test_drops_exactly_the_ci_noise_lines(self):
        raw = "\n".join([
            "query                      : output contains err",
            "injections run             : 12",
            "elapsed seconds            : 1.234",
            "workers   : 2",
            "backend   : distributed",
            "total solutions            : 3",
        ])
        normalized = normalize_output(raw)
        assert "elapsed seconds" not in normalized
        assert "workers" not in normalized
        assert "backend" not in normalized
        assert "injections run             : 12" in normalized
        assert "total solutions            : 3" in normalized

    def test_identical_sweeps_normalize_identically(self):
        a = "injections run : 5\nelapsed seconds : 1.0\n"
        b = "injections run : 5\nelapsed seconds : 9.9\n"
        assert normalize_output(a) == normalize_output(b)


class TestCheckBackendsVariants:
    @pytest.mark.parametrize("backends", ["distributed,bogus", "pool"])
    def test_unknown_variant_exits_before_any_run(self, backends,
                                                  monkeypatch):
        ran = []
        monkeypatch.setattr(check_backends, "_run_variant",
                            lambda variant, *args: ran.append(variant))
        with pytest.raises(SystemExit) as exit_info:
            main(["check-backends", "--backends", backends])
        message = str(exit_info.value)
        assert "unknown check-backends variant" in message
        assert backends.split(",")[-1] in message
        assert f"valid variants: {', '.join(VARIANTS)}" in message
        assert "\n" not in message
        assert ran == []

    def test_scratch_directory_is_removed_after_the_run(self, monkeypatch,
                                                         capsys):
        scratches = []

        def fake_variant(variant, args, scratch, timeout, sweep):
            scratches.append(scratch)
            return "injections     : 2\n"

        monkeypatch.setattr(check_backends, "_run_variant", fake_variant)
        assert main(["check-backends", "--backends", "results"]) == 0
        assert "all backends identical" in capsys.readouterr().out
        assert len(set(scratches)) == 1
        assert not Path(scratches[0]).exists()

    @pytest.mark.parametrize("flag", ["--max-states", "--sample",
                                      "--max-injections"])
    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    def test_a_bad_cap_exits_2_before_any_run(self, flag, value,
                                              monkeypatch, capsys):
        """The caps have the floor ``repro analyze`` gives them, checked
        when the command line is parsed, not inside each sweep."""
        ran = []
        monkeypatch.setattr(check_backends, "_run_variant",
                            lambda variant, *args: ran.append(variant))
        monkeypatch.setattr(check_backends.subprocess, "run",
                            lambda *args, **kwargs: ran.append(args))
        with pytest.raises(SystemExit) as exit_info:
            main(["check-backends", flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err
        assert ran == []

    def test_default_is_the_distributed_variant(self):
        args = _build_parser().parse_args(["check-backends"])
        assert args.backends == "distributed"


class TestCompareMeans:
    def test_compare_means_reports_missing_names(self, capsys):
        failures = compare_means({"a": 1.0, "b": 2.0}, {"a": 1.0}, 1.2)
        assert any("not measured" in failure for failure in failures)
        out = capsys.readouterr().out
        assert "MISSING" in out


WORKLOADS = ("replace-control", "replace-register", "tcas-memory-warehouse",
             "tcas-memory-tcp")
METRICS = {"setup_s": 0.4, "injections_per_s": 30.0, "verdict_ms_p50": 1.0,
           "verdict_ms_p90": 140.0, "peak_rss_mb": 80.0, "decided_frac": 0.7}


def run_output(scale=None, drop=None, **fields):
    """One run's stdout: a progress line, then the JSON result line."""
    values = {name: value * (scale or {}).get(name, 1.0)
              for name, value in METRICS.items() if name != drop}
    result = {"correct": True, "attempted": 360, "failed": 0,
              "metrics": {name: {"value": value, "unit": "u"}
                          for name, value in values.items()}}
    result.update(fields)
    return "check: 360 verdicts\n" + json.dumps(result) + "\n"


class TestPerfbenchGate:
    @pytest.fixture(autouse=True)
    def isolated(self, tmp_path, monkeypatch):
        self.trajectory = tmp_path / "trajectory"
        self.trajectory.mkdir()
        self.runs = tmp_path / "runs"
        self.runs.mkdir()
        monkeypatch.setattr(check_perfbench, "TRAJECTORY_DIR",
                            self.trajectory)
        monkeypatch.setattr(check_perfbench, "head_sha", lambda: "fresh")
        monkeypatch.delenv("GITHUB_ACTIONS", raising=False)
        monkeypatch.chdir(tmp_path)

    def commit_point(self, name, runner="local", scale=None,
                     created="2026-10-01T00:00:00Z", schema_version=2):
        values = {name: value * (scale or {}).get(name, 1.0)
                  for name, value in METRICS.items()}
        point = {"schema_version": schema_version, "sha": name,
                 "created": created, "runner": runner,
                 "perfbench": {workload: dict(values, attempted=360,
                                              failed=0)
                               for workload in WORKLOADS}}
        (self.trajectory / f"BENCH_{name}.json").write_text(json.dumps(point))

    def gate(self, outputs=None, skip=None, parents=None):
        outputs = outputs or {}
        paths = []
        for workload in WORKLOADS:
            if workload == skip:
                continue
            path = self.runs / f"{workload}.out"
            path.write_text(outputs.get(workload, run_output()))
            paths.append(str(path))
        for workload, output in (parents or {}).items():
            path = self.runs / f"{workload}.parent.out"
            path.write_text(output)
            paths.append(str(path))
        return check_perfbench.main(paths)

    def test_within_the_bounds_passes_and_writes_a_schema_2_point(self):
        self.commit_point("base")
        status = self.gate({"replace-register": run_output(
            {"injections_per_s": 0.85, "verdict_ms_p90": 1.15,
             "setup_s": 1.2})})
        assert status == 0
        point = json.loads(Path("BENCH_fresh.json").read_text())
        assert point["schema_version"] == 2
        assert point["runner"] == "local"
        assert point["sha"] == "fresh"
        assert set(point["perfbench"]) == set(WORKLOADS)
        register = point["perfbench"]["replace-register"]
        assert register["injections_per_s"] == pytest.approx(25.5)
        assert register["attempted"] == 360 and register["failed"] == 0

    @pytest.mark.parametrize("name, factor", [("injections_per_s", 0.75),
                                              ("verdict_ms_p90", 1.25)])
    def test_worse_beyond_the_bound_fails_in_either_direction(self, name,
                                                              factor):
        self.commit_point("base")
        assert self.gate({"tcas-memory-tcp": run_output({name: factor})}) == 1

    @pytest.mark.parametrize("name, factor", [("injections_per_s", 1.5),
                                              ("verdict_ms_p90", 0.5)])
    def test_better_beyond_the_bound_passes(self, name, factor):
        self.commit_point("base")
        assert self.gate({"tcas-memory-tcp": run_output({name: factor})}) == 0

    def test_wrong_verdicts_fail(self):
        assert self.gate({"replace-control": run_output(correct=False)}) == 1

    def test_failed_injections_fail(self):
        assert self.gate({"replace-control": run_output(failed=2)}) == 1

    def test_a_missing_workload_fails(self):
        assert self.gate(skip="tcas-memory-tcp") == 1

    def test_a_run_without_a_result_line_fails(self):
        assert self.gate({"tcas-memory-tcp": "Traceback ...\n"}) == 1

    def test_a_missing_metric_fails(self):
        assert self.gate({"replace-control":
                          run_output(drop="decided_frac")}) == 1

    def test_no_same_runner_baseline_passes(self, capsys):
        # Only a CI point and an old schema-1 point, both far better.
        self.commit_point("ci", runner="ci", scale={"injections_per_s": 9})
        self.commit_point("old", scale={"injections_per_s": 9},
                          schema_version=1)
        assert self.gate() == 0
        assert "nothing to compare with" in capsys.readouterr().out

    def test_a_local_point_is_never_the_baseline_of_a_ci_run(self,
                                                             monkeypatch):
        monkeypatch.setenv("GITHUB_ACTIONS", "true")
        self.commit_point("ci", runner="ci", created="2026-09-01T00:00:00Z")
        self.commit_point("local", scale={"injections_per_s": 9},
                          created="2026-10-01T00:00:00Z")
        assert check_perfbench.baseline_point("ci")["sha"] == "ci"
        assert self.gate() == 0
        point = json.loads(Path("BENCH_fresh.json").read_text())
        assert point["runner"] == "ci"

    def test_the_newest_point_by_created_is_the_baseline(self):
        self.commit_point("aaa", scale={"injections_per_s": 2},
                          created="2026-10-02T00:00:00Z")
        self.commit_point("zzz", created="2026-10-01T00:00:00Z")
        assert check_perfbench.baseline_point("local")["sha"] == "aaa"
        assert self.gate() == 1

    def test_a_same_session_parent_run_is_the_local_baseline(self, capsys):
        # The committed point is far better (another host); the parent run
        # of this session matches, so the gate passes.
        self.commit_point("far", scale={"injections_per_s": 9})
        parents = {workload: run_output() for workload in WORKLOADS}
        assert self.gate(parents=parents) == 0
        assert "same-session parent runs" in capsys.readouterr().out
        point = json.loads(Path("BENCH_fresh.json").read_text())
        assert point["perfbench"]["replace-control"]["injections_per_s"] \
            == pytest.approx(30.0)

    def test_worse_than_the_parent_run_beyond_the_bound_fails(self):
        self.commit_point("base")
        assert self.gate(parents={"tcas-memory-tcp": run_output(
            {"injections_per_s": 1 / 0.75})}) == 1

    def test_a_workload_without_a_parent_run_falls_back_to_the_point(self):
        self.commit_point("far", scale={"injections_per_s": 9})
        assert self.gate(parents={"tcas-memory-tcp": run_output()}) == 1

    def test_a_parent_run_without_a_result_fails(self):
        assert self.gate(parents={"replace-control": "Traceback ...\n"}) == 1

    def test_ci_ignores_parent_runs(self, monkeypatch):
        monkeypatch.setenv("GITHUB_ACTIONS", "true")
        self.commit_point("ci", runner="ci")
        parents = {workload: run_output({"injections_per_s": 9})
                   for workload in WORKLOADS}
        assert self.gate(parents=parents) == 0

    def write_runs(self, name_outputs):
        paths = []
        for name, output in name_outputs.items():
            path = self.runs / name
            path.write_text(output)
            paths.append(str(path))
        return paths

    def test_each_side_is_gated_on_its_median(self, capsys):
        """One slow run of three neither fails the change nor, as a parent
        run, excuses it: each side is gated on its median."""
        self.commit_point("base")
        names = {f"{workload}.out": run_output() for workload in WORKLOADS}
        names.update({
            "replace-register.out": run_output({"injections_per_s": 0.5}),
            "replace-register.2.out": run_output(),
            "replace-register.3.out": run_output(),
            "replace-register.parent.out": run_output(),
            "replace-register.2.parent.out": run_output(
                {"injections_per_s": 0.5}),
            "replace-register.3.parent.out": run_output(
                {"injections_per_s": 1.1}),
        })
        assert check_perfbench.main(self.write_runs(names)) == 0
        assert ("same-session parent runs: replace-register"
                in capsys.readouterr().out)
        register = json.loads(
            Path("BENCH_fresh.json").read_text())["perfbench"][
                "replace-register"]
        assert register["injections_per_s"] == pytest.approx(30.0)
        assert register["runs"] == 3 and register["attempted"] == 3 * 360

    def test_the_median_of_the_parent_runs_is_the_baseline(self):
        self.commit_point("base")
        names = {f"{workload}.out": run_output() for workload in WORKLOADS}
        names.update({f"tcas-memory-tcp.{n}.parent.out": run_output(
            {"injections_per_s": 1 if n == 1 else 1 / 0.75})
            for n in (1, 2, 3)})
        assert check_perfbench.main(self.write_runs(names)) == 1

    def test_every_run_of_a_workload_must_be_correct(self):
        paths = self.write_runs(
            {f"{workload}.out": run_output() for workload in WORKLOADS})
        paths += self.write_runs(
            {"tcas-memory-tcp.2.out": run_output(correct=False)})
        assert check_perfbench.main(paths) == 1

    @pytest.mark.parametrize("name", ["replace-control.parent.2.out",
                                      "replace-control.x.out",
                                      "replace-control.json"])
    def test_any_other_file_name_is_rejected(self, name):
        paths = self.write_runs(
            {f"{workload}.out": run_output() for workload in WORKLOADS})
        with pytest.raises(SystemExit, match="not a run file name"):
            check_perfbench.main(paths + self.write_runs({name: run_output()}))
