import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import obscheck
from obscheck.cli import (
    EXIT_INTERNAL,
    EXIT_NOT_OBSERVABLE,
    EXIT_OBSERVABLE,
    EXIT_USAGE,
    _build_parser,
    main,
)
from obscheck import samples
from obscheck.samples import read_sample_csv
from obscheck.study import StudyConfig, render_report

DESK_FLAGS = ["--placement-iters", "150"]


def run_cli(args):
    return main([str(a) for a in args])


class TestSamplesCommand:
    def test_writes_pair_file(self, tmp_path, capsys):
        out = tmp_path / "pair.csv"
        code = run_cli(["samples", "--dim", 1, "--count", 2, "--out", out])
        assert code == EXIT_OBSERVABLE
        points, meta = read_sample_csv(out)
        assert np.sort(points[:, 0]) == pytest.approx([-1.0, 1.0], abs=1e-9)
        assert meta["dim"] == 1 and meta["count"] == 2
        assert "lcd_distance" in capsys.readouterr().out

    def test_plane_five_points(self, tmp_path):
        out = tmp_path / "five.csv"
        code = run_cli(["samples", "--dim", 2, "--count", 5, "--out", out] + DESK_FLAGS)
        assert code == EXIT_OBSERVABLE
        points, _ = read_sample_csv(out)
        assert points.shape == (5, 2)
        flipped = np.array(sorted(map(tuple, -points)))
        straight = np.array(sorted(map(tuple, points)))
        assert np.array_equal(flipped, straight)

    def test_zero_count_is_usage_error(self, tmp_path, capsys):
        code = run_cli(["samples", "--dim", 1, "--count", 0, "--out", tmp_path / "x.csv"])
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--placement-iters", "-5", "max_iters must be >= 0, got -5"),
    ])
    def test_invalid_placement_setting_is_usage_error(self, tmp_path, capsys, flag, value,
                                                      message):
        out = tmp_path / "x.csv"
        code = run_cli(["samples", "--dim", 2, "--count", 4, flag, value, "--out", out])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_dimension_whose_width_quadrature_overflows_is_usage_error(self, tmp_path, capsys):
        # with b up to 10 the quadrature's constants overflow from d = 247 on:
        # one error that names d, not numpy's warnings or the points
        out = tmp_path / "x.csv"
        code = run_cli(["samples", "--dim", 247, "--count", 494, "--out", out])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "error: d = 247 is out of range: the width quadrature's constants overflow"]
        assert not out.exists()


class TestRunCommand:
    def test_observable_model_exit_zero(self, tmp_path):
        out = tmp_path / "report.json"
        plot = tmp_path / "estimates.csv"
        code = run_cli(
            ["run", "--model", "unknown_variance", "--T", "4", "--K", "10",
             "--out", out, "--plot", plot, "--cache-dir", tmp_path / "cache"] + DESK_FLAGS
        )
        assert code == EXIT_OBSERVABLE
        data = json.loads(out.read_text())
        assert data["verdict"] == "OBSERVABLE"
        assert plot.read_text().startswith("k,param,estimate")

    def test_unobservable_model_exit_three(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            ["run", "--model", "ratio_mean_scale_sqrt_ratio", "--T", "2", "--K", "6",
             "--out", out, "--cache-dir", tmp_path / "cache"] + DESK_FLAGS
        )
        assert code == EXIT_NOT_OBSERVABLE
        assert json.loads(out.read_text())["verdict"] == "NOT_OBSERVABLE"

    def test_missing_model_file_exit_one(self, tmp_path, capsys):
        code = run_cli(["run", "--model", tmp_path / "absent.json", "--out", tmp_path / "r.json"])
        assert code == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_malformed_expression_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "parameters": [{"name": "a", "true_value": 1.0}],
            "mean": "a +",
            "scale": "1",
        }))
        code = run_cli(["run", "--model", bad, "--out", tmp_path / "r.json"])
        assert code == EXIT_USAGE
        assert "offset" in capsys.readouterr().err

    @pytest.mark.parametrize("field,text,true_value", [
        ("mean", "sqrt(a)", -1.0),
        ("log_prior", "log(a - 1)", 0.4),
        ("mean", "a^0.5", 0.0),  # a value, but no gradient: no fit could start
    ])
    def test_model_undefined_at_true_values_exit_one(self, tmp_path, capsys, field,
                                                     text, true_value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "parameters": [{"name": "a", "true_value": true_value}],
            "mean": "a", "scale": "1", field: text,
        }))
        code = run_cli(["run", "--model", bad, "--T", "4", "--K", "8",
                        "--out", tmp_path / "r.json", "--cache-dir", tmp_path / "cache"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {field} is not evaluable at the true values")

    @pytest.mark.parametrize("data", [
        [1],
        {"parameters": 5, "mean": "a", "scale": "1"},
        {"parameters": [{"true_value": 0.6}], "mean": "0", "scale": "1"},
        {"parameters": [{"name": "a", "true_value": "abc"}], "mean": "a", "scale": "1"},
        {"parameters": [{"name": "a", "true_value": 0.6}], "mean": 5, "scale": "1"},
        {"parameters": [{"name": "b", "true_value": 0.5, "lower": 2, "upper": 1}],
         "mean": "0", "scale": "b"},
        {"parameters": [{"name": "b", "true_value": 0.8, "lower": 1.0}],
         "mean": "0", "scale": "b"},
        {"parameters": [{"name": "b", "true_value": 0.8, "lower": "NaN"}],
         "mean": "0", "scale": "b"},
        {"parameters": [], "mean": "0", "scale": "1"},
        {"parameters": [{"name": "a", "true_value": 0.6}], "mean": "a"},
        '{"parameters": [',  # not JSON
        # names that no expression can reference
        *[{"parameters": [{"name": name, "true_value": 0.6}], "mean": "0", "scale": "1"}
          for name in ("", "a b", 5)],
        # JSON booleans as numbers
        {"parameters": [{"name": "a", "true_value": True}], "mean": "a", "scale": "1"},
        {"parameters": [{"name": "a", "true_value": 0.6, "lower": False}],
         "mean": "a", "scale": "1"},
        {"parameters": [{"name": "a", "true_value": 0.6, "upper": True}],
         "mean": "a", "scale": "1"},
        # a JSON integer too large for a float
        {"parameters": [{"name": "a", "true_value": 10**400}], "mean": "a", "scale": "1"},
    ])
    def test_malformed_model_file_exit_one(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.json"
        bad.write_text(data if isinstance(data, str) else json.dumps(data))
        code = run_cli(["run", "--model", bad, "--T", "2", "--K", "4",
                        "--out", tmp_path / "r.json", "--cache-dir", tmp_path / "cache"])
        assert code == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("shape", ["({})", "abs({})", "a * ({})", "-{}", "a + {}"])
    def test_deep_nesting_runs_to_the_bound_and_exits_one_past_it(self, tmp_path, capsys,
                                                                   shape):
        def model(levels):
            mean = "a"
            for _ in range(levels):
                mean = shape.format(mean)
            path = tmp_path / f"nested{levels}.json"
            path.write_text(json.dumps({
                "parameters": [{"name": "a", "true_value": 0.6}, {"name": "b", "true_value": 0.4}],
                "mean": mean, "scale": "b",
            }))
            return path

        args = ["run", "--T", "2", "--K", "4", "--out", tmp_path / "r.json",
                "--cache-dir", tmp_path / "cache"] + DESK_FLAGS
        code = run_cli(args + ["--model", model(200)])
        assert code in (EXIT_OBSERVABLE, EXIT_NOT_OBSERVABLE)
        capsys.readouterr()
        assert run_cli(args + ["--model", model(1000)]) == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot parse mean expression: expression nested "
                                   "deeper than 200 levels")

    @pytest.mark.parametrize("mean,offset", [("a + b / 1e999", 8), ("a ^ 1e999", 4)])
    def test_non_finite_literal_exit_one(self, tmp_path, capsys, mean, offset):
        model = tmp_path / "overflow.json"
        model.write_text(json.dumps({
            "parameters": [{"name": "a", "true_value": 0.6}, {"name": "b", "true_value": 0.4}],
            "mean": mean, "scale": "b",
        }))
        code = run_cli(["run", "--model", model, "--T", "2", "--K", "4",
                        "--out", tmp_path / "r.json", "--cache-dir", tmp_path / "cache"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "error: cannot parse mean expression: number out of range '1e999' "
            f"(at offset {offset})"]

    def test_repeated_horizon_exit_one(self, tmp_path, capsys):
        code = run_cli(["run", "--model", "unknown_variance", "--T", "4,4", "--K", "8",
                        "--out", tmp_path / "r.json", "--cache-dir", tmp_path / "cache"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            "error: horizon T = 4 is listed twice: [4, 4]"]

    def test_bad_horizon_list(self, tmp_path, capsys):
        code = run_cli(["run", "--model", "unknown_variance", "--T", "four",
                        "--out", tmp_path / "r.json"])
        assert code == EXIT_USAGE

    def test_env_cache_dir(self, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("OBSCHECK_CACHE_DIR", str(cache))
        out = tmp_path / "report.json"
        code = run_cli(["run", "--model", "unknown_variance", "--T", "2", "--K", "4",
                        "--out", out] + DESK_FLAGS)
        assert code == EXIT_OBSERVABLE
        assert list(cache.glob("samples_*.csv"))

    def test_home_cache_dir(self, tmp_path, monkeypatch):
        # with neither --cache-dir nor OBSCHECK_CACHE_DIR the sets go under
        # ~/.cache/obscheck
        monkeypatch.delenv("OBSCHECK_CACHE_DIR", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        code = run_cli(["run", "--model", "unknown_variance", "--T", "2", "--K", "4",
                        "--out", tmp_path / "report.json"] + DESK_FLAGS)
        assert code == EXIT_OBSERVABLE
        assert list((tmp_path / "home" / ".cache" / "obscheck").glob("samples_*.csv"))

    def test_byte_identical_across_thread_counts(self, tmp_path):
        outs = []
        for threads in (1, 4):
            out = tmp_path / f"report_{threads}.json"
            code = run_cli(
                ["run", "--model", "mean_and_variance", "--T", "4", "--K", "12",
                 "--threads", threads, "--out", out,
                 "--cache-dir", tmp_path / "cache"] + DESK_FLAGS
            )
            assert code == EXIT_OBSERVABLE
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("params,mean,scale,message", [
        ([{"name": "b", "true_value": 1e200}], "0", "b", "-2 log-posterior is not finite"),
        ([{"name": "b", "true_value": 1e-120}], "0", "b", "its cube underflows"),
        ([{"name": "b", "true_value": 1e308}], "0", "b * 1.6",
         "observation vector must be finite"),
    ])
    def test_infeasible_start_everywhere_exit_three(self, tmp_path, capsys, params, mean,
                                                    scale, message):
        # the scale's square overflows or its cube underflows at the true
        # values, or every design observation vector overflows, so every fit,
        # Part I included, starts infeasible and ends as a failed record
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"parameters": params, "mean": mean, "scale": scale}))
        out = tmp_path / "report.json"
        code = run_cli(["run", "--model", model, "--T", "4", "--K", "8", "--out", out,
                        "--cache-dir", tmp_path / "cache"] + DESK_FLAGS)
        assert code == EXIT_NOT_OBSERVABLE
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        # no numpy warning; placement may warn that it hit its iteration cap
        assert all(line.startswith("warning: sample placement")
                   for line in captured.err.splitlines())
        text = out.read_text()
        assert "NaN" not in text
        data = json.loads(text)
        part1 = data["part1"][0]
        assert part1["passed"] is False and part1["converged"] is False
        assert part1["estimate"] is None and part1["checks"] is None
        assert part1["local_variance"] is None and part1["grad_inf_norm"] is None
        reasons = data["part2"][0]["failure_reasons"]
        assert data["part2"][0]["n_passed"] == 0 and reasons
        for reason in reasons + [part1["reason"]]:
            assert reason.startswith("infeasible start:") and message in reason
            assert reason.count("infeasible start") == 1  # one prefix, not two
        assert part1["reason"] in captured.out
        # the Part I reason is rendered even when Part II lists none
        data["part2"][0]["failure_reasons"] = []
        assert f"failure reasons seen: {part1['reason']}" in render_report(data)

    @pytest.mark.parametrize("name", ["product_mean", "additive_mean_pair"])
    def test_ridge_models_at_desk_scale_exit_three(self, tmp_path, name):
        # some of the K=200 realizations end on a ridge whose smallest Hessian
        # eigenvalue rounds to a tiny positive number; those runs must fail
        # their checks rather than crash the study
        out = tmp_path / "report.json"
        code = run_cli(
            ["run", "--model", name, "--T", "4", "--K", "200", "--out", out,
             "--cache-dir", tmp_path / "cache"] + DESK_FLAGS
        )
        assert code == EXIT_NOT_OBSERVABLE
        assert json.loads(out.read_text())["verdict"] == "NOT_OBSERVABLE"

    def test_truncated_cache_file_is_placed_afresh(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        args = ["run", "--model", "unknown_variance", "--T", "4", "--K", "10",
                "--cache-dir", cache] + DESK_FLAGS
        assert run_cli(args + ["--out", tmp_path / "first.json"]) == EXIT_OBSERVABLE
        (cached,) = cache.glob("samples_*.csv")
        text = cached.read_text()
        cached.write_text(text[: len(text) // 2])
        monkeypatch.setattr(samples, "_matrix_cache", {})  # force the disk read
        with pytest.warns(UserWarning, match="placing the set afresh"):
            code = run_cli(args + ["--out", tmp_path / "second.json"])
        assert code == EXIT_OBSERVABLE
        assert (tmp_path / "second.json").read_bytes() == (tmp_path / "first.json").read_bytes()
        assert cached.read_text() == text  # the damaged file was replaced


    @pytest.mark.parametrize("layout", ["file_at_representative", "directory_at_a_set"])
    def test_cache_file_that_cannot_be_written_is_a_warning(self, tmp_path, monkeypatch, layout):
        # the set placed is used, as when no cache is given
        args = ["run", "--model", "unknown_variance", "--T", "2", "--K", "8"] + DESK_FLAGS
        assert run_cli(args + ["--no-cache", "--out", tmp_path / "uncached.json"]) == 0
        cache = tmp_path / "cache"
        if layout == "file_at_representative":
            cache.mkdir()
            blocked = cache / "representative"
            blocked.write_text("")
        else:
            assert run_cli(args + ["--cache-dir", cache, "--out", tmp_path / "fill.json"]) == 0
            (blocked,) = cache.glob("samples_d2_M8_*.csv")
            blocked.unlink()
            blocked.mkdir()
        monkeypatch.setattr(samples, "_matrix_cache", {})
        with pytest.warns(UserWarning) as caught:
            code = run_cli(args + ["--cache-dir", cache, "--out", tmp_path / "cached.json"])
        assert code == 0
        (message,) = [str(w.message) for w in caught]
        assert str(blocked) in message and "cannot be written" in message
        assert message.endswith(("(File exists); using the set placed",
                                 "(Is a directory); using the set placed"))
        assert (tmp_path / "cached.json").read_bytes() == (tmp_path / "uncached.json").read_bytes()

class TestReportCommand:
    def test_renders_written_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        run_cli(["run", "--model", "unknown_variance", "--T", "2", "--K", "4",
                 "--out", out, "--cache-dir", tmp_path / "cache"] + DESK_FLAGS)
        capsys.readouterr()
        code = run_cli(["report", out])
        assert code == EXIT_OBSERVABLE
        rendered = capsys.readouterr().out
        assert "Part I" in rendered and "verdict" in rendered

    @pytest.mark.parametrize("text", [
        "{not json", "[1]", '{"schema": "obscheck-report/1"}',
        '{"schema": "obscheck-report/1", "model": {}, "verdict": "x", "n_passing_total": 0,'
        ' "part1": [], "part2": []}',
        '{"schema": "obscheck-report/1", "model": {"parameters": []}, "verdict": "x",'
        ' "n_passing_total": 0, "part1": [1], "part2": []}',
        pytest.param(
            '{"schema": "obscheck-report/1", "model": {"parameters": [{"name": "a"}]},'
            ' "verdict": "x", "n_passing_total": 1, "part1": [{"T": 4, "estimate": {"a": '
            + str(10**400) + '}, "local_variance": null, "passed": true}], "part2": []}',
            id="estimate-too-large-for-a-float"),
    ])
    def test_malformed_report_file(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run_cli(["report", bad]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read report: ") and err.count("\n") == 1

    def test_missing_report_file(self, tmp_path):
        assert run_cli(["report", tmp_path / "none.json"]) == EXIT_USAGE


def test_unknown_subcommand_is_usage():
    assert run_cli(["frobnicate"]) == EXIT_USAGE


def test_internal_failure_exit_two(tmp_path, monkeypatch, capsys):
    import obscheck.cli as cli_module

    def explode(cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_module, "run_study", explode)
    code = run_cli(["run", "--model", "unknown_variance", "--T", "2", "--K", "4",
                    "--out", tmp_path / "r.json", "--no-cache"])
    assert code == EXIT_INTERNAL
    assert "boom" in capsys.readouterr().err


RUN_SMALL = ["run", "--model", "unknown_variance", "--T", "4", "--K", "8"]


def test_no_home_directory_is_usage_error(tmp_path, monkeypatch, capsys):
    # Path.home raises RuntimeError when HOME is unset and the user has no
    # passwd entry; the default cache then has no place to go
    import obscheck.cli as cli_module

    def unreachable(*args, **kwargs):
        raise AssertionError("the cache directory is resolved before any placement or study")

    def no_home(cls):
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.setattr(cli_module, "run_study", unreachable)
    monkeypatch.setattr(cli_module, "optimize_mixture", unreachable)
    monkeypatch.setattr(Path, "home", classmethod(no_home))
    monkeypatch.delenv("OBSCHECK_CACHE_DIR", raising=False)
    code = run_cli(RUN_SMALL + ["--out", tmp_path / "r.json"])
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE
    assert len(lines) == 1 and lines[0].startswith("error:")
    for named in ("--cache-dir", "OBSCHECK_CACHE_DIR", "--no-cache"):
        assert named in lines[0]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args,given", [
    (RUN_SMALL + ["--out", "{missing}/r.json", "--no-cache"], "{missing}/r.json"),
    (RUN_SMALL + ["--out", "{tmp}/r.json", "--plot", "{missing}/p.csv", "--no-cache"],
     "{missing}/p.csv"),
    (["samples", "--dim", "1", "--count", "2", "--out", "{missing}/s.csv"], "{missing}/s.csv"),
    (RUN_SMALL + ["--out", "{tmp}/r.json", "--cache-dir", "{tmp}/a_file"], "{tmp}/a_file"),
    (RUN_SMALL + ["--out", "{tmp}", "--no-cache"], "{tmp}"),
    # --out, --plot, --model and the cache directory must be four different
    # paths
    (RUN_SMALL + ["--out", "{tmp}/r.json", "--plot", "{tmp}/r.json", "--no-cache"],
     "{tmp}/r.json"),
    (["run", "--model", "{tmp}/m.json", "--T", "4", "--K", "8", "--out", "{tmp}/m.json",
      "--no-cache"], "{tmp}/m.json"),
    (["run", "--model", "{tmp}/m.json", "--T", "4", "--K", "8", "--out", "{tmp}/r.json",
      "--plot", "{tmp}/link.csv", "--no-cache"], "{tmp}/m.json"),
    (RUN_SMALL + ["--out", "{tmp}/x", "--cache-dir", "{tmp}/x"], "{tmp}/x"),
], ids=["run-out", "run-plot", "samples-out", "run-cache-dir-is-file", "run-out-is-dir",
        "run-out-is-plot", "run-out-is-model", "run-plot-links-to-model",
        "run-out-is-cache-dir"])
def test_unwritable_path_is_usage_error(tmp_path, monkeypatch, capsys, args, given):
    import obscheck.cli as cli_module

    def unreachable(*args, **kwargs):
        raise AssertionError("the path is checked before any placement or study")

    monkeypatch.setattr(cli_module, "run_study", unreachable)
    monkeypatch.setattr(cli_module, "optimize_mixture", unreachable)
    (tmp_path / "a_file").write_text("")
    (tmp_path / "m.json").write_text(json.dumps(
        {"parameters": [{"name": "b", "true_value": 0.8}], "mean": "0", "scale": "sqrt(b)"}))
    (tmp_path / "link.csv").symlink_to(tmp_path / "m.json")
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    fill = {"tmp": tmp_path, "missing": tmp_path / "missing_dir"}
    code = run_cli([a.format(**fill) for a in args])
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert given.format(**fill) in lines[0]
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_a_bundled_name_is_compared_as_the_path_it_spells(tmp_path, monkeypatch, capsys):
    # a run may not write its report where the next run's --model spells it,
    # and a file of that name, put there by other means, is not read
    monkeypatch.chdir(tmp_path)
    run = RUN_SMALL + ["--cache-dir", "cache"] + DESK_FLAGS
    code = run_cli(run + ["--out", "unknown_variance"])
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not any(tmp_path.iterdir())
    assert run_cli(run + ["--out", "first.json"]) == EXIT_OBSERVABLE
    (tmp_path / "unknown_variance").write_bytes((tmp_path / "first.json").read_bytes())
    assert run_cli(run + ["--out", "r.json"]) == EXIT_OBSERVABLE
    assert (tmp_path / "r.json").read_bytes() == (tmp_path / "first.json").read_bytes()


def test_too_few_design_vectors_is_usage_error(tmp_path, monkeypatch, capsys):
    import obscheck.cli as cli_module

    def unreachable(*args, **kwargs):
        raise AssertionError("K is checked before any placement or study")

    monkeypatch.setattr(cli_module, "run_study", unreachable)
    monkeypatch.setattr(cli_module, "optimize_mixture", unreachable)
    cache = tmp_path / "cache"
    code = run_cli(["run", "--model", "unknown_variance", "--T", "4,20", "--K", "30",
                    "--out", tmp_path / "r.json", "--cache-dir", cache])
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "K = 30" in lines[0] and "T = 20" in lines[0]
    assert not any(cache.rglob("*"))


def test_empty_horizon_list_is_usage_error(tmp_path, monkeypatch, capsys):
    import obscheck.cli as cli_module

    def unreachable(*args, **kwargs):
        raise AssertionError("the horizons are checked before any placement or study")

    monkeypatch.setattr(cli_module, "run_study", unreachable)
    monkeypatch.setattr(cli_module, "optimize_mixture", unreachable)
    cache = tmp_path / "cache"
    code = run_cli(["run", "--model", "unknown_variance", "--T", ",", "--K", "30",
                    "--out", tmp_path / "r.json", "--cache-dir", cache])
    lines = capsys.readouterr().err.splitlines()
    assert code == EXIT_USAGE
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "T_list" not in lines[0]
    assert not cache.exists() and not (tmp_path / "r.json").exists()


def test_warning_prints_as_one_line(tmp_path):
    # the in-process filter in pyproject.toml hides placement warnings, so
    # run a cold placement in a fresh interpreter with the default filters
    src = Path(obscheck.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "default"}
    proc = subprocess.run(
        [sys.executable, "-m", "obscheck", "samples", "--dim", "2", "--count", "6",
         "--placement-iters", "1", "--out", str(tmp_path / "s.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_OBSERVABLE
    lines = proc.stderr.splitlines()
    assert any("stopped at max_iters=1" in line for line in lines)
    for line in lines:
        assert line.startswith("warning: ") and ".py:" not in line


RUN_DESK = ["run", "--T", "2", "--K", "8", "--placement-iters", "20",
            "--out", "{dir}/report.json", "--cache-dir", "{dir}/cache"]


@pytest.mark.parametrize("args,want", [
    (RUN_DESK + ["--model", "unknown_variance"], EXIT_OBSERVABLE),
    (RUN_DESK + ["--model", "additive_mean_pair"], EXIT_NOT_OBSERVABLE),
    (RUN_DESK + ["--model", "unknown_variance", "--T", "four"], EXIT_USAGE),
    (["run", "--help"], EXIT_OBSERVABLE),
], ids=["observable", "not-observable", "usage-error", "help"])
def test_command_line_process_equals_main(tmp_path, monkeypatch, capsys, args, want):
    # python -m obscheck exits through entry(), which freezes the garbage
    # collector after main() returns: its exit code, stdout and report are
    # what main() gives in-process, and main() leaves the collector as it was
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    src = Path(obscheck.__file__).resolve().parent.parent
    runs = {}
    for side in ("process", "main"):
        (tmp_path / side).mkdir()
        argv = [a.format(dir=tmp_path / side) for a in args]
        if side == "process":
            proc = subprocess.run([sys.executable, "-m", "obscheck", *argv],
                                  env={**os.environ, "PYTHONPATH": str(src)},
                                  capture_output=True, text=True, timeout=120)
            code, out = proc.returncode, proc.stdout
        else:
            frozen = gc.get_freeze_count()
            code = main(argv)
            assert gc.get_freeze_count() == frozen
            out = capsys.readouterr().out
        report = tmp_path / side / "report.json"
        runs[side] = code, out.splitlines(), report.read_bytes() if report.exists() else None
    (code, lines, report), (main_code, main_lines, main_report) = runs["process"], runs["main"]
    assert code == main_code == want
    assert report == main_report
    if report is not None:
        for side, side_lines in (("process", lines), ("main", main_lines)):
            assert side_lines.pop() == f"report written to {tmp_path / side / 'report.json'}"
    assert lines == main_lines
    assert lines or code == EXIT_USAGE


def test_run_defaults_come_from_the_study_config(monkeypatch):
    # StudyConfig owns the horizons and K; the parser reads them there
    assert _parse_run().T == "4,12,20" and _parse_run().K == 2000
    monkeypatch.setattr(StudyConfig, "T_list", (5, 9))
    monkeypatch.setattr(StudyConfig, "K", 300)
    args = _parse_run()
    assert (args.T, args.K) == ("5,9", 300)


def _parse_run():
    return _build_parser().parse_args(["run", "--model", "unknown_variance"])


def test_exit_codes_are_distinct():
    assert len({EXIT_OBSERVABLE, EXIT_USAGE, EXIT_INTERNAL, EXIT_NOT_OBSERVABLE}) == 4


# Run in a fresh interpreter: lists the modules among these that importing
# the CLI loaded, and each function of an obscheck class whose code was built
# at run time by exec or eval (its file name is "<string>" or the like).
_IMPORT_PROBE = """
import json, sys
import obscheck.cli
loaded = [m for m in ("dataclasses", "hashlib", "_hashlib", "traceback") if m in sys.modules]
generated = []
for module in [m for name, m in list(sys.modules.items()) if name.startswith("obscheck")]:
    for cls in [c for c in vars(module).values() if isinstance(c, type)]:
        if not cls.__module__.startswith("obscheck"):
            continue
        for name, attr in vars(cls).items():
            for f in (attr, getattr(attr, "__func__", None), getattr(attr, "fget", None)):
                code = getattr(f, "__code__", None)
                if code is not None and code.co_filename.startswith("<"):
                    generated.append(f"{cls.__qualname__}.{name}")
print(json.dumps([loaded, sorted(set(generated))]))
"""


def test_import_generates_no_code():
    # with no cached bytecode, as in a fresh checkout, the stdlib dataclass
    # decorator exec-compiles every method it adds in every process, hashlib
    # loads OpenSSL and traceback is needed only after an internal failure
    src = Path(obscheck.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          env={**os.environ, "PYTHONPATH": str(src),
                               "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]


# Run in a fresh interpreter: prints the exit code, the modules among these
# that importing numpy loaded, and those that the run loaded besides.
_WARM_PROBE = """
import json, sys
import numpy
watched = ("numpy.random", "hashlib", "_hashlib", "numpy.polynomial")
before = [m for m in watched if m in sys.modules]
from obscheck.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, before, [m for m in watched if m in sys.modules and m not in before]]))
"""


def test_warm_run_loads_no_placement_modules(tmp_path):
    # numpy.random (the seeded initializer) and numpy.polynomial (the
    # quadrature nodes) serve placement alone, and hashlib loads OpenSSL: a
    # run whose designs and Part I sets are cached loads none of them beyond
    # what importing numpy loads (numpy 1.x imports both submodules eagerly)
    src = Path(obscheck.__file__).resolve().parent.parent
    argv = [a.format(dir=tmp_path) for a in RUN_DESK] + ["--model", "unknown_variance"]
    env = {**os.environ, "PYTHONPATH": str(src)}
    outputs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", _WARM_PROBE, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout.splitlines()[-1]))
    (first, first_before, first_loaded), (second, _, second_loaded) = outputs
    assert first == second == EXIT_OBSERVABLE
    if "numpy.random" not in first_before:
        assert "numpy.random" in first_loaded  # the first run placed the sets
    assert second_loaded == []


SAMPLES_DESK = ["samples", "--dim", "2", "--count", "4", "--out", "{dir}/x.csv"]


@pytest.mark.parametrize("command,flag,value", [
    (RUN_DESK + ["--model", "unknown_variance"], "--grad-tol", "1e-9"),
    (RUN_DESK + ["--model", "unknown_variance"], "--step-tol", "1e-8"),
    (RUN_DESK + ["--model", "unknown_variance"], "--quad-nodes", "64"),
    (RUN_DESK + ["--model", "unknown_variance"], "--grad-check", "1e-5"),
    (RUN_DESK + ["--model", "unknown_variance"], "--eig-ratio-min", "1e-5"),
    (RUN_DESK + ["--model", "unknown_variance"], "--lvar-max", "1e8"),
    (SAMPLES_DESK, "--step-tol", "1e-8"),
    (SAMPLES_DESK, "--quad-nodes", "64"),
    (RUN_DESK + ["--model", "unknown_variance"], "--b-max", "10"),
    (SAMPLES_DESK, "--b-max", "10"),
], ids=["run-grad-tol", "run-step-tol", "run-quad-nodes", "run-grad-check",
        "run-eig-ratio-min", "run-lvar-max", "samples-step-tol", "samples-quad-nodes",
        "run-b-max", "samples-b-max"])
def test_fixed_tolerance_flags_are_usage_errors(tmp_path, capsys, command, flag, value):
    # the fit's and placement's stops, the node rule, the kernel-width bound
    # and the checks' thresholds are fixed: the flags that once set them are
    # unknown options
    code = main([a.format(dir=tmp_path) for a in command] + [flag, value])
    assert code == EXIT_USAGE
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
