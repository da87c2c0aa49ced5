import importlib.util
import json
from pathlib import Path

import pytest

from obscheck import StudyConfig, load_model, report_to_json, run_study

from conftest import DESK_LCD

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", _SCRIPT)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


@pytest.fixture(scope="module")
def report():
    cfg = StudyConfig(model=load_model("mean_and_variance"), T_list=(2, 3), K=6, lcd=DESK_LCD)
    return json.loads(report_to_json(run_study(cfg)))


def _exit_code(tmp_path, a, b, *flags):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, data in zip(paths, (a, b)):
        path.write_text(json.dumps(data))
    return compare_reports.main([str(paths[0]), str(paths[1]), *flags])


def test_identical_reports_match(tmp_path, report):
    assert _exit_code(tmp_path, report, report) == 0


def test_flipped_flag_fails(tmp_path, report):
    other = json.loads(json.dumps(report))
    flags = other["part2"][0]["passed_flags"]
    flags[0] = not flags[0]
    assert _exit_code(tmp_path, report, other, "--rtol", "1") == 1


def test_perturbed_variance_fails_beyond_the_tolerance(tmp_path, report):
    other = json.loads(json.dumps(report))
    other["part2"][1]["empirical_variance"]["b"] *= 1.0 + 1e-6
    assert _exit_code(tmp_path, report, other) == 1
    assert _exit_code(tmp_path, report, other, "--rtol", "1e-5") == 0


def test_exact_fields_take_no_tolerance(tmp_path, report):
    other = dict(report, seed=report["seed"] + 1)
    assert _exit_code(tmp_path, report, other, "--rtol", "1") == 1


def test_unreadable_report_exits_two(tmp_path, report):
    (tmp_path / "a.json").write_text("{not json")
    (tmp_path / "b.json").write_text(json.dumps(report))
    assert compare_reports.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
