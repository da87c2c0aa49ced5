import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_reports.sh"


def _run(tmp_path, outdir):
    # ROOT holds an obscheck whose every run exits 5, so that a run the
    # guard should have stopped fails at once rather than run the models
    package = tmp_path / "stub" / "src" / "obscheck"
    package.mkdir(parents=True, exist_ok=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text("raise SystemExit(5)\n")
    return subprocess.run(["bash", str(_SCRIPT), str(tmp_path / "stub"), str(outdir)],
                          capture_output=True, text=True, timeout=60)


def test_an_outdir_that_holds_files_is_refused(tmp_path):
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "stale.json").write_text("{}")
    proc = _run(tmp_path, outdir)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"{_SCRIPT}: OUTDIR {outdir} is not empty"]
    assert [p.name for p in outdir.iterdir()] == ["stale.json"]


@pytest.mark.parametrize("made", [False, True], ids=["missing", "empty"])
def test_a_missing_or_empty_outdir_is_run(tmp_path, made):
    outdir = tmp_path / "out"
    if made:
        outdir.mkdir()
    proc = _run(tmp_path, outdir)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [f"{tmp_path / 'stub'} unknown_variance exited 5"]
    assert (outdir / "unknown_variance.exit").read_text() == "5\n"
