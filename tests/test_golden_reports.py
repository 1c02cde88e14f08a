"""Report bytes pinned as the behaviour contract.

``golden/reports.json`` holds, for ``qchar run`` over each file in
``tests/data``, the exit code and stdout (and stderr where the run writes
one, with the file's path cut to its name), plus the sha256 of the stdout
of the README sweep and of the same-size convolution sweep. A refactor that moves a reported float shows up here as
changed bytes.

Regenerate with ``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from qchar.cli import main

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden" / "reports.json"
SWEEP = ["sweep", "independence-collapse", "--seed", "7", "--count", "50", "--max-order", "12"]
CONVOLUTION_SWEEP = ["sweep", "convolution", "--seed", "7", "--count", "50", "--max-order", "12"]


def _run(args) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def _file_record(path: Path) -> dict:
    code, out, err = _run(["run", str(path)])
    record = {"exit": code, "stdout": out}
    if err:
        record["stderr"] = err.replace(str(path), path.name)
    return record


def _sweep_digest(args=SWEEP) -> str:
    code, out, _ = _run(args)
    assert code == 0
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def record() -> dict:
    return {"run": {p.name: _file_record(p) for p in sorted(DATA.glob("*.json"))},
            "sweep_sha256": _sweep_digest(),
            "convolution_sweep_sha256": _sweep_digest(CONVOLUTION_SWEEP)}


def test_golden_covers_every_data_file():
    assert sorted(_golden()["run"]) == sorted(p.name for p in DATA.glob("*.json"))


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.json")))
def test_run_report_bytes_match_golden(name):
    assert _file_record(DATA / name) == _golden()["run"][name]


def test_readme_sweep_digest_matches_golden():
    assert _sweep_digest() == _golden()["sweep_sha256"]


def test_convolution_sweep_digest_matches_golden():
    assert _sweep_digest(CONVOLUTION_SWEEP) == _golden()["convolution_sweep_sha256"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
