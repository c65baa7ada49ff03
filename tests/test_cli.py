"""Command-line behavior: subcommands, exit codes, determinism."""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricfano.cli
from toricfano import fan as fan_module
from toricfano import invariants, lattice, primitive
from toricfano.cli import main
from toricfano.oracle import corpus_directory

from cli_cases import CASES, run_case, run_in_process

PLANE = "FAN 2 3 3\n1 0\n0 1\n-1 -1\n0 1\n1 2\n0 2\n"
INCOMPLETE = "FAN 2 3 2\n1 0\n0 1\n-1 -1\n0 1\n1 2\n"
HIRZEBRUCH = "FAN 2 4 4\n1 0\n0 1\n-1 2\n0 -1\n0 1\n1 2\n2 3\n0 3\n"
NO_RAYS = "FAN 2 0 0\n"
NO_CONES = "FAN 2 2 0\n1 0\n0 1\n"
NOT_UTF8 = b"\xff\xfeFAN 2\n"
# The origin is interior, but the cone on (1, 0) and (-1, -2) is singular.
SINGULAR_TRIANGLE = "POLY 2 3\n1 0\n0 1\n-1 -2\n"
# sha256 of `batch .` run inside the corpus directory; the reports are
# byte-identical across refactors, so any change here is a behaviour change.
GOLDEN_BATCH_SHA256 = {
    "text": "cb12b7f0ca05682b1a08ce80b73dbb257caba53dcc907b288699aad1a06d8402",
    "json": "c078682cc05ab0c46b3dd6a6d22a014038ef40a974235e1493c5e61c4dca072a",
}


@pytest.fixture
def plane_file(tmp_path):
    path = tmp_path / "plane.fan"
    path.write_text(PLANE)
    return str(path)


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_cli_case(case):
    _, failures = run_case(case, run_in_process)
    assert failures == []


def test_validate_ok(plane_file, capsys):
    assert main(["validate", plane_file]) == 0
    out = capsys.readouterr()
    assert "ok: yes" in out.out
    assert out.err == ""


def test_validate_names_failing_check(tmp_path, capsys):
    path = tmp_path / "incomplete.fan"
    path.write_text(INCOMPLETE)
    assert main(["validate", str(path)]) == 1
    assert "facet_pairing" in capsys.readouterr().out


def test_validate_syntax_error_exit(tmp_path, capsys):
    path = tmp_path / "bad.fan"
    for text in ("FAN 2 3 3\n1 0\n", NO_RAYS, NO_CONES):
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        assert "line" in capsys.readouterr().err


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "binary.fan"
    path.write_bytes(NOT_UTF8)
    for command in ("validate", "invariants", "mukai"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert captured.out == ""


def test_invariants_json(plane_file, capsys):
    assert main(["invariants", plane_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dimension"] == 2
    assert data["picard_rho"] == 1
    assert data["pseudo_index_iota"] == 3
    assert data["f_vector"] == [1, 3, 3]
    assert data["wall_degrees"] == [3, 3, 3]
    assert len(data["relations"]) == 1


def test_invariants_withholds_iota_for_non_fano(tmp_path, capsys):
    path = tmp_path / "hirzebruch.fan"
    path.write_text(HIRZEBRUCH)
    assert main(["invariants", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["fano"] is False
    assert data["pseudo_index_iota"] is None


def test_mukai_reads_no_cone_coordinates(monkeypatch, capsys):
    # mukai reads iota off the primitive relations, so it builds no wall
    # curve and makes no rational solve, and validation reads the covering
    # degree off the h-vector counts. On a product of lines every
    # primitive collection sums to zero, so nothing is located in a cone.
    path = corpus_directory() / "product_1x1x1x1.fan"

    def no_coordinates(fan, index, target):
        raise AssertionError("mukai read cone coordinates")

    def no_solve(basis, target):
        raise AssertionError("mukai made a rational solve")

    def no_wall_curves(fan):
        raise AssertionError("mukai built the wall curves")

    monkeypatch.setattr(fan_module, "_cone_coordinates", no_coordinates)
    monkeypatch.setattr(primitive, "_cone_coordinates", no_coordinates)
    monkeypatch.setattr(lattice, "solve_in_basis", no_solve)
    monkeypatch.setattr(invariants, "_wall_curves", no_wall_curves)
    assert main(["mukai", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["factors"] == [1, 1, 1, 1]


def test_structured_format_alias(plane_file, capsys):
    assert main(["invariants", plane_file, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["invariants", plane_file, "--format",
                 "json-like-structured"]) == 0
    assert capsys.readouterr().out == first


def test_batch_corpus_passes(capsys):
    assert main(["batch", str(corpus_directory()), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["check_failures"] == 0
    assert data["summary"]["parse_errors"] == 0
    assert data["summary"]["files"] == data["summary"]["passed"]
    paths = [e["path"] for e in data["entries"]]
    assert paths == sorted(paths)


def test_batch_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        assert main(["batch", str(corpus_directory()),
                     "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_batch_records_corrupt_files_without_failing(tmp_path, capsys):
    (tmp_path / "plane.fan").write_text(PLANE)
    (tmp_path / "corrupt.fan").write_text("FAN 2 3 3\n1 0\nbroken\n")
    (tmp_path / "no_rays.fan").write_text(NO_RAYS)
    (tmp_path / "no_cones.fan").write_text(NO_CONES)
    (tmp_path / "not_utf8.fan").write_bytes(NOT_UTF8)
    assert main(["batch", str(tmp_path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["parse_errors"] == 4
    assert data["summary"]["passed"] == 1


def test_batch_flags_mathematical_failures(tmp_path, capsys):
    (tmp_path / "incomplete.fan").write_text(INCOMPLETE)
    assert main(["batch", str(tmp_path), "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["check_failures"] == 1


def test_batch_missing_directory(capsys):
    assert main(["batch", "/no/such/dir"]) == 2
    assert "error:" in capsys.readouterr().err


def test_batch_report_file(tmp_path, capsys):
    (tmp_path / "plane.fan").write_text(PLANE)
    report = tmp_path / "out.json"
    assert main(["batch", str(tmp_path), "--format", "json",
                 "--report", str(report)]) == 0
    stdout = capsys.readouterr().out
    assert report.read_text() == stdout


def test_batch_report_to_unwritable_path(tmp_path, capsys):
    (tmp_path / "plane.fan").write_text(PLANE)
    report = tmp_path / "missing" / "r.txt"
    assert main(["batch", str(tmp_path), "--report", str(report)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not report.parent.exists()


def test_batch_empty_directory(tmp_path, capsys):
    assert main(["batch", str(tmp_path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["summary"]["files"] == 0


@pytest.mark.parametrize("fmt", sorted(GOLDEN_BATCH_SHA256))
def test_batch_report_matches_golden_digest(fmt, monkeypatch, capsys):
    # Relative paths keep the report independent of the checkout location.
    monkeypatch.chdir(corpus_directory())
    assert main(["batch", ".", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN_BATCH_SHA256[fmt]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_batch_rejects_fewer_than_one_worker(workers, tmp_path, capsys):
    (tmp_path / "plane.fan").write_text(PLANE)
    assert main(["batch", str(tmp_path), "--workers", workers]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records the pool size it is asked
    for and maps in this process, so no worker is ever started."""

    requested: list[int] = []

    def __init__(self, max_workers):
        _SerialPool.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items):
        return map(func, items)


def test_batch_pool_is_capped_at_files_and_cpus(tmp_path, monkeypatch,
                                                capsys):
    for name in ("a", "b", "c"):
        (tmp_path / f"{name}.fan").write_text(PLANE)
    _SerialPool.requested = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _SerialPool)
    assert main(["batch", str(tmp_path), "--format", "json",
                 "--workers", "1000000"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["passed"] == 3
    assert all(n <= min(3, os.cpu_count() or 1)
               for n in _SerialPool.requested)


def test_cli_import_loads_no_process_pool():
    # Only a batch with more than one worker needs a pool; every other
    # command skips the import of concurrent.futures and multiprocessing.
    code = ("import sys, toricfano.cli; "
            "print(sorted(m for m in ('concurrent.futures', "
            "'multiprocessing') if m in sys.modules))")
    src = str(Path(toricfano.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_poly_files_accepted(capsys):
    path = str(corpus_directory() / "poly_octahedron.poly")
    assert main(["mukai", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["factors"] == [1, 1, 1]


def test_failing_poly_route(tmp_path, capsys):
    path = tmp_path / "triangle.poly"
    path.write_text(SINGULAR_TRIANGLE)
    assert main(["validate", str(path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert [c["name"] for c in report["checks"] if not c["passed"]] == \
        ["smoothness", "covering_degree"]
    assert main(["mukai", str(path)]) == 2
    assert "validation failed: smoothness" in capsys.readouterr().err
    assert main(["batch", str(tmp_path), "--format", "json"]) == 1
    entry, = json.loads(capsys.readouterr().out)["entries"]
    assert entry["status"] == "check_failed"
    assert entry["detail"] == "validation failed: smoothness, covering_degree"


# Small corpus files, so that each mutated file goes through four commands
# quickly.
_FUZZ_SOURCES = sorted(p for p in corpus_directory().iterdir()
                       if p.suffix in (".fan", ".poly")
                       and p.stat().st_size <= 140)
_TOKENS = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(("", "x", "1_0", "\u0665", "1.5", "-0", "9" * 30, "FAN",
                     "POLY")),
    st.text(max_size=3))
# NUL, CR, VT, NEL, and \udcff, which surrogateescape writes as byte 0xff.
_BYTES = ("\x00", "\r", "\x0b", "\x85", "\udcff")


@st.composite
def _mutated_corpus_files(draw):
    """(suffix, text): a small corpus file after one to three mutations,
    each replacing one token, deleting, duplicating or swapping lines, or
    replacing, inserting or deleting one character (putting in one of
    _BYTES)."""
    path = draw(st.sampled_from(_FUZZ_SOURCES))
    lines = path.read_text(encoding="utf-8").splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("token", "delete", "duplicate", "swap",
                                   "byte")))
        if op == "token":
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_TOKENS)
            lines[i] = " ".join(tokens)
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            k = draw(st.integers(0, len(lines[i])))
            edit = draw(st.sampled_from(("replace", "insert", "delete")))
            put = "" if edit == "delete" else draw(st.sampled_from(_BYTES))
            lines[i] = lines[i][:k] + put + lines[i][k + (edit != "insert"):]
    return path.suffix, "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated=_mutated_corpus_files())
def test_mutated_corpus_files_keep_the_exit_code_promise(mutated):
    suffix, text = mutated
    with tempfile.TemporaryDirectory() as root:
        path = Path(root, "mutated" + suffix)
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        for argv in (["validate", str(path)], ["invariants", str(path)],
                     ["mukai", str(path)], ["batch", root]):
            code, _, err = run_in_process(argv)
            assert code in (0, 1, 2) and "Traceback" not in err, \
                (argv, text)
