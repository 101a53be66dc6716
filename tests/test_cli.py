"""Command-line surface: subcommands, formats, exit codes, determinism."""

import importlib
import importlib.metadata
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

import sievecluster
import sievecluster.cli
from sievecluster.cli import main

X3_CSV = "label,a,b,c\na,0,1,2\nb,1,0,1\nc,2,1,0\n"
C4_CSV = (
    "label,a,b,c,d\n"
    "a,0,1,2,1\n"
    "b,1,0,1,2\n"
    "c,2,1,0,1\n"
    "d,1,2,1,0\n"
)


@pytest.fixture()
def runner():
    return CliRunner()


def _x3(tmp_path):
    p = tmp_path / "x3.csv"
    p.write_text(X3_CSV)
    return str(p)


def _c4(tmp_path):
    p = tmp_path / "c4.csv"
    p.write_text(C4_CSV)
    return str(p)


def test_cluster_maximal_linkage(runner, tmp_path):
    result = runner.invoke(
        main, ["cluster", "--method", "ml", "--delta", "1", _x3(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {
        "base": ["a", "b", "c"],
        "clusters": [["a", "b"], ["b", "c"]],
    }


def test_cluster_maximal_linkage_deep_near_clique(runner, tmp_path):
    # K_1500 minus one edge: the clique search nests 1,500 frames deep. A
    # one-column point CSV keeps the cubic triangle check of a matrix out.
    path = tmp_path / "line.csv"
    path.write_text("".join(f"{i / 1499!r}\n" for i in range(1500)))
    start = time.perf_counter()
    result = runner.invoke(
        main,
        ["cluster", "--method", "ml", "--delta", "0.9995", "--as-points", str(path)],
    )
    assert time.perf_counter() - start < 30.0
    assert result.exit_code == 0, result.output
    assert [len(c) for c in json.loads(result.output)["clusters"]] == [1499, 1499]


def test_cluster_missing_delta_is_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["cluster", "--method", "ml", _x3(tmp_path)])
    assert result.exit_code == 2
    assert "--delta" in result.output


def test_cluster_level_family_needs_k(runner, tmp_path):
    result = runner.invoke(
        main, ["cluster", "--method", "vl", "--delta", "1", _x3(tmp_path)]
    )
    assert result.exit_code == 2


def test_cluster_rejects_conflicting_format_flags(runner, tmp_path):
    result = runner.invoke(
        main,
        [
            "cluster", "--method", "sl", "--delta", "1",
            "--as-matrix", "--as-points", _x3(tmp_path),
        ],
    )
    assert result.exit_code == 2


def test_cluster_missing_file_is_input_error(runner, tmp_path):
    result = runner.invoke(
        main, ["cluster", "--method", "sl", "--delta", "1", str(tmp_path / "no.csv")]
    )
    assert result.exit_code == 2


def test_cluster_emit_dot(runner, tmp_path):
    dot = tmp_path / "g.dot"
    result = runner.invoke(
        main,
        [
            "cluster", "--method", "ml", "--delta", "1",
            "--emit-dot", str(dot), _x3(tmp_path),
        ],
    )
    assert result.exit_code == 0
    text = dot.read_text()
    assert text.startswith("graph")
    assert '"a" -- "b"' in text and '"a" -- "c"' not in text


def test_cluster_output_files_are_byte_identical(runner, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        result = runner.invoke(
            main,
            ["cluster", "--method", "vl", "--k", "2", "--delta", "1",
             "-o", str(out), _c4(tmp_path)],
        )
        assert result.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sieve_profile(runner, tmp_path):
    result = runner.invoke(main, ["sieve", "--method", "ml", _x3(tmp_path)])
    assert result.exit_code == 0, result.output
    data = json.loads(result.output)
    assert data["breakpoints"] == [0.0, 1.0, 2.0]
    assert data["covers"][2] == [["a", "b", "c"]]


def test_sieve_with_adjacent_float_breakpoints_exits_zero(runner, tmp_path):
    # the ml sieve of this cloud has breakpoints one float apart, where no
    # scale lies between to probe right continuity
    rows = [f"q{i:02d},{(0.37 * i) % 1!r},{(0.61 * i) % 1!r}" for i in range(20)]
    path = tmp_path / "cloud.csv"
    path.write_text("label,x0,x1\n" + "\n".join(rows) + "\n")
    result = runner.invoke(main, ["sieve", "--method", "ml", str(path)])
    assert result.exit_code == 0, result.output
    assert "right continuity fails" not in result.output


def test_sieve_rejects_generated(runner, tmp_path):
    result = runner.invoke(main, ["sieve", "--method", "generated", _x3(tmp_path)])
    assert result.exit_code == 2


def test_sieve_nontrivial_terminal_exits_one_but_emits(runner, tmp_path):
    out = tmp_path / "profile.json"
    result = runner.invoke(
        main,
        ["sieve", "--method", "l", "--k", "2", "--K", "1.5",
         "-o", str(out), _x3(tmp_path)],
    )
    assert result.exit_code == 1
    data = json.loads(out.read_text())
    assert data["covers"][-1] != [["a", "b", "c"]]


def test_unwritable_json_output_is_usage_error(runner, tmp_path):
    out = tmp_path / "missing" / "r.json"
    result = runner.invoke(
        main, ["cluster", "--method", "sl", "--delta", "1", "-o", str(out), _x3(tmp_path)]
    )
    assert result.exit_code == 2
    assert f"cannot write {out}: No such file or directory" in result.output


def test_unwritable_dot_output_is_usage_error(runner, tmp_path):
    dot = tmp_path / "missing" / "g.dot"
    result = runner.invoke(
        main,
        ["cluster", "--method", "ml", "--delta", "1", "--emit-dot", str(dot), _x3(tmp_path)],
    )
    assert result.exit_code == 2
    assert f"cannot write {dot}: No such file or directory" in result.output
    result = runner.invoke(main, ["export-dot", "--delta", "1", "-o", str(dot), _x3(tmp_path)])
    assert result.exit_code == 2
    assert f"cannot write {dot}" in result.output


def _ml26(tmp_path) -> str:
    """A 26-point matrix whose ml sieve JSON is 656 KB, well past a pipe's
    buffer."""
    from sievecluster.fileio import write_matrix_csv
    from sievecluster.verify import random_metric

    p = tmp_path / "rm26.csv"
    write_matrix_csv(random_metric(26, 1), p)
    return str(p)


def test_sieve_stdout_and_output_file_are_the_same_bytes(runner, tmp_path):
    from sievecluster import MethodSpec, build_sieve, ingest_space
    from sievecluster.fileio import canonical_json_bytes

    path = _ml26(tmp_path)
    out = tmp_path / "s.json"
    to_stdout = runner.invoke(main, ["sieve", "--method", "ml", path])
    to_file = runner.invoke(main, ["sieve", "--method", "ml", "-o", str(out), path])
    assert (to_stdout.exit_code, to_file.exit_code, to_file.stdout_bytes) == (0, 0, b"")
    expected = canonical_json_bytes(build_sieve(ingest_space(path), MethodSpec("ml")).to_dict())
    assert to_stdout.stdout_bytes == out.read_bytes() == expected


def test_sieve_with_an_infinite_breakpoint_writes_nothing(runner, tmp_path, monkeypatch):
    import sievecluster.sieves
    from sievecluster import Cover, Sieve

    def infinite_sieve(x, spec):
        s = Sieve(x.labels, [0.0, 1.0], [Cover(x.labels, [[a] for a in x.labels]), Cover(x.labels, [x.labels])])
        s.breakpoints = (0.0, float("inf"))
        return s

    monkeypatch.setattr(sievecluster.sieves, "build_sieve", infinite_sieve)
    out = tmp_path / "s.json"
    for args in ([], ["-o", str(out)]):
        result = runner.invoke(main, ["sieve", "--method", "ml", *args, _x3(tmp_path)])
        assert isinstance(result.exception, ValueError)
        assert result.stdout_bytes == b""
    assert not out.exists()


SRC = Path(__file__).resolve().parent.parent / "src"


def _cli(unbuffered: bool, *args: str, stdout) -> subprocess.Popen:
    """The CLI in a subprocess, its stdout block-buffered, as by default,
    or unbuffered, as under PYTHONUNBUFFERED."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "sievecluster.cli", *args],
        cwd=SRC, env=env, stdout=stdout, stderr=subprocess.PIPE,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_full_stdout_is_usage_error(tmp_path, unbuffered):
    path = _ml26(tmp_path)
    for args in (["cluster", "--method", "ml", "--delta", "0.3"], ["sieve", "--method", "ml"]):
        with open("/dev/full", "wb") as full:
            proc = _cli(unbuffered, *args, path, stdout=full)
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        assert err == b"Error: cannot write stdout: No space left on device\n"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_reader_closing_stdout_early_is_silent(tmp_path, unbuffered):
    proc = _cli(unbuffered, "sieve", "--method", "ml", _ml26(tmp_path), stdout=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{\n  "base"'
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_points_whose_distance_overflows_exit_two(runner, tmp_path):
    p = tmp_path / "far.csv"
    p.write_text("a,1e308\nb,-1e308\n")
    for args in (["cluster", "--method", "ml", "--delta", "1"], ["sieve", "--method", "ml"]):
        result = runner.invoke(main, [*args, str(p)])
        assert result.exit_code == 2
        assert "the distance between 'a' and 'b' is not finite" in result.output


def test_distances_above_half_the_largest_float_stay_finite(runner, tmp_path):
    # averaging with the transpose once overflowed these to inf
    matrix = tmp_path / "m.csv"
    matrix.write_text("label,a,b\na,0,1e308\nb,1e308,0\n")
    result = runner.invoke(main, ["sieve", "--method", "sl", str(matrix)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["breakpoints"] == [0.0, 1e308]
    result = runner.invoke(main, ["cluster", "--method", "sl", "--delta", "1e308", str(matrix)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["clusters"] == [["a", "b"]]
    cloud = tmp_path / "c.csv"
    cloud.write_text("a,0\nb,1.5e308\n")
    result = runner.invoke(main, ["cluster", "--method", "sl", "--delta", "1.5e308", str(cloud)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["clusters"] == [["a", "b"]]


def test_points_whose_distance_overflows_print_only_the_error(tmp_path):
    # 128 points take the numpy path, whose row blocks overflow
    p = tmp_path / "far.csv"
    coords = [1e308, -1e308] + [float(i) for i in range(126)]
    p.write_text("".join(f"p{i:03d},{c!r}\n" for i, c in enumerate(coords)))
    proc = _cli(False, "cluster", "--method", "ml", "--delta", "1", str(p), stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out) == (2, b"")
    assert err == f"Error: {p}: the distance between 'p000' and 'p001' is not finite\n".encode()


def test_flagify_command(runner, tmp_path):
    cover = tmp_path / "cover.json"
    cover.write_text(
        json.dumps({"base": ["a", "b", "c"], "clusters": [["a", "b"], ["b", "c"], ["a", "c"]]})
    )
    result = runner.invoke(main, ["flagify", str(cover)])
    assert result.exit_code == 0
    assert json.loads(result.output)["clusters"] == [["a", "b", "c"]]


def test_flagify_rejects_cover_json_off_schema(runner, tmp_path):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"base": "ab", "clusters": "ab"}))
    result = runner.invoke(main, ["flagify", str(cover)])
    assert result.exit_code == 2
    assert "'base' must be a list of strings" in result.output


def test_refines_command(runner, tmp_path):
    fine = tmp_path / "fine.json"
    coarse = tmp_path / "coarse.json"
    fine.write_text(json.dumps({"base": ["a", "b"], "clusters": [["a"], ["b"]]}))
    coarse.write_text(json.dumps({"base": ["a", "b"], "clusters": [["a", "b"]]}))
    result = runner.invoke(main, ["refines", str(fine), str(coarse)])
    assert result.exit_code == 0 and result.output.strip() == "true"
    result = runner.invoke(main, ["refines", str(coarse), str(fine)])
    assert result.exit_code == 0 and result.output.strip() == "false"


def test_param_probe_value_and_trivial(runner):
    result = runner.invoke(main, ["param-probe", "--method", "sl", "--delta", "1"])
    assert result.exit_code == 0 and result.output.strip() == "1.0"
    result = runner.invoke(main, ["param-probe", "--method", "ml", "--delta", "2.5"])
    assert result.exit_code == 0 and result.output.strip() == "2.5"
    result = runner.invoke(
        main, ["param-probe", "--method", "el", "--k", "2", "--delta", "1"]
    )
    assert result.exit_code == 0 and result.output.startswith("trivial:")


def test_verify_functoriality_clean_family(runner):
    result = runner.invoke(
        main,
        ["verify", "functoriality", "--method", "sl", "--delta", "1",
         "--trials", "10"],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["violations"] == [] and report["trials"] == 10


def test_verify_functoriality_seed_envvar(runner):
    args = [
        "verify", "functoriality", "--method", "ml", "--delta", "1",
        "--trials", "8",
    ]
    by_flag = runner.invoke(main, args + ["--seed", "99"])
    by_env = runner.invoke(main, args, env={"SIEVECLUSTER_SEED": "99"})
    assert by_flag.exit_code == by_env.exit_code == 0
    assert by_flag.output == by_env.output
    assert json.loads(by_flag.output)["seed"] == 99


def test_verify_sandwich(runner):
    result = runner.invoke(
        main,
        ["verify", "sandwich", "--method", "vl", "--k", "2", "--delta", "1",
         "--trials", "15"],
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["extra"]["delta_f"] == 1.0


def test_verify_sandwich_rejects_trivial_method(runner):
    result = runner.invoke(
        main,
        ["verify", "sandwich", "--method", "el", "--k", "2", "--delta", "1"],
    )
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["counterexample", "--method", "ml", "--delta", "inf", "--max-points", "3"],
        ["counterexample", "--method", "vl", "--k", "2", "--delta", "inf", "--max-points", "3"],
        ["counterexample", "--method", "ml", "--delta", "nan", "--max-points", "3"],
        ["functoriality", "--method", "ml", "--delta", "inf", "--trials", "2"],
        ["functoriality", "--method", "ml", "--delta", "nan", "--trials", "2"],
        ["sandwich", "--method", "vl", "--k", "2", "--delta", "inf", "--trials", "2"],
        ["sandwich", "--method", "vl", "--k", "2", "--delta", "nan", "--trials", "2"],
    ],
    ids=lambda args: f"{args[0]}-{args[2]}-{args[args.index('--delta') + 1]}",
)
def test_verify_refuses_non_finite_delta(runner, args):
    result = runner.invoke(main, ["verify", *args])
    assert result.exit_code == 2, result.output
    assert "Infinity" not in result.output and "NaN" not in result.output


@pytest.mark.parametrize(
    "delta, message",
    [
        ("inf", "2 * delta, which must be finite, got delta = inf"),
        ("1e308", "2 * delta, which must be finite, got delta = 1e+308"),
        ("-inf", "delta must be nonnegative, got -inf"),
        ("nan", "delta must be nonnegative, got nan"),
    ],
)
def test_param_probe_refuses_non_finite_delta(runner, delta, message):
    # once 2 * delta overflowed, the probe's path space had inf * 0 on its
    # diagonal: numpy warned, and the command printed a made-up scale or a
    # "trivial" diagnosis
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, ["param-probe", "--method", "sl", "--delta", delta])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("Error: ") and result.output.endswith(f"{message}\n")


def test_cluster_accepts_infinite_delta(runner, tmp_path):
    # the cover JSON holds labels only, so an infinite scale is fine here
    result = runner.invoke(
        main, ["cluster", "--method", "ml", "--delta", "inf", _x3(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["clusters"] == [["a", "b", "c"]]


def test_verify_counterexample_polarity(runner):
    found = runner.invoke(
        main,
        ["verify", "counterexample", "--method", "vl", "--k", "2", "--delta", "1"],
    )
    assert found.exit_code == 0, found.output
    report = json.loads(found.output)
    assert report["extra"]["found"] is True
    assert report["violations"][0]["points"] <= 4

    clean = runner.invoke(
        main,
        ["verify", "counterexample", "--method", "sl", "--delta", "1",
         "--max-points", "4"],
    )
    assert clean.exit_code == 0, clean.output
    assert json.loads(clean.output)["extra"]["found"] is False

    overridden = runner.invoke(
        main,
        ["verify", "counterexample", "--method", "vl", "--k", "2", "--delta", "1",
         "--expect", "notfound"],
    )
    assert overridden.exit_code == 1


def test_verify_counterexample_not_found_reports_candidates_tried(runner):
    # 4 * 4 + 11 * 13 + 34 * 35 candidates over 3, 4 and 5 points: orbit
    # representatives times collapse patterns, not the 10**6 budget
    result = runner.invoke(
        main,
        ["verify", "counterexample", "--method", "ml", "--delta", "1.0",
         "--max-points", "5"],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["extra"] == {"found": False, "max_points": 5, "budget": 10**6}
    assert report["trials"] == 1349

    capped = runner.invoke(
        main,
        ["verify", "counterexample", "--method", "ml", "--delta", "1.0",
         "--max-points", "5", "--budget", "100"],
    )
    assert capped.exit_code == 0, capped.output
    assert json.loads(capped.output)["trials"] == 100


def _write_700(path, fill, bad):
    """A labeled 700-point matrix CSV of ``fill`` with symmetric ``bad``
    entries."""
    n = 700
    rows = [["label"] + [f"p{j:03d}" for j in range(n)]]
    for i in range(n):
        row = ["0" if i == j else fill for j in range(n)]
        for (a, b), v in bad.items():
            if i in (a, b):
                row[a + b - i] = v
        rows.append([f"p{i:03d}"] + row)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    return str(path)


def test_sampled_triangle_check_exits_two(runner, tmp_path):
    # 700 points: the check must stay exact at this size, since a sample of
    # triples would likely miss a lone bad triple such as (3, 7, 5)
    for name, fill, bad in [
        ("bad700.csv", "1", {(0, 1): "2.5"}),
        ("lone700.csv", "2", {(3, 7): "1", (7, 5): "1", (3, 5): "2.5"}),
    ]:
        path = _write_700(tmp_path / name, fill, bad)
        result = runner.invoke(
            main, ["cluster", "--method", "sl", "--delta", "1", path]
        )
        assert result.exit_code == 2, result.output
        assert "triangle" in result.output


def test_export_dot_closure_levels(runner, tmp_path):
    plain = runner.invoke(main, ["export-dot", "--delta", "1", _c4(tmp_path)])
    closed = runner.invoke(
        main, ["export-dot", "--delta", "1", "--bkstar", "2", _c4(tmp_path)]
    )
    assert plain.exit_code == 0 and closed.exit_code == 0
    assert plain.output.count(" -- ") == 4
    assert closed.output.count(" -- ") == 6  # the relaxed closure completes it
    both = runner.invoke(
        main,
        ["export-dot", "--delta", "1", "--bk", "2", "--bkstar", "2", _c4(tmp_path)],
    )
    assert both.exit_code == 2


@pytest.mark.parametrize("flag", ["--bk", "--bkstar"])
def test_export_dot_level_error_names_its_flag(runner, tmp_path, flag):
    result = runner.invoke(main, ["export-dot", "--delta", "0.3", flag, "2.5", _c4(tmp_path)])
    assert result.exit_code == 2
    assert f"Error: {flag} must be a positive integer or 'inf', got '2.5'" in result.output
    result = runner.invoke(
        main, ["cluster", "--method", "vl", "--delta", "1", "--k", "2.5", _c4(tmp_path)]
    )
    assert result.exit_code == 2
    assert "Error: --k must be a positive integer" in result.output


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def test_version_flag_without_package_metadata(runner, monkeypatch):
    """--version must not depend on installed distribution metadata, so it
    works from a source checkout run through PYTHONPATH."""

    def _absent(lookup):
        def patched(name, *args, **kwargs):
            if name == "sievecluster":
                raise importlib.metadata.PackageNotFoundError(name)
            return lookup(name, *args, **kwargs)

        return patched

    for attr in ("version", "distribution"):
        original = getattr(importlib.metadata, attr)
        monkeypatch.setattr(importlib.metadata, attr, _absent(original))
    # A fresh module, so that no version found by an earlier invocation
    # is reused.
    fresh = importlib.reload(sievecluster.cli)
    result = runner.invoke(fresh.main, ["--version"])
    assert result.exit_code == 0, result.output
    assert sievecluster.__version__ in result.output
