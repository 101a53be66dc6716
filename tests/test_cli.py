"""Command-line surface: subcommands, formats, exit codes, determinism."""

import hashlib
import importlib
import importlib.metadata
import json
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

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


def test_a_library_error_no_command_catches_exits_two(runner, tmp_path, monkeypatch):
    # sieve checks the axioms after writing, outside any handler of its
    # own: the one handler in main turns the error into exit 2
    import sievecluster.sieves
    from sievecluster import BaseMismatch

    def boom(s):
        raise BaseMismatch("boom")

    monkeypatch.setattr(sievecluster.sieves, "check_sieve_axioms", boom)
    out = tmp_path / "profile.json"
    result = runner.invoke(main, ["sieve", "--method", "sl", "-o", str(out), _x3(tmp_path)])
    assert (result.exit_code, result.output) == (2, "Error: boom\n")
    assert isinstance(result.exception, SystemExit)


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_text_to_a_full_stdout_is_usage_error():
    # the line of text that param-probe and refines print once died here
    # with a traceback, exit 1
    with open("/dev/full", "wb") as full:
        proc = _cli(False, "param-probe", "--method", "sl", "--delta", "1", stdout=full)
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


@pytest.mark.parametrize(
    "distances",
    [[[0, 1], [1]], [[0, "label"], [1, 0]], None, [[0, {}], [1, 0]], "ab", [[0, True], [True, 0]]],
    ids=["ragged", "string", "null", "object", "text", "booleans"],
)
def test_cluster_rejects_space_json_distances_off_schema(runner, tmp_path, distances):
    # the message is the program's own, not numpy's or Python's words,
    # and booleans are no numbers, as in a sieve JSON's breakpoints
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"points": ["a", "b"], "distances": distances}))
    result = runner.invoke(main, ["cluster", "--method", "sl", "--delta", "1", str(space)])
    assert result.exit_code == 2
    assert result.output == f"Error: {space}: 'distances' must be a list of n lists of n numbers\n"


@pytest.mark.parametrize("points", [[[1], {"a": 2}], [1, 1.0]])
def test_cluster_rejects_space_json_labels_that_are_not_strings(runner, tmp_path, points):
    # str() used to make the labels "[1]" and "{'a': 2}", or "1" and "1.0"
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"points": points, "distances": [[0, 1], [1, 0]]}))
    result = runner.invoke(main, ["cluster", "--method", "sl", "--delta", "1", str(space)])
    assert result.exit_code == 2
    assert result.output == f"Error: {space}: 'points' must be a list of strings\n"


@pytest.mark.parametrize("document", ["null", '"base clusters"', "[1]"])
def test_cover_commands_name_a_cover_json_that_is_no_object(runner, tmp_path, document):
    cover = tmp_path / "cover.json"
    cover.write_text(document)
    for args in (["flagify", str(cover)], ["refines", str(cover), str(cover)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.output == f"Error: {cover}: cover JSON needs 'base' and 'clusters'\n"


def _deeply_nested(depth):
    return "[" * depth + "]" * depth


def test_flagify_on_deeply_nested_json_exits_two(runner, tmp_path):
    cover = tmp_path / "cover.json"
    cover.write_text('{"base": ' + _deeply_nested(3000) + ', "clusters": []}')
    result = runner.invoke(main, ["flagify", str(cover)])
    assert result.exit_code == 2
    assert result.output == f"Error: {cover}: JSON nested too deeply to read\n"


def test_cluster_on_deeply_nested_space_json_exits_two(runner, tmp_path):
    space = tmp_path / "space.json"
    space.write_text('{"points": ["a"], "distances": ' + _deeply_nested(3000) + "}")
    result = runner.invoke(main, ["cluster", "--method", "ml", "--delta", "1", str(space)])
    assert result.exit_code == 2
    assert result.output == f"Error: {space}: JSON nested too deeply to read\n"


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


@pytest.mark.parametrize("check", ["functoriality", "sandwich"])
def test_verify_generated_with_a_test_space(runner, tmp_path, check):
    test = tmp_path / "pair.json"
    test.write_text(json.dumps({"points": ["s", "t"], "distances": [[0, 0.3], [0.3, 0]]}))
    result = runner.invoke(
        main,
        ["verify", check, "--method", "generated", "--test-space", str(test),
         "--trials", "20", "--seed", "7"],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["violations"] == [] and report["trials"] == 20
    assert report["method"]["family"] == "generated"


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


def test_infinite_levels_and_a_lone_bk_flag_exit_zero(runner, tmp_path):
    c4 = _c4(tmp_path)
    result = runner.invoke(main, ["cluster", "--method", "vl", "--k", "inf", "--delta", "1", c4])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["clusters"] == [["a", "b"], ["a", "d"], ["b", "c"], ["c", "d"]]
    result = runner.invoke(
        main, ["cluster", "--method", "l", "--k", "2", "--K", "inf", "--delta", "1", c4]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["clusters"] == [["a", "b", "c", "d"]]
    result = runner.invoke(main, ["export-dot", "--delta", "1", "--bk", "2", c4])
    assert result.exit_code == 0, result.output
    assert result.output.count(" -- ") == 4  # no pair of c4 has a common 2-clique


@pytest.mark.parametrize(
    "args, message",
    [
        (["cluster", "--method", "l", "--k", "2", "--K", "abc", "--delta", "1", "C4"],
         "--K must be a positive real or 'inf', got 'abc'"),
        (["export-dot", "--delta", "-1", "C4"], "--delta must be nonnegative"),
        (["verify", "functoriality", "--method", "ml", "--delta", "1", "--trials", "-1"],
         "--trials must be nonnegative"),
        (["verify", "sandwich", "--method", "vl", "--k", "2", "--delta", "1", "--trials", "-1"],
         "--trials must be nonnegative"),
        (["verify", "counterexample", "--method", "ml", "--delta", "1", "--max-points", "2"],
         "--max-points must be at least 3"),
        (["verify", "counterexample", "--method", "ml", "--delta", "1", "--budget", "0"],
         "--budget must be positive"),
    ],
    ids=["K-abc", "delta-negative", "functoriality-trials", "sandwich-trials", "max-points",
         "budget"],
)
def test_out_of_range_options_exit_two(runner, tmp_path, args, message):
    args = [_c4(tmp_path) if a == "C4" else a for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"Error: {message}" in result.output


def test_counterexample_expected_but_not_found_exits_one(runner):
    result = runner.invoke(
        main,
        ["verify", "counterexample", "--method", "ml", "--delta", "1", "--max-points", "3",
         "--expect", "found"],
    )
    assert result.exit_code == 1
    assert "expected a witness but the search found none" in result.output


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


README = Path(__file__).resolve().parent.parent / "README.md"
# flags the README's command-line section names only in its prose, each on
# a command line that uses it
PROSE_FLAGS = {
    "--clique-exception": ["cluster", "d.csv", "--method", "el", "--k", "2", "--delta", "1",
                           "--clique-exception"],
    "--test-space": ["verify", "functoriality", "--method", "generated", "--test-space", "a.csv",
                     "--test-space", "b.csv"],
}


def _readme_examples() -> tuple[str, list[list[str]]]:
    """The command-line section of the README and the arguments of each
    example command in it."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line") : text.index("### Exit codes")]
    examples = [
        shlex.split(line, comments=True)[1:]
        for line in section.splitlines()
        if line.startswith("sievecluster ")
    ]
    return section, examples


def test_every_readme_flag_parses_on_its_subcommand():
    section, examples = _readme_examples()
    flags = set(re.findall(r"(?<![\w-])(--[A-Za-z][\w-]*|-o)(?![\w-])", section))
    covered = {arg for args in examples for arg in args if arg in flags} | set(PROSE_FLAGS)
    assert len(examples) >= 10 and flags - covered == set()
    parser = sievecluster.cli._parser("sievecluster")
    parsed = [vars(parser.parse_args(args)) for args in [*examples, *PROSE_FLAGS.values()]]
    assert all(callable(p["run"]) for p in parsed)
    assert parsed[-1]["test_paths"] == ["a.csv", "b.csv"]


def test_the_parser_of_one_command_parses_as_the_whole_parser():
    _, examples = _readme_examples()
    full = sievecluster.cli._parser("sievecluster")
    for args in [*examples, *PROSE_FLAGS.values()]:
        path = sievecluster.cli._command_path(args)
        one = sievecluster.cli._parser("sievecluster", path)
        assert path and vars(one.parse_args(args)) == vars(full.parse_args(args)), args
        # every command is registered; the others have only --help
        commands = one._actions[-1].choices
        assert list(commands) == list(full._actions[-1].choices)
        others = [p for name, p in commands.items() if name not in (path.split()[0], "verify")]
        assert len(others) >= 5 and all(len(p._actions) == 1 for p in others)


@pytest.mark.parametrize(
    "args, path",
    [
        ([], ""),
        (["--help"], ""),
        (["bogus", "cluster"], "cluster"),
        (["--version", "sieve", "x.csv"], "sieve"),
        (["cluster", "x.csv", "--method", "ml", "--delta", "1", "-o", "sieve"], "cluster"),
        (["verify"], "verify"),
        (["verify", "--help"], "verify"),
        (["verify", "sandwich", "--method", "functoriality"], "verify sandwich"),
        (["export-dot", "verify"], "export-dot"),
    ],
)
def test_command_path_is_the_first_command_name(args, path):
    assert sievecluster.cli._command_path(args) == path


def test_flag_prefixes_are_refused(runner, tmp_path):
    for args in (["--meth", "ml", "--delta", "1"], ["--method", "ml", "--del", "0.5"]):
        result = runner.invoke(main, ["cluster", *args, _x3(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "Error: " in result.output


def test_a_seed_from_the_environment_that_is_no_integer_is_a_usage_error(runner):
    args = ["verify", "functoriality", "--method", "ml", "--delta", "1", "--trials", "2"]
    result = runner.invoke(main, args, env={"SIEVECLUSTER_SEED": "abc"})
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error: ")]
    assert len(errors) == 1 and "--seed" in errors[0]


@pytest.mark.parametrize("args", [[], ["bogus"], ["verify"], ["verify", "bogus"]])
def test_a_missing_or_unknown_command_is_a_usage_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout_bytes == b"" and "Error: " in result.output


# sha256 of the exit code, stdout and stderr of each invocation at 80
# columns, recorded with Python 3.11; argparse lays help out differently
# in other versions, so the check runs on 3.11 only
CLI_TEXT_PYTHON = (3, 11)
CLI_TEXT = {
    "--help": "adab818e4e570193b3656b2e9eff489e19dd85572a581389c25edcd76f5889b8",
    "--version": "c748cda9a98bbbf1cfbba170fc54ad54b465d012b51b015c266b7a0f0d7eabbf",
    "cluster --help": "eff0499cf72c5906524cc8e24fce2d7bc80e3eceab4695e897ad2c6ec476da3d",
    "sieve --help": "201d99e26d40746fd8739d45d5e5364b18c015a658a2d9c50d583fc5d7d888a9",
    "flagify --help": "fb8eefb86c7af3dd22b1233cdc3081e2c020838f1ac923ac709b100227eabdc4",
    "refines --help": "b8311318eaea161d6272c1fab5df0ac55b60b2c0fcec0be72837ca4b7537edd6",
    "param-probe --help": "8a40e0d250ae4da83fea7edea10ecc186e4f727c66026c2ea9368990f6ae33f4",
    "verify --help": "0027ff0de55e9b52515248d232b822ae457206423db899ab1106482619b7a13b",
    "verify functoriality --help": "1a13c99002f978873c4cfb248dbe8e452d993c99e56296d38bb29f15e8451cdb",
    "verify sandwich --help": "eea03cb05975a5366de469332b08f7ccb1153e7158af67115ac67758a9c9b543",
    "verify counterexample --help": "122141b5fb5825cf1092a499a5f7024b3af411e702c24994b93c660cfa28a0fd",
    "export-dot --help": "abf0e4d7c6319c9f2269b642b6721fcb7d78dfb48f7241aab10779ec891807c1",
    "": "d4a354ec56a87ea61bdb28dc1113b0ac653ae09085e50deb5d9463c0bf75f451",
    "bogus": "ab3a7ddffe68fc4de87cc453d8f60b888b9d796bb5a7669153b9a6e151eaded8",
    "verify": "1f43a5fae07651d5d86903eba6887a2ef8fbb6ca99e1e67f0d86d79591a1fcb3",
    "verify bogus": "565e60fe8a7145ac230f5a730aff3fbdb2840293d15867adb08f8489cfd67ab9",
    "cluster points.csv --method zz": "e71c98cbb7a80d6d8dd7a3425751032c1f85c9a47820d87338a9abaa0c7a661f",
    "cluster points.csv": "7fa9b69ba05f07c9ca5e25fdb75fe55e27090d214abb991f1c4010e5601e0485",
}


@pytest.mark.skipif(
    sys.version_info[:2] != CLI_TEXT_PYTHON, reason="argparse's layout differs by version"
)
@pytest.mark.parametrize("line", list(CLI_TEXT), ids=lambda line: line or "no command")
def test_help_and_usage_text_is_unchanged(runner, line):
    result = runner.invoke(main, line.split(), env={"COLUMNS": "80"})
    stdout = result.stdout_bytes
    stderr = result.output.encode("utf-8")[len(stdout) :]
    text = b"\0".join([str(result.exit_code).encode(), stdout, stderr])
    assert hashlib.sha256(text).hexdigest() == CLI_TEXT[line]
