"""Command-line surface: subcommands, formats, exit codes, determinism."""

import importlib
import importlib.metadata
import json
import time

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
