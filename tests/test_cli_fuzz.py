"""Malformed and odd inputs through the command line, in process: every
command ends in exit 0, 1 or 2 and never in an uncaught exception.

Each input starts valid (a small metric, as a CSV matrix, a CSV point
cloud or a space JSON, or a cover JSON on its base) and is then perhaps
broken: ragged rows, blank and non-numeric cells, nan, inf, 1e308 and -0,
header-only files and duplicate labels in CSV; wrong types, bases that do
not match and deep nesting in JSON.
"""

import itertools
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from sievecluster.cli import main

from conftest import CliRunner

ODD_CELLS = ["-1", "-0", "nan", "inf", "-inf", "1e308", "-1e308", "", " ", "x"]
ODD_LABELS = ["p0", "label", " ", ""]
ODD_NUMBERS = [-1, -0.0, 1e308, float("inf"), float("nan")]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats() | st.sampled_from(ODD_LABELS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from("ab"), inner),
    max_leaves=8,
)
# how many things to break in an input: mostly none
breaks = st.sampled_from([0, 0, 0, 1, 2])


def _labels(draw, n):
    names = [f"p{i}" for i in range(n)]
    for _ in range(draw(breaks) if n else 0):
        names[draw(st.integers(0, n - 1))] = draw(st.sampled_from(ODD_LABELS))
    return names


def _metric(draw, n):
    """Distances in [1, 2] off a zero diagonal: always a metric."""
    d = [[0.0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        d[i][j] = d[j][i] = draw(st.sampled_from([1.0, 1.5, 2.0]))
    return d


@st.composite
def csv_texts(draw):
    n = draw(st.integers(0, 6))
    names = _labels(draw, n)
    shape = draw(st.sampled_from(["matrix", "points", "ragged", "header"]))
    if shape == "matrix":
        rows = [["label", *names]]
        rows += [[name, *map(repr, row)] for name, row in zip(names, _metric(draw, n))]
    else:
        width = draw(st.integers(1, 3))
        rows = [["label", *(f"x{i}" for i in range(width))]]
        coords = st.sampled_from(["0", "1", "2", "0.25"])
        for name in names if shape != "header" else []:
            w = draw(st.integers(0, 4)) if shape == "ragged" else width
            rows.append([name, *(draw(coords) for _ in range(w))])
    for _ in range(draw(breaks) if len(rows) > 1 else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS))
    if len(rows) > 1 and draw(st.integers(0, 3)) == 0:
        rows.pop(draw(st.integers(1, len(rows) - 1)))
    return "\n".join(",".join(row) for row in rows) + "\n"


def _nested(draw, key):
    """JSON text of an object whose ``key`` is a list nested 50 or 3,000
    deep, deeper than json.dumps writes."""
    depth = draw(st.sampled_from([50, 3000]))
    return '{"points": ["a"], "base": ["a"], "%s": %s}' % (key, "[" * depth + "]" * depth)


@st.composite
def space_jsons(draw):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return _nested(draw, "distances")
    if kind == 1:
        return json.dumps(draw(json_values))
    n = draw(st.integers(0, 4))
    doc = {"points": _labels(draw, n), "distances": _metric(draw, n)}
    for _ in range(draw(breaks) if n else 0):
        rows = doc["distances"]
        i = draw(st.integers(0, n - 1))
        if isinstance(rows[i], list) and rows[i] and draw(st.booleans()):
            j = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = draw(st.sampled_from(ODD_NUMBERS) | json_values)
        else:
            rows[i] = draw(json_values)
    if draw(st.integers(0, 9)) == 0:
        doc[draw(st.sampled_from(["points", "distances"]))] = draw(json_values)
    return json.dumps(doc)


@st.composite
def cover_jsons(draw):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return _nested(draw, "clusters")
    if kind == 1:
        return json.dumps(draw(json_values))
    n = draw(st.sampled_from([3, 3, 0, 1, 4]))  # two covers often share a base
    base = [f"p{i}" for i in range(n)]
    blocks = draw(st.lists(st.sets(st.sampled_from(base), min_size=1), max_size=4)) if n else []
    covered = set().union(*blocks)
    clusters = [sorted(b) for b in blocks] + [[v] for v in base if v not in covered]
    for _ in range(draw(breaks)):  # perhaps empty, repeating or off the base
        clusters.append(draw(st.lists(st.sampled_from(base + ["z"]), max_size=3)))
    doc = {"base": _labels(draw, n), "clusters": clusters}
    if draw(st.integers(0, 9)) == 0:
        doc[draw(st.sampled_from(["base", "clusters"]))] = draw(json_values)
    return json.dumps(doc)


SPACE_COMMANDS = [
    ["cluster", "--method", "sl", "--delta", "1"],
    ["cluster", "--method", "ml", "--delta", "1.5"],
    ["cluster", "--method", "vl", "--k", "3", "--delta", "1.5"],
    ["cluster", "--method", "l", "--k", "2", "--K", "2", "--delta", "1"],
    ["sieve", "--method", "sl"],
    ["sieve", "--method", "ml"],
    ["export-dot", "--bk", "2", "--delta", "1.5"],
]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _ends_cleanly(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, result.exception
    )
    return result


# Python's and numpy's own words for a value of the wrong type or shape
FOREIGN_WORDS = ["could not convert", "inhomogeneous", "argument must be", "NoneType"]


@settings(max_examples=200)
@given(csv_texts(), st.sampled_from(SPACE_COMMANDS))
def test_space_commands_end_cleanly_on_any_csv(work, text, command):
    path = work / "space.csv"
    path.write_text(text)
    _ends_cleanly([*command, str(path)])


@settings(max_examples=120)
@given(space_jsons(), st.sampled_from(SPACE_COMMANDS))
def test_space_commands_end_cleanly_on_any_space_json(work, text, command):
    path = work / "space.json"
    path.write_text(text)
    result = _ends_cleanly([*command, str(path)])
    if result.exit_code == 2:
        assert not [w for w in FOREIGN_WORDS if w in result.output], result.output


@settings(max_examples=100)
@given(cover_jsons(), cover_jsons(), st.booleans())
@example("null", "null", True)
def test_cover_commands_end_cleanly_on_any_cover_json(work, fine, coarse, flagify):
    paths = [work / "fine.json", work / "coarse.json"]
    for path, text in zip(paths, (fine, coarse)):
        path.write_text(text)
    if flagify:
        result = _ends_cleanly(["flagify", str(paths[0])])
    else:
        result = _ends_cleanly(["refines", *map(str, paths)])
    if result.exit_code == 2:
        assert not [w for w in FOREIGN_WORDS if w in result.output], result.output
