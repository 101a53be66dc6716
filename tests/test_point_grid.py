"""Threshold masks of large point clouds from a cell grid of the coordinates.

From ``metric._NUMPY_MIN_POINTS`` points, a cloud of one to seven
coordinates keeps its coordinates and builds its distance matrix only when
something reads it; until then ``_adjacency`` compares only the pairs in
neighbouring cells of a grid. These tests check the grid"s masks against
the threshold of the built matrix, pin the CLI bytes of every family on
such clouds (digests recorded before the grid existed), and bound the
memory of a large evaluation.
"""

import hashlib
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from sievecluster import MethodSpec, evaluate_method, ingest_space, space_from_points
from sievecluster import metric
from sievecluster.cli import main

from conftest import CliRunner

NORMS = ("euclidean", "manhattan", "chebyshev")
PYTHON = 10**9  # a _NUMPY_MIN_POINTS no input reaches: every space is built eagerly


def _grid_side(bound: float) -> float:
    """The cell side metric._Cloud.adjacency takes for a bound."""
    return bound * (1.0 + 2.0**-20) + 2.0**-499


def _check_grid(points, norm, labels, bounds, expect_grid=()):
    """The masks of a space kept as coordinates, for each bound in turn,
    equal those of its built buffer; the grid answers every bound in
    ``expect_grid``; and the built space equals, with the same hash, one
    built eagerly from the same points."""
    x = space_from_points(points, norm, labels=labels)
    assert x._buf is None
    cloud = x._cloud
    grid = [cloud.adjacency(b) for b in bounds]
    answers = [x._adjacency(b) for b in bounds]  # a bound the grid declines builds the buffer
    flat = x._flat
    for b, by_grid, got in zip(bounds, grid, answers):
        want = metric._adjacency_at_most(flat, x.n, b)
        assert got == want, b
        assert by_grid in (None, want), b
        assert by_grid is not None or b not in expect_grid, b
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "_NUMPY_MIN_POINTS", PYTHON)
        eager = space_from_points(points, norm, labels=labels)
    assert x == eager and hash(x) == hash(eager)
    assert x.labels == eager.labels and flat.tobytes() == eager._flat.tobytes()


_SPECIAL_BOUNDS = [0.0, 5e-324, 1e-300, math.inf, math.nan, -1.0]


@st.composite
def grid_cases(draw):
    """Points in 1 to 7 coordinates on a lattice of step ``unit``, whose
    multiples sit on cell borders when the bound is ``unit`` (some moved
    off it, some repeated), shifted by a large offset; and bounds: the
    exact distances, the lattice step and its neighbours, and extremes."""
    n = draw(st.integers(8, 40))
    dim = draw(st.integers(1, 7))
    unit = draw(st.sampled_from([1.0, 0.5, 0.3, 1e-3, 7.0]))
    step = draw(st.sampled_from([unit, _grid_side(unit)]))
    offsets = draw(st.lists(st.sampled_from([0.0, -3.0, 1e9, -1e9, 1e15]), min_size=dim,
                            max_size=dim))
    coords = st.lists(
        st.integers(-4, 4).map(float) | st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
        min_size=dim,
        max_size=dim,
    )
    points = []
    for _ in range(n):
        if points and draw(st.integers(0, 5)) == 0:
            points.append(list(draw(st.sampled_from(points))))  # a duplicate
        else:
            points.append([c * step + o for c, o in zip(draw(coords), offsets)])
    norm = draw(st.sampled_from(NORMS))
    labels = draw(st.permutations([f"p{i:02d}" for i in range(n)]))
    exact = sorted(set(space_from_points(points, norm)._flat))
    near_unit = [unit, math.nextafter(unit, 0.0), math.nextafter(unit, math.inf), 2.0 * unit]
    bound = (
        st.sampled_from(exact)
        | st.sampled_from(near_unit)
        | st.sampled_from(_SPECIAL_BOUNDS)
        | st.floats(0.0, 10.0)
    )
    return points, norm, labels, draw(st.lists(bound, min_size=1, max_size=5))


@given(grid_cases())
@settings(max_examples=200)
def test_grid_masks_equal_the_buffer_threshold(case):
    points, norm, labels, bounds = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "_NUMPY_MIN_POINTS", 8)
        _check_grid(points, norm, labels, bounds)


def _check_distances(x):
    """Each distance of a space kept as coordinates, read one at a time,
    leaves the buffer unbuilt and has the bytes of the buffer's entry."""
    assert x._buf is None
    got = [x.distance(a, b).hex() for a in x.labels for b in x.labels]
    assert x._buf is None
    assert got == [v.hex() for v in x._flat]


@pytest.mark.parametrize("norm", NORMS)
@given(case=grid_cases())
def test_distance_of_an_unbuilt_cloud_is_the_buffer_entry(norm, case):
    points, _, labels, _ = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "_NUMPY_MIN_POINTS", 8)
        x = space_from_points(points, norm, labels=labels)
    _check_distances(x)


def _check_diameter(x):
    """The diameter and repr of a space kept as coordinates leave the
    buffer unbuilt, and the diameter has the bytes of the buffer's
    maximum."""
    assert x._buf is None
    got = x.diameter()
    text = repr(x)
    assert x._buf is None
    assert got.hex() == max(x._flat).hex()
    assert text == repr(x)


@given(case=grid_cases(), tile_entries=st.sampled_from([None, 1, 50]))
def test_diameter_of_an_unbuilt_cloud_is_the_buffer_maximum(case, tile_entries):
    # in the default blocks (one here), one row a block, and a few rows
    points, norm, labels, _ = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "_NUMPY_MIN_POINTS", 8)
        if tile_entries is not None:
            mp.setattr(metric, "_TILE_ENTRIES", tile_entries)
        _check_diameter(space_from_points(points, norm, labels=labels))


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("dim", [1, 2, 3, 7])
def test_grid_masks_at_the_real_threshold(norm, dim):
    # 128 to 400 points under the real constant: lattice points with
    # jittered copies, bounds at tied distances and between them
    rng = random.Random(dim)
    for n in (128, 400):
        points = [[float(rng.randint(-6, 6)) for _ in range(dim)] for _ in range(n // 2)]
        points += [[c + rng.choice((0.0, 0.25, 1e-9)) for c in p] for p in points]
        labels = [f"q{i:03d}" for i in range(n)]
        rng.shuffle(labels)
        bounds = [1.0, 1.25, 1.5, 2.0, 0.25, 1e-6, 5e-324, math.inf]
        _check_grid(points, norm, labels, bounds, expect_grid=bounds[:6])


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("unit", [1.0, 0.1, 3.7])
def test_grid_finds_ties_far_from_the_lowest_cell(norm, unit):
    # neighbours one unit apart, about 2**20 and 2**26 cells above the
    # lowest point: a cell side short of the bound by 2**-20 of itself
    # would put some tied pairs two cells apart
    ks = [0] + [k for base in (2**20, 2**26) for k in range(base - 64, base + 64)]
    points = [[k * unit, 0.0] for k in ks]
    labels = [f"q{i:03d}" for i in range(len(ks))]
    bounds = [unit, math.nextafter(unit, math.inf), 1.5 * unit]
    _check_grid(points, norm, labels, bounds, expect_grid=bounds)


def test_grid_declines_what_it_cannot_index_or_costs_more():
    # a bound of 0, inf or NaN, and more than 2**28 cells along a coordinate
    rows = [[0.0, float(i)] for i in range(200)]
    x = space_from_points(rows)
    for bound in (0.0, -0.0, math.inf, math.nan, -1.0, 1e-300, 200.0 / 2.0**28 * 0.5):
        assert x._cloud.adjacency(bound) is None
    assert x._cloud.adjacency(200.0 / 2.0**28 * 1.01) is not None
    far = space_from_points([[1e308], [-1e308]] + [[float(i)] for i in range(200)])
    assert far._cloud.adjacency(1.0) is None  # its extent is inf
    # a bound that would have the grid compare most pairs of a large cloud
    line = space_from_points([[i / 1000.0] for i in range(1000)])
    assert line._cloud.adjacency(0.5) is None
    assert line._cloud.adjacency(0.05) is not None


def test_a_large_cloud_evaluates_in_less_than_one_matrix(tmp_path):
    # sl on 2,000 points reads only the threshold masks: no 32 MB buffer
    n = 2000
    rng = random.Random(0)
    path = tmp_path / "cloud.csv"
    lines = ["label,x,y"] + [f"q{i:04d},{rng.random()!r},{rng.random()!r}" for i in range(n)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        x = ingest_space(path)
        cover = evaluate_method(x, MethodSpec("sl", 0.02))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x._buf is None and len(cover.blocks) > 1
    assert peak < n * n * 8 / 4

# -- CLI bytes on point clouds, recorded before the grid --------------------


def _cloud_text(n: int, dim: int) -> str:
    """n labeled points in dim coordinates: clumps of six, 5 apart along the
    first coordinate (negative ones first), each point moved by 0, 0.3, 0.5,
    1 or 1.5 along each coordinate. The moves repeat, so many distances
    tie with the scale 1 and some points coincide."""
    rng = random.Random(1000 * n + dim)
    lines = ["label," + ",".join(f"x{k}" for k in range(dim))]
    for i in range(n):
        row = [5.0 * (i // 6) - 2.5 * (n // 6)] + [0.0] * (dim - 1)
        row = [v + rng.choice((0.0, 0.5, 1.0, 1.5, 0.3)) for v in row]
        lines.append(f"q{i:03d}," + ",".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def _far_text(norm: str) -> str:
    """128 points in 3 coordinates: one far out on each axis, the rest near
    the origin. Every distance is finite, but the norm of the coordinates"
    extents is not."""
    far = 1.2e308 if norm == "euclidean" else 0.6e308
    rows = [[far if k == a else 0.0 for k in range(3)] for a in range(3)]
    rows += [[0.25 * (i % 5), 0.5 * (i % 3), 0.0] for i in range(125)]
    lines = ["label,x,y,z"] + [f"f{i:03d}," + ",".join(map(repr, r)) for i, r in enumerate(rows)]
    return "\n".join(lines) + "\n"


# the families read only the threshold relation, then those that read every
# distance: l with a finite budget and generated, on the 128-point clouds only
_METHODS = [
    ["sl"], ["ml"], ["l", "--k", "2"], ["vl", "--k", "2"], ["el", "--k", "2"],
    ["bk", "--k", "2"], ["bkstar", "--k", "2"],
]
_DENSE_METHODS = [["l", "--k", "2", "--K", "1.5"], ["generated", "--test-space", "{test}"]]


def _cluster_digest(tmp_path, text: str, norm: str, methods, deltas=("1",)) -> str:
    """sha256 over the stdout and the --emit-dot bytes of ``cluster`` for
    each method and delta in turn, each of which must exit 0."""
    cloud, test, dot = tmp_path / "cloud.csv", tmp_path / "test.csv", tmp_path / "g.dot"
    cloud.write_text(text, encoding="utf-8")
    test.write_text("label,a,b\na,0,0.75\nb,0.75,0\n", encoding="utf-8")
    runner = CliRunner()
    h = hashlib.sha256()
    for method in methods:
        family, *opts = (a.format(test=test) for a in method)
        for delta in deltas:
            args = ["cluster", "--method", family, *opts, "--norm", norm, str(cloud)]
            if family != "generated":
                args[-1:-1] = ["--delta", delta, "--emit-dot", str(dot)]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            h.update(result.stdout_bytes)
            if family != "generated":
                h.update(dot.read_bytes())
    return h.hexdigest()


CLOUD_GOLDEN = {
    (128, "euclidean", 1): "a53eaafeb21e11cf29678dfa88701012cfc4d648beb2ac20eea4a56be5103a5d",
    (128, "euclidean", 3): "0eb7df33df9705d3b5318d27a76b91d2e5ee825eca5112e55b63acbc29d3ca05",
    (128, "euclidean", 7): "3bb5369cf6cf985ea9265012167313a08864588c4f848aa71d235220555e6cc6",
    (128, "manhattan", 1): "a53eaafeb21e11cf29678dfa88701012cfc4d648beb2ac20eea4a56be5103a5d",
    (128, "manhattan", 3): "166c27b040aaf65993825461a3a2fa0e78a9f98f9c366f17077aa7b6c11cba38",
    (128, "manhattan", 7): "38d4c78fe5e4881e9124642cddd2209ce48e83b8ec1d15ff5e9f5760847d5092",
    (128, "chebyshev", 1): "a53eaafeb21e11cf29678dfa88701012cfc4d648beb2ac20eea4a56be5103a5d",
    (128, "chebyshev", 3): "74a96b196d5f21254cc4e621f22a21ba6c5757e41aca625951fc82d6b469ddc0",
    (128, "chebyshev", 7): "a63dc6b02b466da26c1c5f6d4e2f13045529011fecb6811c58ff4022a1235b67",
    (900, "euclidean", 1): "53dec19a19bb82eb7f99d75cc1df9a6f222c41052f682b0c572e6c28608ae2cd",
    (900, "euclidean", 3): "da850ae6b99f60e478ccf36472309649e811bbbc8a657e165d8213ac45e3e1b5",
    (900, "euclidean", 7): "0c3a1bbfb0a9ecd21a4d7de227dbc0d86535012b28faf554c053aa0472674c50",
    (900, "manhattan", 1): "53dec19a19bb82eb7f99d75cc1df9a6f222c41052f682b0c572e6c28608ae2cd",
    (900, "manhattan", 3): "87c79444973459a3e13eacc9fe1eceb5cf76ba85229c4a3e81f7f31905cfde21",
    (900, "manhattan", 7): "689ae31daef54db8c989cdd64f7b97f7dc66aa8f6b893a47dfcccb03e024cf0e",
    (900, "chebyshev", 1): "53dec19a19bb82eb7f99d75cc1df9a6f222c41052f682b0c572e6c28608ae2cd",
    (900, "chebyshev", 3): "2c83e17f49fd5ecd28274fad9da0f794bd6dfc45ea82ecadcbaf5ab3e17937e6",
    (900, "chebyshev", 7): "1e88f648ea98de3c317529e76223cee86f4d26d8f9b0ba8cef06cd786626249e",
}


@pytest.mark.parametrize("key", sorted(CLOUD_GOLDEN))
def test_cluster_bytes_on_clouds(tmp_path, key):
    n, norm, dim = key
    methods = _METHODS + (_DENSE_METHODS if n == 128 else [])
    assert _cluster_digest(tmp_path, _cloud_text(n, dim), norm, methods) == CLOUD_GOLDEN[key]


@pytest.mark.parametrize("norm", NORMS)
def test_distance_of_an_unbuilt_cloud_when_squares_overflow(norm):
    rows = [[float(v) for v in line.split(",")[1:]] for line in _far_text(norm).splitlines()[1:]]
    _check_distances(space_from_points(rows, norm))


@pytest.mark.parametrize("norm", NORMS)
def test_diameter_of_an_unbuilt_cloud_when_squares_overflow(norm):
    rows = [[float(v) for v in line.split(",")[1:]] for line in _far_text(norm).splitlines()[1:]]
    _check_diameter(space_from_points(rows, norm))


FAR_GOLDEN = {
    "euclidean": "1ccc118ac1d57f35313ddedc32ccb3ca13569fa1c024f3c4afea548418610ab7",
    "manhattan": "fb15b7d5cc74ae69bd92bca9267fd16248ca88a0f7c45e8e8342b7cb8391377c",
}


@pytest.mark.parametrize("norm", sorted(FAR_GOLDEN))
def test_cluster_bytes_when_the_extents_overflow(tmp_path, norm):
    assert _cluster_digest(tmp_path, _far_text(norm), norm, _METHODS[:2]) == FAR_GOLDEN[norm]


TINY_GOLDEN = "f69eaa654730973529b22dbcc4685e592e41f07145874c175e8336f7325b79b3"


def test_cluster_bytes_at_tiny_scales(tmp_path):
    # at 0 and below the smallest cell a float can index, every pair is read
    # from the distance matrix
    deltas = ("0", "5e-324", "1e-300")
    got = _cluster_digest(tmp_path, _cloud_text(128, 2), "euclidean", _METHODS, deltas)
    assert got == TINY_GOLDEN
