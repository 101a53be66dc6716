"""Golden outputs: sha256 digests of canonical JSON for seeded results.

The digests were recorded before the shared kernels (graph metrization,
quotients, assignment enumeration, bridges, the min-plus product) were
merged into one implementation each; the sieve digests, before every
threshold family was swept through one builder; the flat cover digests,
before every family was evaluated as the maximal cliques of one relation.
Any change to an enumeration order, a random pick or a float in these
outputs changes a digest, so a rewrite behind the public names that
alters bytes fails here even when every structural test holds.
"""

import hashlib

import pytest

from sievecluster import (
    FiniteMetricSpace,
    MethodSpec,
    build_sieve,
    check_functoriality,
    cover_metric,
    evaluate_method,
    find_counterexample,
    generated_cluster,
    path_space,
    random_flag_cover,
    random_map,
    random_metric,
    random_morphism,
)
from sievecluster.fileio import canonical_json_bytes
from sievecluster.rng import SplitMix64, derive_seed
from sievecluster.verify import METRIC_MODES


def _digest(obj) -> str:
    return hashlib.sha256(canonical_json_bytes(obj)).hexdigest()


def _witness(family):
    return find_counterexample(
        MethodSpec(family=family, delta=1.0, k=2), max_points=5
    )


def _random_map_picks():
    # a 3-point path into a 4-point path admits many non-expansive maps,
    # and several injective ones, so every pick depends on the order in
    # which the valid assignments are enumerated
    x = path_space(2, 1.0)
    y = path_space(3, 1.0)
    picks = []
    for injective in (False, True):
        for seed in range(8):
            f = random_map(x, y, seed, require_injective=injective)
            picks.append(dict(f.assignment))
    return picks


def _generated():
    x = random_metric(6, 11, "euclidean-points")
    test = FiniteMetricSpace(
        ["t0", "t1", "t2"], [[0.0, 0.35, 0.6], [0.35, 0.0, 0.45], [0.6, 0.45, 0.0]]
    )
    return generated_cluster(x, [test]).to_dict()


def _functoriality():
    report = check_functoriality(MethodSpec(family="ml", delta=0.3), 50, "met", seed=0)
    return report.to_dict()


def _functoriality_l():
    # the l family with a finite budget K runs the min-plus step relation
    spec = MethodSpec(family="l", delta=0.3, k=2, budget=1.5)
    return check_functoriality(spec, 50, "met", seed=0).to_dict()


def _morphisms():
    # pins the blockwise-minimum quotient of random_morphism's collapse stage
    out = []
    for t in range(40):
        x = random_metric(3 + t % 5, derive_seed(9, t), METRIC_MODES[t % 3])
        y, f = random_morphism(x, SplitMix64(derive_seed(10, t)), "met")
        out.append({"y": y.to_dict(), "assignment": f.assignment})
    return out


def _cover_metric():
    return cover_metric(random_flag_cover(7, 3), 0.5).to_dict()


def _sieve(spec):
    return build_sieve(random_metric(20, 2013), spec).to_dict()


SIEVE_GOLDEN = {
    "sieve-sl": (MethodSpec("sl"), "6af76fe57d2c701741b153cfd931df70b1762b24d8e7b02e40a9e7a2404fa646"),
    "sieve-ml": (MethodSpec("ml"), "cd6071821c4bd600655d56818af467680dca6bd3d639e59ec531dd9c79578a4e"),
    "sieve-l2-budget": (
        MethodSpec("l", k=2, budget=1.5),
        "96e6767ee4846f5da3da2a2033571af925f85a33f8a1230621cd07101380bfb9",
    ),
    "sieve-vl2": (MethodSpec("vl", k=2), "02aab4599277244ebc3621bcfe27d29eab5c55b6a23c74c877a2e8f0b9b339d8"),
    "sieve-el3": (MethodSpec("el", k=3), "545c3ce0946a8a981e4d6433b3b5c9ad348c8b59433db58dad043b55d30f9393"),
    "sieve-bk2": (MethodSpec("bk", k=2), "550c0c28844cdbfb26acaa0093ae0bb820141e51e457a4f4d3ec7e862385f737"),
    "sieve-bkstar2": (
        MethodSpec("bkstar", k=2),
        "68565f18a971d25f2c17f5342e851d3b5b4bf9414e3803aa241da9dea0fadfe5",
    ),
}


def _flat(spec):
    # three of the space's distances, so every threshold is met with
    # equality, at scales where the families give different covers
    x = random_metric(20, 2013)
    scales = x.pairwise_distances()
    return [evaluate_method(x, spec.with_delta(scales[i])).to_dict() for i in (10, 20, 40)]


FLAT_GOLDEN = {
    "flat-sl": (
        MethodSpec("sl"),
        "b5912fc73e79376f874b0c801ee2e65c93fd4a768b9a3ae1ddabac504892481d",
    ),
    "flat-ml": (
        MethodSpec("ml"),
        "c7be8bcad4bd76dafb02f8b7f738b94ddeb13bee3aff02d5a474dd0a52efce07",
    ),
    "flat-l2-budget": (
        MethodSpec("l", k=2, budget=1.5),
        "248be861bcfa4b77be43017a22bd61b9c89b5d62ffbb5f4e6ef4bdee55ddc032",
    ),
    "flat-vl2": (
        MethodSpec("vl", k=2),
        "04d832cc1e3c174065fec141b8e636cf055f9662829d24a23b59f0a431db5d3c",
    ),
    "flat-vl3": (
        MethodSpec("vl", k=3),
        "00f00eb11c3af07635534376084a0c0076702ac19275c2ec2df6e09a5512dc7f",
    ),
    "flat-el3": (
        MethodSpec("el", k=3),
        "4b2f0a9e937ef2cec3109bba7da880f081e3081122efadc1a024c27904cc1361",
    ),
    "flat-el3-clique-exception": (
        MethodSpec("el", k=3, clique_exception=True),
        "00f00eb11c3af07635534376084a0c0076702ac19275c2ec2df6e09a5512dc7f",
    ),
    "flat-bk2": (
        MethodSpec("bk", k=2),
        "04d832cc1e3c174065fec141b8e636cf055f9662829d24a23b59f0a431db5d3c",
    ),
    "flat-bkstar2": (
        MethodSpec("bkstar", k=2),
        "04d832cc1e3c174065fec141b8e636cf055f9662829d24a23b59f0a431db5d3c",
    ),
}


GOLDEN = {
    **{name: (lambda spec=spec: _sieve(spec), digest) for name, (spec, digest) in SIEVE_GOLDEN.items()},
    **{name: (lambda spec=spec: _flat(spec), digest) for name, (spec, digest) in FLAT_GOLDEN.items()},
    "counterexample-vl2": (
        lambda: _witness("vl"),
        "ee1ad710bf8615f6f768ab24d7de7e0d822b0cd9afc28ce10300ddf764b10a90",
    ),
    "counterexample-el2": (
        lambda: _witness("el"),
        "6a657fd6a39ed159178a9e19a59f2a1c95c597fb07cdc0be499d36bc643b4e89",
    ),
    "random-map-picks": (
        _random_map_picks,
        "28612e9401f8061108cda1f98fa9cc066ae75b3ae784d91d38ed1f0fa739fd92",
    ),
    "generated-cluster": (
        _generated,
        "45f38e752d7bf19a85b283a13765fbe99d14695f2550710447ff1abbf40eafe2",
    ),
    "functoriality-ml-met": (
        _functoriality,
        "8a938c7d0e62838d86a103c989247b0d4323faa7622f4bd3b8e1055b490e33a8",
    ),
    "functoriality-l-budget": (
        _functoriality_l,
        "f3dfe8a43db2bc3ea1aa4296dc949e88614a4d1df3c1533c17b4d6a095ea1da0",
    ),
    "random-morphisms": (
        _morphisms,
        "7ff297b1d21411aae299dc5ee62435ea2bebd870541f388cc8b651940a32b483",
    ),
    "cover-metric": (
        _cover_metric,
        "d82f3dde3a229149ca117925b4062d49645ec746e472bcffd99a73eafd5f1b08",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    build, expected = GOLDEN[name]
    assert _digest(build()) == expected
