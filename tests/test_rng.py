"""SplitMix64: the published vectors, and every derived draw pinned.

The first vectors are the published SplitMix64 outputs for seeds 0 and
1234567. The derived draws were recorded before next_u64, uniform and
randint mixed inline and randint kept its rejection limits in a cache.
"""

import pytest

from sievecluster.rng import SplitMix64, derive_seed

SEED = 99


@pytest.mark.parametrize(
    "seed, want",
    [
        (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
        (1234567, [6457827717110365317, 3203168211198807973, 9817491932198370423]),
    ],
)
def test_published_vectors(seed, want):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in want] == want


def test_derived_draws():
    rng = SplitMix64(SEED)
    assert [rng.uniform() for _ in range(3)] == [
        0.2615304715693846,
        0.0316577610861849,
        0.8347597245449443,
    ]
    assert rng.uniform(0.3, 1.2) == 0.3920874566426052
    assert {n: [rng.randint(n) for _ in range(4)] for n in (1, 3, 7, 2**63 + 1)} == {
        1: [0, 0, 0, 0],
        3: [2, 1, 2, 2],
        7: [3, 0, 4, 5],
        2**63 + 1: [
            4479683333887877818,
            6671318214271830358,
            6017623123135286312,
            3072027542892404579,
        ],
    }
    items = list(range(10))
    rng.shuffle(items)
    assert items == [3, 1, 5, 2, 6, 9, 0, 4, 8, 7]
    assert rng.spawn(5).next_u64() == 9827990736064821305
    assert rng.spawn(2**64 + 5).next_u64() == 9827990736064821305  # tags are taken mod 2**64
    assert rng.next_u64() == 15871476080947780892  # spawning leaves the stream alone
    assert derive_seed(SEED) == SEED
    assert derive_seed(SEED, 1, 2, 3) == 12046178498672446859
    assert derive_seed(-1, 2**70) == 16490336266968443936


def test_randint_redraws_above_the_largest_multiple():
    # 2**64 holds one multiple of 2**63 + 1, so every draw at or above it
    # (about half of them) is redrawn, and the accepted draws are the raw
    # ones below it, in order
    n = 2**63 + 1
    raw = SplitMix64(SEED)
    draws = [raw.next_u64() for _ in range(16)]
    rng = SplitMix64(SEED)
    got = [rng.randint(n) for _ in range(4)]
    below = [u for u in draws if u < n]
    assert got == below[:4]
    assert draws.index(below[3]) > 3  # some draw was rejected


@pytest.mark.parametrize("n", [0, -1, -(2**70)])
def test_randint_needs_a_positive_bound(n):
    with pytest.raises(ValueError, match="randint bound must be positive"):
        SplitMix64(SEED).randint(n)
    rng = SplitMix64(SEED)  # and the refusal is not cached
    with pytest.raises(ValueError, match="randint bound must be positive"):
        rng.randint(n)


def test_choice_picks_the_item_at_the_next_randint():
    items = ["a", "b", "c", "d", "e"]
    rng, ref = SplitMix64(SEED), SplitMix64(SEED)
    assert [rng.choice(items) for _ in range(20)] == [items[ref.randint(5)] for _ in range(20)]
