"""``TrialRandom`` seeds an int at C speed and stays bit-identical.

For an ``int`` seed :class:`~repro.rngledger.TrialRandom` skips
``random.Random.seed``'s Python wrapper and calls the C seeding under it
directly, then clears the Gaussian cache, which is all the wrapper does
for an int.  These pins hold it to ``random.Random(seed)`` state for
state and draw for draw, on plain, spawned, ledger-bound and opaque
streams, and check that every other seed type still takes the Python
path.
"""

import random

import pytest

from repro.rngledger import (
    RngLedger,
    StreamSet,
    TrialRandom,
    begin_ledger,
    end_ledger,
    ledger_root,
)

INT_SEEDS = [0, 1, 2**31 - 1, 2**32 + 5, 3**200 + 17, -987654321]


def draws(rng):
    """One of each derived draw, in a fixed order."""
    deck = list(range(20))
    rng.shuffle(deck)
    return (
        rng.random(),
        rng.getrandbits(1),
        rng.getrandbits(77),
        rng.randrange(2**31),
        rng.randrange(-50, 50, 3),
        rng.choice("abcdefghijklmnopqrstuvwxyz"),
        rng.uniform(-2.5, 7.5),
        tuple(deck),
        rng.gauss(0.0, 1.0),
        rng.gauss(10.0, 2.0),  # served from the Gaussian cache
        rng.random(),
    )


@pytest.mark.parametrize("seed", INT_SEEDS)
def test_int_seed_state_matches_random(seed):
    assert TrialRandom(seed).getstate() == random.Random(seed).getstate()


@pytest.mark.parametrize("seed", INT_SEEDS)
def test_int_seed_draws_match_random(seed):
    assert draws(TrialRandom(seed)) == draws(random.Random(seed))


@pytest.mark.parametrize("seed", INT_SEEDS)
def test_int_seed_clears_gauss_cache(seed):
    rng = TrialRandom(seed)
    assert rng.gauss_next is None
    assert (rng._ledger, rng._stream, rng._opaque) == (None, -1, False)


@pytest.mark.parametrize("seed", INT_SEEDS)
def test_spawned_child_matches_historical_idiom(seed):
    parent, reference = TrialRandom(seed), random.Random(seed)
    for _ in range(3):
        child = parent.spawn()
        expected = random.Random(reference.randrange(2**31))
        assert child.getstate() == expected.getstate()
        assert child.gauss_next is None
        assert draws(child) == draws(expected)


@pytest.mark.parametrize("seed", INT_SEEDS)
def test_bound_and_opaque_streams_draw_and_record_identically(seed):
    """A recorded trial-shaped stream tree draws what plain ``Random``
    streams draw, writes the entries the ledger format promises, and a
    ``StreamSet`` re-derives every bucket from the ledger alone."""
    trial_seed = seed & 0xFFFFFFFF
    ledger = begin_ledger(trial_seed)
    try:
        root = ledger_root(trial_seed)
        child = root.spawn()
        opaque = root.spawn(opaque=True)
        values = (
            root.coin(0.5), root.branch((0.2, 0.3, 0.5)), root.pick((0.1, 0.6)),
            child.random(), child.getrandbits(12), child.randrange(1000),
            opaque.randrange(2**32), opaque.randrange(0, 2**32),
        )
    finally:
        end_ledger()

    ref_root = random.Random(trial_seed)
    ref_child = random.Random(ref_root.randrange(2**31))
    ref_opaque = random.Random(ref_root.randrange(2**31))
    coin_roll = ref_root.random()
    branch_roll = ref_root.random() * 1.0
    pick_roll = ref_root.random()
    expected = (
        coin_roll < 0.5,
        0 if branch_roll <= 0.2 else 1 if branch_roll - 0.2 <= 0.3 else 2,
        0 if pick_roll < 0.1 else 1 if pick_roll < 0.6 else 2,
        ref_child.random(), ref_child.getrandbits(12),
        ref_child.randrange(1000),
        ref_opaque.randrange(2**32), ref_opaque.randrange(0, 2**32),
    )
    assert values == expected

    kinds = [spec[0] for spec, _bucket in ledger.entries]
    assert kinds[:3] == ["r", "s", "s"]
    assert kinds.count("o") == 2
    assert ledger.streams == 3

    replayed = StreamSet(trial_seed)
    for spec, bucket in ledger.entries:
        assert replayed.advance(spec) == bucket


def test_bound_stream_matches_unbound_stream():
    for seed in INT_SEEDS:
        bound = TrialRandom(seed)
        bound.bind(RngLedger(seed))
        assert draws(bound) == draws(TrialRandom(seed))


@pytest.mark.parametrize(
    "seed", ["a string", b"bytes", bytearray(b"ba"), 2.75, True],
)
def test_non_int_seeds_take_the_python_path(seed, monkeypatch):
    calls = []
    python_seed = random.Random.seed

    def counting_seed(self, *args, **kwargs):
        calls.append(args)
        return python_seed(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "seed", counting_seed)
    rng = TrialRandom(seed)
    assert calls == [(seed,)]
    monkeypatch.undo()
    assert rng.getstate() == random.Random(seed).getstate()
    assert rng.gauss_next is None


def test_int_seed_skips_the_python_wrapper(monkeypatch):
    def fail(self, *args, **kwargs):
        raise AssertionError("int seed went through random.Random.seed")

    monkeypatch.setattr(random.Random, "seed", fail)
    TrialRandom(12345)
    TrialRandom(-1).spawn()


def test_unseeded_stream_still_seeds_from_the_system():
    first, second = TrialRandom(), TrialRandom()
    assert first.gauss_next is None
    assert first.getstate() != second.getstate()
