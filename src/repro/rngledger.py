"""RNG-draw ledgers: the instrumentation layer under deterministic replay.

A trial's outcome is a pure function of its seed-driven RNG draws — the
topology, the calibration coins, the per-packet loss and jitter draws.
The replay tier (``repro.experiments.replay``) exploits this by recording
one trial's ordered draw sequence as a *ledger* of ``(site-spec,
value-bucket)`` entries, then deciding whether a later trial with a
different seed would have made the same decisions by re-deriving only the
RNG streams — never touching the event heap.

Three pieces live here:

- :class:`TrialRandom` — a ``random.Random`` subclass that behaves
  *bit-identically* to its parent (it overrides none of ``random``,
  ``getrandbits`` or ``seed`` at class level, so CPython's
  ``__init_subclass__`` keeps the exact ``_randbelow`` the parent uses)
  but can be *bound* to a ledger, at which point it switches to a
  recording subclass that wraps the leaf draws.  It also
  grows semantic draw helpers (:meth:`TrialRandom.coin`,
  :meth:`TrialRandom.branch`, :meth:`TrialRandom.pick`,
  :meth:`TrialRandom.spawn`) that replicate the historical inline idioms
  draw-for-draw while recording a *bucket* (which side of the
  probability the roll fell on) instead of the raw float — the buckets,
  not the floats, are what decide control flow, so trials with different
  seeds can still match.

- :class:`RngLedger` — the per-trial recording: an ordered list of
  ``(spec, bucket)`` entries plus phase marks, opened/closed around a
  recorded trial via :func:`begin_ledger`/:func:`end_ledger`.

- :class:`StreamSet` — candidate verification: given a stored entry
  sequence and a *new* seed, re-derives that seed's RNG streams entry by
  entry and reports the bucket the candidate would draw at each site.
  Soundness is inductive: if the first *k* buckets match the recording,
  the candidate trial follows the same control path through the
  simulator, so its ``k+1``-th draw happens at the same site with the
  same spec.

Entry taxonomy (``spec`` is always a hashable tuple; ``bucket`` is the
recorded decision, or ``None`` for entries that cannot diverge):

========================  =====================================================
``("r", const)``          new root stream, seeded ``trial_seed ^ const``
``("s", parent, opq)``    child stream spawned from stream ``parent``
``("p", name)``           phase mark (setup/run boundary — fork accounting)
``("c", idx, p)``         coin: bucket is ``random() < p``
``("w", idx, weights)``   weighted branch: bucket is the chosen index
``("t", idx, thresh)``    threshold pick: bucket is the chosen index
``("f", idx)``            exact leaf ``random()``: bucket is the float
``("g", idx, k)``         exact leaf ``getrandbits(k)``: bucket is the int
``("o", idx, m, args)``   opaque method call on an opaque stream (no bucket)
========================  =====================================================

Opaque streams (``spawn(opaque=True)``) are for draws whose *values*
provably never influence control flow or recorded outcomes — the TCP
ISNs.  They record at *method* granularity (one entry per ``randrange``
call, advanced on verification by calling the same method), because the
underlying rejection sampling consumes a seed-dependent number of
``getrandbits`` draws and leaf-level entries would spuriously diverge.
"""

from __future__ import annotations

import _random
import random
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "RngLedger",
    "StreamSet",
    "TrialRandom",
    "active_ledger",
    "as_trial_random",
    "begin_ledger",
    "end_ledger",
    "ledger_root",
]

#: Unbound parent methods: the raw C-speed draws, used by the semantic
#: helpers and the recording wrappers so an entry is never double-counted
#: by the recording subclasses' leaf overrides.
_RAW_RANDOM = random.Random.random
_RAW_GETRANDBITS = random.Random.getrandbits
#: The C Mersenne Twister seeding under ``random.Random.seed``.
_C_SEED = _random.Random.seed


def _spawn_seed(rng: random.Random) -> int:
    """Bit-identical replication of ``rng.randrange(2**31)``.

    ``Random(rng.randrange(2**31))`` is the repo-wide child-stream idiom;
    CPython implements it as rejection sampling over ``getrandbits(32)``
    (``(2**31).bit_length() == 32``).  Replicating it here — instead of
    calling ``randrange`` — lets both bound TrialRandoms (whose
    ``getrandbits`` may record) and plain verification streams draw
    the child seed without recording intermediate entries.
    """
    value = _RAW_GETRANDBITS(rng, 32)
    while value >= 0x80000000:
        value = _RAW_GETRANDBITS(rng, 32)
    return value


class RngLedger:
    """The ordered draw fingerprint of one recorded trial."""

    __slots__ = ("trial_seed", "entries", "streams", "active")

    def __init__(self, trial_seed: int) -> None:
        self.trial_seed = trial_seed
        #: ``(spec, bucket)`` pairs in draw order.
        self.entries: List[Tuple[tuple, object]] = []
        #: Number of registered streams (next stream index).
        self.streams = 0
        #: Closed ledgers ignore stale draws from bound RNGs that outlive
        #: their trial (pooled object graphs) instead of corrupting the
        #: next recording.
        self.active = True

    def mark(self, name: str) -> None:
        """Append a phase boundary (``("p", name)``).

        The replay tier classifies divergence *after* the ``run`` mark as
        a fork (the setup/checkpoint prefix matched; only the run phase
        must be re-simulated) and divergence before it as a plain miss.
        """
        if self.active:
            self.entries.append((("p", name), None))

    def close(self) -> None:
        self.active = False


# ---------------------------------------------------------------------------
# The per-process recording context.  Trials are strictly serial within a
# process (workers are separate processes), so one slot suffices.
# ---------------------------------------------------------------------------
_ACTIVE: Optional[RngLedger] = None


def begin_ledger(trial_seed: int) -> RngLedger:
    """Open a recording context; roots created under it self-register."""
    global _ACTIVE
    ledger = RngLedger(trial_seed)
    _ACTIVE = ledger
    return ledger


def end_ledger() -> None:
    """Close the recording context (bound RNGs go quiet, not stale)."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
    _ACTIVE = None


def active_ledger() -> Optional[RngLedger]:
    return _ACTIVE


class TrialRandom(random.Random):
    """``random.Random`` with ledger recording and semantic draw helpers.

    Draw parity is the load-bearing property: this class overrides none
    of ``random``/``getrandbits``/``seed`` at class level, so
    ``Random.__init_subclass__`` keeps ``_randbelow_with_getrandbits``
    and every derived method (``randrange``, ``choice``, ``uniform``,
    ``shuffle``, …) consumes the underlying Mersenne Twister stream
    exactly as a plain ``Random(seed)`` would.  Recording is installed
    per *instance* by :meth:`bind`, which switches the instance to a
    recording subclass — the derived methods all reach their leaves
    through ``self.random`` / ``self.getrandbits`` lookups, which see
    the subclass overrides.  (A bound method stored on its own instance
    would make every bound stream a reference cycle.)
    """

    def __init__(self, x=None) -> None:
        if type(x) is int:
            # What ``Random.seed`` does for an int, without its Python
            # wrapper: the C seed, then a cleared Gaussian cache.
            _C_SEED(self, x)
            self.gauss_next = None
        else:
            random.Random.__init__(self, x)
        self._ledger: Optional[RngLedger] = None
        self._stream = -1
        self._opaque = False

    # -- recording -------------------------------------------------------
    def bind(self, ledger: RngLedger, opaque: bool = False) -> None:
        """Register this RNG as the ledger's next stream and start
        recording its draws (leaf-level, or method-level when opaque)."""
        self._ledger = ledger
        self._stream = ledger.streams
        ledger.streams += 1
        self._opaque = opaque
        self.__class__ = _OpaqueRecordingRandom if opaque else _RecordingRandom

    # -- semantic draws --------------------------------------------------
    def coin(self, probability: float) -> bool:
        """One ``random()`` draw, recorded as its boolean bucket.

        Replaces the ``rng.random() < p`` idiom draw-for-draw.
        """
        hit = _RAW_RANDOM(self) < probability
        ledger = self._ledger
        if ledger is not None and ledger.active:
            ledger.entries.append((("c", self._stream, probability), hit))
        return hit

    def branch(self, weights: Sequence[float]) -> int:
        """The historical weighted-choice loop, recorded as its index.

        Replicates ``roll = random() * sum(weights)`` followed by
        successive subtraction with a first-``roll <= 0`` break — including
        the fall-through-to-last-index quirk — bit-for-bit.
        """
        weights = tuple(weights)
        roll = _RAW_RANDOM(self) * sum(weights)
        index = len(weights) - 1
        for i, weight in enumerate(weights):
            roll -= weight
            if roll <= 0:
                index = i
                break
        ledger = self._ledger
        if ledger is not None and ledger.active:
            ledger.entries.append((("w", self._stream, weights), index))
        return index

    def pick(self, thresholds: Sequence[float]) -> int:
        """One draw against ascending thresholds, recorded as its index.

        Replicates ``roll < t0 → 0; roll < t1 → 1; … else len(t)`` with
        the original comparisons — the call sites' threshold sums (e.g.
        ``a`` then ``a + b``) are preserved verbatim, so no floating-point
        re-association can change a verdict.
        """
        thresholds = tuple(thresholds)
        roll = _RAW_RANDOM(self)
        index = len(thresholds)
        for i, threshold in enumerate(thresholds):
            if roll < threshold:
                index = i
                break
        ledger = self._ledger
        if ledger is not None and ledger.active:
            ledger.entries.append((("t", self._stream, thresholds), index))
        return index

    def spawn(self, opaque: bool = False) -> "TrialRandom":
        """A child stream — ``Random(self.randrange(2**31))``, recorded.

        ``opaque=True`` marks the child's *values* as provably outcome-
        neutral (TCP ISNs); its draws then record at method granularity.
        """
        child = TrialRandom(_spawn_seed(self))
        ledger = self._ledger
        if ledger is not None and ledger.active:
            ledger.entries.append((("s", self._stream, opaque), None))
            child.bind(ledger, opaque=opaque)
        return child


class _RecordingRandom(TrialRandom):
    """A bound stream recording its leaf draws.  It overrides
    ``getrandbits``, so ``__init_subclass__`` keeps the parent's
    ``_randbelow_with_getrandbits`` and every derived draw is unchanged."""

    def random(self) -> float:
        value = _RAW_RANDOM(self)
        ledger = self._ledger
        if ledger.active:
            ledger.entries.append((("f", self._stream), value))
        return value

    def getrandbits(self, k: int) -> int:
        value = _RAW_GETRANDBITS(self, k)
        ledger = self._ledger
        if ledger.active:
            ledger.entries.append((("g", self._stream, k), value))
        return value


class _OpaqueRecordingRandom(TrialRandom):
    """A bound opaque stream recording at method granularity."""

    def randrange(self, start, stop=None, step=1):
        value = random.Random.randrange(self, start, stop, step)
        ledger = self._ledger
        if ledger.active:
            ledger.entries.append(
                (("o", self._stream, "randrange", (start, stop, step)), None)
            )
        return value

    def randint(self, a, b):
        value = random.Random.randint(self, a, b)
        ledger = self._ledger
        if ledger.active:
            ledger.entries.append((("o", self._stream, "randint", (a, b)), None))
        return value


def ledger_root(seed: int, salt: int = 0) -> TrialRandom:
    """``TrialRandom(seed ^ salt)``, registered as a root stream when a
    ledger is recording.

    The entry stores ``const = (seed ^ salt) ^ trial_seed`` so
    verification can seed the candidate's root as ``cand_seed ^ const``
    — for the repo's two root idioms (scenario root: ``Random(seed)``;
    INTANG root: ``Random(seed ^ 0x5EED)``) the const collapses to the
    salt and the reconstruction is exact for any candidate seed.
    """
    rng = TrialRandom(seed ^ salt)
    ledger = _ACTIVE
    if ledger is not None and ledger.active:
        ledger.entries.append((("r", (seed ^ salt) ^ ledger.trial_seed), None))
        rng.bind(ledger)
    return rng


def as_trial_random(rng: Optional[random.Random]) -> Optional[TrialRandom]:
    """Coerce a plain ``Random`` into an unbound :class:`TrialRandom`
    with the *same generator state* (``getstate``/``setstate``), so call
    sites converted to the semantic draw helpers keep working — and keep
    drawing identical values — when handed a plain RNG (tests, the fleet
    engine, default constructors)."""
    if rng is None or isinstance(rng, TrialRandom):
        return rng
    wrapped = TrialRandom()
    wrapped.setstate(rng.getstate())
    return wrapped


class StreamSet:
    """Candidate-side reconstruction of a recorded trial's RNG streams.

    Feeding the stored specs through :meth:`advance` in ledger order
    derives, for the *candidate* seed, the bucket that seed would produce
    at each recorded site — pure RNG work, no simulation.
    """

    __slots__ = ("trial_seed", "streams")

    def __init__(self, trial_seed: int) -> None:
        self.trial_seed = trial_seed
        self.streams: List[random.Random] = []

    def advance(self, spec: tuple) -> object:
        """Consume one entry spec; returns the candidate's bucket (or
        ``None`` for entries that cannot diverge)."""
        kind = spec[0]
        if kind == "c":
            return _RAW_RANDOM(self.streams[spec[1]]) < spec[2]
        if kind == "f":
            return _RAW_RANDOM(self.streams[spec[1]])
        if kind == "g":
            return _RAW_GETRANDBITS(self.streams[spec[1]], spec[2])
        if kind == "w":
            weights = spec[2]
            roll = _RAW_RANDOM(self.streams[spec[1]]) * sum(weights)
            index = len(weights) - 1
            for i, weight in enumerate(weights):
                roll -= weight
                if roll <= 0:
                    index = i
                    break
            return index
        if kind == "t":
            thresholds = spec[2]
            roll = _RAW_RANDOM(self.streams[spec[1]])
            index = len(thresholds)
            for i, threshold in enumerate(thresholds):
                if roll < threshold:
                    index = i
                    break
            return index
        if kind == "s":
            self.streams.append(random.Random(_spawn_seed(self.streams[spec[1]])))
            return None
        if kind == "o":
            getattr(random.Random, spec[2])(self.streams[spec[1]], *spec[3])
            return None
        if kind == "r":
            self.streams.append(random.Random(self.trial_seed ^ spec[1]))
            return None
        if kind == "p":
            return None
        raise ValueError(f"unknown ledger entry kind {kind!r}")
