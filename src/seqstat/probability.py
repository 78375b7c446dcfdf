"""Finite-alphabet distributions, empirical types, reproducible sampling and
the package's input validators.

Distributions are immutable: weights are validated once at construction and
the stored tuple is never mutated afterwards.  The module holds values, the
sampler and the checks only; every information quantity on a distribution,
relative entropy and entropy included, lives in :mod:`seqstat.divergence`.

Sampling is counter-based.  Each stream is the Philox4x64 sequence keyed by
``(master_seed, stream_index)``, and each uniform ``u`` becomes a symbol by
comparing it with the thresholds ``cdf[0] .. cdf[K-2]`` of the cumulative
weights: symbol ``x`` is drawn iff ``cdf[x-1] <= u < cdf[x]``, the number of
thresholds at or below ``u``.  Because the cdf is nondecreasing, that number
is the binary search ``searchsorted(cdf, u, side="right")`` clamped to
``K - 1``, so the map gives exactly the draws of the inverse-CDF lookup,
zero weights and a cdf top a hair under 1.0 included, at ``K - 1`` compares
per symbol.  Counts of a stream are taken straight from its uniforms, as
differences of the number of uniforms below each threshold.  Two calls with
the same :class:`SeedSpec` therefore produce bit-identical output on any
platform, and the draws of one stream never depend on how many other streams
exist.

Streams are drawn by re-keying one shared Philox bit generator rather than
constructing a new one: construction seeds through ``os.urandom`` even when a
key is given, and costs several times as much as setting the key.  Setting the
counter as well starts a stream at any position, so a stream can be drawn in
pieces that join into exactly the draws of one long call.  The state is
handed to the generator as Python ints, not numpy arrays: its setter reads
the counter, key and buffer element by element, and indexing numpy arrays
for each element about doubles the cost of a re-key (0.8-1.0 us with ints
against 1.9 us with arrays, numpy 2.4 on a 2-vCPU Xeon).  The values, and
so the draws, are the same either way.  Every sampler draws its uniforms
through ``_stream_uniforms``; :func:`bit_generator` still hands out an
independent generator for callers that keep one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AlphabetMismatch,
    BadSeed,
    DuplicateDistribution,
    EmptySequence,
    GammaOutOfRange,
    NegativeAlpha,
    NegativeWeight,
    NonPositiveGamma,
    NotNormalized,
    SizeMismatch,
    UnknownSymbol,
)

# Input weights may miss exact normalization by this much before rejection.
NORMALIZATION_TOLERANCE = 1e-9
# After renormalization the stored weights sum to 1 within this bound.
STORED_SUM_TOLERANCE = 1e-12
# A distribution is "interior" iff every stored weight is at least this.
INTERIOR_FLOOR = 1e-9
# Two distributions count as the same input below this sup distance.
PAIR_TOLERANCE = 1e-12

_UINT64_MAX = 2**64 - 1

Symbol = str | int


@dataclass(frozen=True)
class Alphabet:
    """Ordered collection of distinct symbol labels."""

    symbols: tuple[Symbol, ...]
    _index: dict[Symbol, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.symbols) == 0:
            raise SizeMismatch("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise SizeMismatch("alphabet symbols must be distinct")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index_of(self, symbol: Symbol) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbol(f"symbol {symbol!r} is not in the alphabet") from None


@dataclass(frozen=True)
class Distribution:
    """Probability vector over an :class:`Alphabet`.

    Construction renormalizes inputs whose sum is within
    ``NORMALIZATION_TOLERANCE`` of 1 and rejects anything farther off.
    """

    alphabet: Alphabet
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.alphabet.size:
            raise SizeMismatch(
                f"{len(self.weights)} weights for an alphabet of size {self.alphabet.size}"
            )
        ws = [_check_real(w, NotNormalized, "weight") for w in self.weights]
        for w in ws:
            if w < 0.0:
                raise NegativeWeight(f"weight {w} is negative")
            if not math.isfinite(w):
                raise NotNormalized(f"weight {w} is not finite")
        total = math.fsum(ws)
        if abs(total - 1.0) > NORMALIZATION_TOLERANCE:
            raise NotNormalized(f"weights sum to {total}, not 1")
        if total != 1.0:
            ws = [w / total for w in ws]
        object.__setattr__(self, "weights", tuple(ws))
        assert abs(math.fsum(self.weights) - 1.0) <= STORED_SUM_TOLERANCE

    @property
    def interior(self) -> bool:
        return min(self.weights) >= INTERIOR_FLOOR

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.float64)


@dataclass(frozen=True)
class EmpiricalType:
    """Symbol counts of a finite sequence, kept exact as integers."""

    alphabet: Alphabet
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.alphabet.size:
            raise SizeMismatch(
                f"{len(self.counts)} counts for an alphabet of size {self.alphabet.size}"
            )
        cs = tuple(_check_count(c) for c in self.counts)
        for c in cs:
            if c < 0:
                raise NegativeWeight(f"count {c} is negative")
        if sum(cs) == 0:
            raise EmptySequence("empirical type of an empty sequence")
        object.__setattr__(self, "counts", cs)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def as_distribution(self) -> Distribution:
        n = self.total
        return Distribution(self.alphabet, tuple(c / n for c in self.counts))


@dataclass(frozen=True)
class SeedSpec:
    """Key of one reproducible random stream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_index"):
            value = _check_index(getattr(self, name), BadSeed, name)
            if not (0 <= value <= _UINT64_MAX):
                raise BadSeed(f"{name} {value} outside the 64-bit range")
            object.__setattr__(self, name, value)


def make_distribution(weights: Sequence[float], alphabet: Alphabet) -> Distribution:
    """Validate and normalize a weight vector over ``alphabet``."""
    return Distribution(alphabet, tuple(weights))


def empirical_type(sequence: Iterable[Symbol], alphabet: Alphabet) -> EmpiricalType:
    """Count symbol occurrences of ``sequence`` under ``alphabet``."""
    table = alphabet._index
    counts = [0] * alphabet.size
    for sym in sequence:
        try:
            counts[table[sym]] += 1
        except KeyError:
            raise UnknownSymbol(f"symbol {sym!r} is not in the alphabet") from None
    return EmpiricalType(alphabet, tuple(counts))


def _check_classes(items: Sequence, what: str) -> None:
    """A class set: at least two ``items`` (distributions or types) on one alphabet."""
    if len(items) < 2:
        raise SizeMismatch(f"need at least two {what}, got {len(items)}")
    if any(item.alphabet != items[0].alphabet for item in items):
        raise AlphabetMismatch(f"{what} live on different alphabets")


def _check_index(value, error: type[Exception], what: str, low: int | None = None) -> int:
    """``value`` as a Python int, numpy integers included; ``error`` if it is not one ``>= low``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise error(f"{what} must be >= {low}, got {value}")
    return value


def _check_real(value, error: type[Exception], what: str) -> float:
    """``value`` as a float, numeric strings included; ``error`` if it is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise error(f"{what} must be a number, got {value!r}") from None


def _check_count(value) -> int:
    """``value`` as an exact int; integers, numpy ones included, and whole numbers like ``2.0``."""
    try:
        return operator.index(value)
    except TypeError:
        number = _check_real(value, SizeMismatch, "count")
    # false for nan and the infinities too
    if not number.is_integer():
        raise SizeMismatch(f"count {value!r} is not a whole number")
    return int(number)


def _check_alpha(alpha: float, strict: bool, what: str = "alpha") -> float:
    """A finite weight ``alpha``, ``> 0`` when ``strict`` and ``>= 0`` otherwise;
    ``what`` names it in the error."""
    alpha = _check_real(alpha, NegativeAlpha, what)
    if not math.isfinite(alpha) or alpha < 0.0 or (strict and alpha == 0.0):
        bound = "> 0" if strict else ">= 0"
        raise NegativeAlpha(f"{what} must be finite and {bound}, got {alpha}")
    return alpha


def _check_gamma(gamma: float) -> float:
    """A rate ``0 < gamma < inf``; an infinite rate is out of range, not nonpositive."""
    gamma = _check_real(gamma, NonPositiveGamma, "gamma")
    if gamma == math.inf:
        raise GammaOutOfRange(f"gamma must be finite, got {gamma}")
    if not gamma > 0.0:
        raise NonPositiveGamma(f"gamma must be finite and > 0, got {gamma}")
    return gamma


def _same_pair(p: Distribution, q: Distribution) -> bool:
    """Whether the weights of ``p`` and ``q`` differ by at most ``PAIR_TOLERANCE``."""
    return max(abs(a - b) for a, b in zip(p.weights, q.weights)) <= PAIR_TOLERANCE


def _check_distinct(dists: Sequence[Distribution]) -> None:
    """A class set of distributions no two of which coincide."""
    _check_classes(dists, "distributions")
    for i in range(len(dists)):
        for j in range(i + 1, len(dists)):
            if _same_pair(dists[i], dists[j]):
                raise DuplicateDistribution(f"distributions {i} and {j} coincide")


def bit_generator(seed: SeedSpec) -> np.random.Generator:
    """Philox4x64 generator keyed by ``(master_seed, stream_index)``."""
    key = np.array([seed.master_seed, seed.stream_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# The generator every stream is drawn from, re-keyed per stream; made on first use.
_SHARED: np.random.Generator | None = None


def _shared_generator() -> np.random.Generator:
    global _SHARED
    if _SHARED is None:
        _SHARED = np.random.Generator(np.random.Philox(key=np.zeros(2, dtype=np.uint64)))
    return _SHARED


def _stream_uniforms(master_seed: int, streams: Sequence[int], start: int, stop: int) -> np.ndarray:
    """Uniforms ``start .. stop-1`` of each stream ``(master_seed, s)``, one row per stream."""
    if not 0 <= start <= stop:
        raise SizeMismatch(f"cannot draw positions {start} to {stop}")
    master_seed = SeedSpec(master_seed).master_seed
    if len(streams) and not (0 <= min(streams) and max(streams) <= _UINT64_MAX):
        raise BadSeed(
            f"stream indices {min(streams)} .. {max(streams)} outside the 64-bit range"
        )
    uniforms = np.empty((len(streams), stop - start))
    # Philox yields four 64-bit words per counter value and one word per
    # uniform, so position ``start`` sits ``start % 4`` draws into block
    # ``start // 4``
    skip = start & 3
    key = [master_seed, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [start >> 2, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    gen = _shared_generator()
    bits = gen.bit_generator
    with bits.lock:
        for row, stream in zip(uniforms, streams):
            key[1] = stream
            bits.state = state
            if skip:
                gen.random(skip)
            gen.random(out=row)
    return uniforms


def stream_indices(
    p: Distribution, master_seed: int, streams: Sequence[int], start: int, stop: int
) -> np.ndarray:
    """Symbol indices ``start .. stop-1`` of each stream ``(master_seed, s)``.

    Returns an array of shape ``(len(streams), stop - start)`` whose row ``i``
    equals positions ``start .. stop-1`` of ``sample_indices`` on
    ``SeedSpec(master_seed, streams[i])``; seeds and stream indices are
    checked as :class:`SeedSpec` checks them.
    """
    uniforms = _stream_uniforms(master_seed, streams, start, stop)
    return _indices_from_uniforms(p.as_array(), uniforms)


def sample_indices(p: Distribution, n: int, seed: SeedSpec) -> np.ndarray:
    """Draw ``n`` iid symbol indices from ``p`` on the stream ``seed``."""
    n = _check_index(n, SizeMismatch, "sample size", 0)
    return stream_indices(p, seed.master_seed, (seed.stream_index,), 0, n)[0]


def _thresholds(weights: np.ndarray) -> np.ndarray:
    """``cdf[0] .. cdf[K-2]``: ``u`` is symbol ``x`` iff ``cdf[x-1] <= u < cdf[x]``."""
    return np.cumsum(weights)[:-1]


def _indices_from_uniforms(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The symbol index of each uniform: the number of thresholds at or below it."""
    idx = np.zeros(uniforms.shape, dtype=np.intp)
    for c in _thresholds(weights):
        idx += uniforms >= c
    return idx


def _counts_from_uniforms(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Symbol counts ``(rows, K)`` of each row of ``uniforms``, without building indices."""
    counts = np.empty((len(uniforms), len(weights)), dtype=np.int64)
    below = 0
    for x, c in enumerate(_thresholds(weights)):
        # the uniforms under cdf[x] are the draws of symbols 0 .. x
        upto = np.count_nonzero(uniforms < c, axis=1)
        counts[:, x] = upto - below
        below = upto
    counts[:, -1] = uniforms.shape[1] - below
    return counts


def sample_iid(p: Distribution, n: int, seed: SeedSpec) -> list[Symbol]:
    """Draw ``n`` iid symbols from ``p``, deterministically given ``seed``."""
    symbols = p.alphabet.symbols
    return [symbols[i] for i in sample_indices(p, n, seed)]
