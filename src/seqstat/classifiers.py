"""Fixed-length and sequential classifiers driven by empirical types.

Both families score a test sequence against each training sequence with the
weighted divergence ``n * gjs(T_train, T_test, N / n)`` where ``N`` is the
training length and ``n`` the number of test symbols seen so far.  The
fixed-length rule thresholds the score once at a fixed ``n``; the sequential
rule feeds symbols one at a time and stops as soon as all but one class has
been ruled out, declaring the survivor.

Every score computed from counts comes from one kernel, ``_block_scores``.
With ``C`` the training counts (``|C| = N``) and ``c`` the test counts
(``|c| = n``),

    n * gjs(T_train, T_test, N / n) = Phi(C) + Phi(c) - Phi(C + c),
    Phi(v) = sum_x v_x ln v_x - |v| ln |v|,

where every ``v ln v`` is read from one table of ``j ln j``, grown on demand
up to a fixed size and computed directly past it, and summed left to right
over the alphabet.  The score is exactly zero when ``C_x * n == c_x * N`` for
every ``x``, i.e. when the two types coincide.  The kernel scores a block of
trials x prefix lengths x classes at once: the lockstep sequential test of
the Monte Carlo harness carries undecided trials into the next, wider block,
and the harness's fixed-length trials are one block at the single prefix
``n_test``.  One run object, ``_Run``, is the only code that applies the
sequential rule: it keeps each trial's counts and first crossings, and
its ``block`` scores a block, finds the first crossings and decides when
each trial stops and what it declares.  The harness feeds it growing
blocks of a batch and gets each batch's outcome as arrays (stopping times,
verdict codes, first crossings); ``seq_binary_step`` and
``seq_multiclass_run`` feed a one-trial run one symbol at a time, so every
entry point gives the same bits.  ``gutman_binary`` and ``gutman_multiclass``
share one body, which takes a free ``alpha`` and scores through
:func:`seqstat.divergence.gjs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import Infeasible, LengthMismatch, SizeMismatch, SteppedAfterStop, StreamExhausted
from .probability import (
    Alphabet, EmpiricalType, Symbol, _check_alpha, _check_classes, _check_gamma, _check_index,
    _check_real, empirical_type,
)
from .divergence import gjs

_CLASS = "class"
_REJECT = "reject"
_NO_DECISION = "no_decision"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a classification rule."""

    kind: str
    index: int | None = None

    @classmethod
    def of_class(cls, index: int) -> "Verdict":
        return cls(_CLASS, index)

    @classmethod
    def rejected(cls) -> "Verdict":
        return cls(_REJECT)

    @classmethod
    def undecided(cls) -> "Verdict":
        return cls(_NO_DECISION)

    @property
    def is_class(self) -> bool:
        return self.kind == _CLASS

    @property
    def is_reject(self) -> bool:
        return self.kind == _REJECT

    @property
    def is_no_decision(self) -> bool:
        return self.kind == _NO_DECISION

    def label(self) -> str:
        if self.is_class:
            return f"class_{self.index + 1}"
        return self.kind


@dataclass(frozen=True)
class GutmanConfig:
    """Fixed-length test parameters.

    ``threshold_mode`` selects whether ``lam`` is compared to the raw score
    ``gjs(T_train, T_test, alpha)`` or to its ``1/alpha``-scaled version;
    scaled mode with ``lam`` equals raw mode with ``lam * alpha``.
    """

    alpha: float
    lam: float
    threshold_mode: str = "raw"

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _check_alpha(self.alpha, strict=True))
        object.__setattr__(self, "lam", _check_real(self.lam, Infeasible, "threshold"))
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise Infeasible(f"threshold must be finite and >= 0, got {self.lam}")
        if self.threshold_mode not in ("raw", "scaled"):
            raise Infeasible(f"unknown threshold mode {self.threshold_mode!r}")

    @property
    def raw_threshold(self) -> float:
        if self.threshold_mode == "raw":
            return self.lam
        return self.lam * self.alpha


@dataclass(frozen=True)
class SequentialConfig:
    """Sequential test parameters; ``cap`` defaults to ``train_len ** 2``."""

    gamma: float
    train_len: int
    cap: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", _check_gamma(self.gamma))
        train_len = _check_index(self.train_len, SizeMismatch, "training length", 1)
        cap = train_len * train_len if self.cap is None else self.cap
        cap = _check_index(cap, SizeMismatch, "cap")
        if cap < train_len:
            raise SizeMismatch(f"cap {cap} is below the training length")
        object.__setattr__(self, "train_len", train_len)
        object.__setattr__(self, "cap", cap)

    @property
    def threshold(self) -> float:
        """Stopping threshold gamma * N on the score scale."""
        return self.gamma * self.train_len


@dataclass(frozen=True)
class TrialTrace:
    """Complete record of one sequential run."""

    scores: np.ndarray
    stopping_time: int
    verdict: Verdict
    crossing_times: tuple[int | None, ...]


def score(t_train: EmpiricalType, t_test: EmpiricalType) -> float:
    """Test statistic ``n * gjs(T_train, T_test, N / n)`` from two types."""
    _check_classes((t_train, t_test), "types")
    big_n = t_train.total
    train = np.array([[t_train.counts]])
    phi_train = _phi_array(train.transpose(2, 0, 1), big_n, big_n)
    counts = np.array(t_test.counts)[:, None, None]
    return float(_block_scores(train, phi_train, counts, np.array([t_test.total]), big_n)[0, 0, 0])


# Prefix lengths a trial's first block scores; each later block is GROWTH
# times wider, as far as BLOCK_ENTRIES allows.
FIRST_WIDTH = 32
GROWTH = 2
# Bound on trials x classes x prefix lengths x symbols in one block, which
# bounds the kernel's working set whatever the trial count and the cap.
BLOCK_ENTRIES = 1 << 17
# A score within this fraction of (N + n) ln(N + n) of zero is checked for
# exact proportionality; rounding in the table sums stays far below it.
_ZERO_GUARD = 1e-10

# j ln j for j = 0, 1, ..., grown on demand up to _TABLE_SIZE entries;
# larger j are computed when needed, so the table's size depends neither on
# the trial count nor on the cap.  Every entry, in the table or not, is
# ``j * math.log(j)`` on a Python int, so it does not depend on how or in
# which process it was made.
_TABLE_SIZE = 1 << 16
_JLNJ = np.zeros(1)


def _jlnj(top: int) -> np.ndarray:
    """The ``j ln j`` table, covering ``0 .. top`` as far as ``_TABLE_SIZE`` allows."""
    global _JLNJ
    table = _JLNJ
    if len(table) <= min(top, _TABLE_SIZE - 1):
        size = min(max(2 * len(table), top + 1, 1024), _TABLE_SIZE)
        fresh = (j * math.log(j) for j in range(len(table), size))
        table = np.concatenate([table, np.fromiter(fresh, float, size - len(table))])
        _JLNJ = table
    return table


def _take(idx, top: int) -> np.ndarray:
    """``j ln j`` at every entry of the array ``idx``, none above ``top``."""
    table = _jlnj(top)
    if top < len(table):
        return table.take(idx)
    idx = np.asarray(idx)
    far = idx >= len(table)
    out = np.empty(idx.shape)
    table.take(np.where(far, 0, idx), out=out)
    beyond, where = np.unique(idx[far], return_inverse=True)
    values = np.fromiter((j * math.log(j) for j in beyond.tolist()), float, len(beyond))
    out[far] = values[where]
    return out


def _phi_array(parts: Iterable[np.ndarray], total, top: int) -> np.ndarray:
    """``Phi(v) = sum_x v_x ln v_x - |v| ln |v|`` elementwise, summed left to right.

    ``parts`` holds one count array per symbol in alphabet order and
    ``total`` their sum; no count exceeds ``top``.
    """
    parts = iter(parts)
    acc = _take(next(parts), top)
    for part in parts:
        acc = acc + _take(part, top)
    return acc - _take(total, top)


def _block_scores(
    train: np.ndarray, phi_train: np.ndarray, counts: np.ndarray, n: np.ndarray, big_n: int
) -> np.ndarray:
    """Scores of every class at every prefix length of a block.

    ``train`` holds training counts ``(A, M, K)``, ``phi_train`` their
    ``Phi`` ``(A, M)``, ``counts`` the cumulative test counts ``(K, A, L)``
    after ``n`` ``(L,)`` symbols.  Returns scores ``(A, M, L)``: exactly 0.0
    where ``C_x * n == c_x * N`` for every ``x``, else
    ``Phi(C) + Phi(c) - Phi(C + c)``.
    """
    top = big_n + int(n[-1])
    phi_test = _phi_array(counts, n, top)
    mixed = (train[:, :, x, None] + counts[x][:, None, :] for x in range(len(counts)))
    scores = (phi_train[:, :, None] + phi_test[:, None, :]) - _phi_array(mixed, big_n + n, top)
    near = np.abs(scores) <= _ZERO_GUARD * _take(big_n + n, top)
    if near.any():
        a, m, j = np.nonzero(near)
        proportional = (train[a, m, :] * n[j, None] == counts[:, a, j].T * big_n).all(axis=1)
        scores[a[proportional], m[proportional], j[proportional]] = 0.0
    return scores


def _verdict(code: int, fail: Verdict) -> Verdict:
    """The verdict a code stands for; ``fail`` where it is -1."""
    return Verdict.of_class(code) if code >= 0 else fail


def _smaller_score(
    scores: Sequence[float], train: Sequence[Sequence[int]], counts: Sequence[int]
) -> int | None:
    """Class with the strictly smaller of two scores, ``None`` on an exact tie.

    Scores closer than rounding can tell apart are compared exactly: with
    equal training lengths ``s0 - s1`` is the log of the ratio of
    ``prod C0^C0 * prod (C1 + c)^(C1 + c)`` to
    ``prod C1^C1 * prod (C0 + c)^(C0 + c)`` (with ``0^0 = 1``), two
    integers.
    """
    s0, s1 = scores
    total = sum(train[0]) + sum(counts)
    if abs(s0 - s1) <= _ZERO_GUARD * total * math.log(total):
        c0, c1 = train
        left = right = 1
        for a, b, c in zip(c0, c1, counts):
            left *= a**a * (b + c) ** (b + c)
            right *= b**b * (a + c) ** (a + c)
        s0, s1 = left, right
    if s0 < s1:
        return 0
    if s1 < s0:
        return 1
    return None


class _Run:
    """The sequential test on a batch of trials, fed block by block.

    Holds each trial's training counts ``(B, M, K)`` and their ``Phi``, its
    cumulative test counts, and the first crossing of ``gamma * N`` of each
    class (``cap + 1`` where it has not crossed).  This is the only code that
    applies the stopping rule: a class is ruled out at its first crossing,
    and a trial stops once at most one class survives, or at the cap.
    ``rule`` picks the verdict when the stopping step rules out every class
    at once: ``"smaller"`` (binary rule) declares the class with the strictly
    smaller score and gives up on an exact tie, ``"none"`` gives up outright.
    """

    def __init__(self, train: np.ndarray, cfg: SequentialConfig, rule: str) -> None:
        self.train, self.cfg, self.rule = train, cfg, rule
        self.phi_train = _phi_array(train.transpose(2, 0, 1), cfg.train_len, cfg.train_len)
        self.first = np.full(train.shape[:2], cfg.cap + 1, dtype=np.int64)
        self.counts = np.zeros((train.shape[2], len(train)), dtype=np.int64)

    def block(
        self, rows: np.ndarray | slice, start: int, symbols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Feed the trials ``rows`` their test symbols at positions ``start ..``.

        ``rows`` is an index array, or a slice, which spares a one-trial run
        the copies of fancy indexing; ``symbols`` holds ``L`` symbol indices
        per trial fed.  Returns the scores ``(trials, M, L)`` at prefix
        lengths ``start + 1 .. start + L``, and each trial's stopping time
        and verdict code (the survivor's index, or -1 for no decision); a
        time past ``start + L`` means the trial has not stopped.
        """
        cfg = self.cfg
        k = len(self.counts)
        counts = np.cumsum(symbols == np.arange(k)[:, None, None], axis=2, dtype=np.int64)
        counts += self.counts[:, rows, None]
        self.counts[:, rows] = counts[:, :, -1]
        train = self.train[rows]
        n = np.arange(start + 1, start + symbols.shape[1] + 1)
        scores = _block_scores(train, self.phi_train[rows], counts, n, cfg.train_len)
        crossed = scores >= cfg.threshold
        at = np.where(crossed.any(axis=2), start + 1 + crossed.argmax(axis=2), cfg.cap + 1)
        firsts = self.first[rows] = np.minimum(self.first[rows], at)
        stop = np.minimum(np.sort(firsts, axis=1)[:, -2], cfg.cap)
        alive = firsts > stop[:, None]
        survivors = alive.sum(axis=1)
        codes = np.where(survivors == 1, alive.argmax(axis=1), -1)
        if self.rule == "smaller" and not survivors.all():
            tied = np.flatnonzero(survivors == 0)
            steps = stop[tied] - start - 1
            s0, s1 = scores[tied, :, steps].T
            codes[tied] = s1 < s0  # the class of the smaller score
            # pairs the float scores may not tell apart go to the exact rule;
            # twice its guard covers any rounding of the guard itself
            total = cfg.train_len + stop[tied]
            near = np.abs(s0 - s1) <= 2.0 * _ZERO_GUARD * total * np.log(total)
            for j, step in zip(tied[near].tolist(), steps[near].tolist()):
                winner = _smaller_score(
                    scores[j, :, step].tolist(), train[j].tolist(), counts[:, j, step].tolist()
                )
                codes[j] = -1 if winner is None else winner
        return scores, stop, codes


def _lockstep(
    train: np.ndarray,
    cfg: SequentialConfig,
    rule: str,
    draw: Callable[[np.ndarray, int, int], np.ndarray],
    record: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray] | None]:
    """Run the sequential test on a batch of trials in lockstep.

    ``train`` holds each trial's training counts ``(B, M, K)``, each of
    length ``cfg.train_len``.  ``draw(rows, start, stop)`` returns the test
    symbol indices at positions ``start .. stop-1`` of the batch trials
    ``rows``, shape ``(len(rows), stop - start)``.  Every block scores all
    classes at a run of prefix lengths at once; trials still undecided at
    its end go on to the next, wider block.

    Returns the stopping times ``(B,)``, the verdict codes ``(B,)`` of
    :meth:`_Run.block` and the first crossings ``(B, M)``, 0 for a class
    that had not crossed by the stopping time.  With ``record`` the fourth
    item lists each trial's score rows ``(T, M)``; without it, it is ``None``.
    """
    run = _Run(train, cfg, rule)
    batch, m, k = train.shape
    times = np.empty(batch, dtype=np.int64)
    codes = np.empty(batch, dtype=np.int64)
    blocks: list[list[np.ndarray]] = [[] for _ in range(batch)]
    active = np.arange(batch)
    start = 0
    width = FIRST_WIDTH
    while active.size:
        fits = BLOCK_ENTRIES // (active.size * m * k) // 4 * 4
        symbols = draw(active, start, min(start + max(4, min(width, fits)), cfg.cap))
        scores, stop, code = run.block(active, start, symbols)
        start += symbols.shape[1]
        done = stop <= start
        times[active[done]] = stop[done]
        codes[active[done]] = code[done]
        if record:
            for j, i in enumerate(active.tolist()):
                blocks[i].append(scores[j].T)
        active = active[~done]
        width *= GROWTH
    rows = [np.concatenate(b)[:t] for b, t in zip(blocks, times.tolist())] if record else None
    return times, codes, np.where(run.first <= times[:, None], run.first, 0), rows


# --------------------------------------------------------------------------
# fixed-length rules
# --------------------------------------------------------------------------

def _fixed_length_codes(values: np.ndarray, threshold: float, binary: bool) -> np.ndarray:
    """Verdict codes of the fixed-length test from the classes' ``gjs`` values ``(B, M)``.

    The binary rule declares class 1 iff its value is at or below
    ``threshold``, else class 2, and reads only ``values[:, 0]``; the
    multiclass rule declares the unique class at or below it, else rejects
    (code -1).
    """
    accepted = values <= threshold
    if binary:
        accepted = np.stack([accepted[:, 0], ~accepted[:, 0]], axis=1)
    return np.where(accepted.sum(axis=1) == 1, accepted.argmax(axis=1), -1)


def _fixed_length(
    types: Sequence[EmpiricalType], ty: EmpiricalType, cfg: GutmanConfig, binary: bool
) -> Verdict:
    """The fixed-length rule on ``gjs(t, ty, alpha)`` of each training type ``t``.

    The training types and the test type share one alphabet; the binary rule
    is given class 1's type alone (see :func:`_fixed_length_codes`).
    """
    _check_classes((*types, ty), "types")
    ty_dist = ty.as_distribution()
    values = [gjs(t.as_distribution(), ty_dist, cfg.alpha) for t in types]
    code = _fixed_length_codes(np.array([values]), cfg.raw_threshold, binary)
    return _verdict(int(code[0]), Verdict.rejected())


def gutman_binary(t1: EmpiricalType, ty: EmpiricalType, cfg: GutmanConfig) -> Verdict:
    """Accept class 1 iff its score is at or below the threshold."""
    return _fixed_length((t1,), ty, cfg, binary=True)


def gutman_multiclass(
    types: Sequence[EmpiricalType], ty: EmpiricalType, cfg: GutmanConfig
) -> Verdict:
    """Declare the unique class scoring at or below the threshold, else reject."""
    _check_classes(types, "training types")
    return _fixed_length(types, ty, cfg, binary=False)


# --------------------------------------------------------------------------
# sequential rules
# --------------------------------------------------------------------------

@dataclass(eq=False)
class SequentialState:
    """Mutable state of the sequential test between steps: a one-trial run."""

    alphabet: Alphabet
    _run: _Run = field(repr=False)
    n: int = 0
    scores: tuple[float, ...] = ()
    verdict: Verdict | None = None

    @property
    def config(self) -> SequentialConfig:
        return self._run.cfg

    @property
    def crossed(self) -> tuple[int | None, ...]:
        """Each class's first crossing of ``gamma * N``, ``None`` before it crosses."""
        return tuple(t if t <= self.n else None for t in self._run.first[0].tolist())


def _start(
    trains: Sequence[Sequence[Symbol]], cfg: SequentialConfig, alphabet: Alphabet, rule: str
) -> SequentialState:
    """State before the first test symbol, stopping by ``rule`` (see :class:`_Run`)."""
    for seq in trains:
        if len(seq) != cfg.train_len:
            raise LengthMismatch(f"training length {len(seq)} != configured {cfg.train_len}")
    train = np.array([[empirical_type(seq, alphabet).counts for seq in trains]])
    return SequentialState(alphabet, _Run(train, cfg, rule), scores=(0.0,) * train.shape[1])


def _advance(state: SequentialState, y: Symbol) -> Verdict | None:
    """Feed one test symbol to the state's run; returns the verdict once the test stops."""
    if state.verdict is not None:
        raise SteppedAfterStop("the sequential test already delivered a verdict")
    symbol = np.array([[state.alphabet.index_of(y)]])
    scores, stop, code = state._run.block(slice(None), state.n, symbol)
    state.n += 1
    state.scores = tuple(scores[0, :, 0].tolist())
    if stop[0] <= state.n:
        state.verdict = _verdict(int(code[0]), Verdict.undecided())
    return state.verdict


def seq_binary_start(
    x1: Sequence[Symbol], x2: Sequence[Symbol], cfg: SequentialConfig, alphabet: Alphabet
) -> SequentialState:
    """Initialize the binary sequential test from two training sequences."""
    return _start((x1, x2), cfg, alphabet, "smaller")


def seq_binary_step(state: SequentialState, y: Symbol) -> tuple[SequentialState, Verdict | None]:
    """Feed one test symbol; returns the verdict once the test stops.

    At the first step where a score reaches ``gamma * N`` the crossed class
    is ruled out and the other one declared.  When both cross on the same
    step the one with the strictly smaller score wins, compared exactly when
    the two are within rounding of each other; an exact tie, or reaching the
    cap without a crossing, yields no decision.
    """
    return state, _advance(state, y)


def seq_multiclass_run(
    train_sequences: Sequence[Sequence[Symbol]],
    stream: Iterable[Symbol],
    cfg: SequentialConfig,
    alphabet: Alphabet,
) -> TrialTrace:
    """Run the multiclass sequential test over a symbol stream.

    Classes are ruled out once their score has ever reached ``gamma * N``;
    the test stops when at most one class survives (or at the cap) and
    declares the survivor.  An empty survivor set or a cap hit yields no
    decision.  If the stream ends first, :class:`StreamExhausted` is raised
    with the partial trace attached.  The stream is read one symbol per step,
    never past the stopping point.
    """
    if len(train_sequences) < 2:
        raise SizeMismatch("need at least two training sequences")
    state = _start(train_sequences, cfg, alphabet, "none")
    rows: list[tuple[float, ...]] = []

    def trace(verdict: Verdict) -> TrialTrace:
        scores = np.array(rows).reshape(state.n, len(state.scores))
        return TrialTrace(scores, state.n, verdict, state.crossed)

    for sym in stream:
        verdict = _advance(state, sym)
        rows.append(state.scores)
        if verdict is not None:
            return trace(verdict)
    raise StreamExhausted(
        f"test stream ended after {state.n} symbols, before a verdict",
        trace=trace(Verdict.undecided()),
    )
