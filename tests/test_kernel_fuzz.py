"""Differential fuzzing: the fused gDiff/HGVQ kernels vs the object path.

Hypothesis draws a predictor configuration (order, table size, value
delay, distance policy, refresh, conflict tracking, gate) and a value
stream, splits the stream into one to three chained chunks, and drives two
identical predictors over it: one through :func:`repro.core.kernels.run_pairs`
(which must accept the shape), one through the plain ``predict``/``update``
object loop.  Stats, the full table and queue state, and the confidence
table must agree after every chunk.

Streams mix per-PC global strides (value = an earlier value + a per-PC
offset, so the table locks distances), exact repeats and full-range 64-bit
noise, over a PC pool that aliases in every bounded table size drawn.
Chunk boundaries are drawn small on purpose, so chunks shorter than the
delay and shorter than the order come up.

The profile is derandomised and bounded for the tier-1 run.
"""

from array import array

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core import GDiffPredictor, HybridGDiffPredictor
from repro.core.kernels import run_pairs
from repro.core.table import DISTANCE_POLICIES
from repro.predictors import LastValuePredictor, StridePredictor
from repro.predictors.base import ConstantPredictor, PredictionStats
from repro.predictors.confidence import ConfidenceTable
from repro.wordops import WORD_MASK

from .test_kernel_equivalence import end_state, stats_tuple

#: Two low-bit slots times three high-bit tags: PCs 4 * 2^12 apart alias
#: in every bounded table drawn below (at most 2^12 entries).
PC_POOL = [0x400000 + 4 * slot + (tag << 14)
           for slot in range(2) for tag in range(3)]

FUZZ = settings(max_examples=250, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large,
                                       HealthCheck.function_scoped_fixture])

words = st.integers(0, WORD_MASK)
#: Small positive and negative strides plus arbitrary words: a negative
#: stride wraps almost every sum, so both residues of the match test occur.
offsets = st.one_of(st.integers(0, 16), st.integers(WORD_MASK - 16, WORD_MASK),
                    words)


@st.composite
def streams(draw):
    """A ``(pc, value)`` list with global stride locality plus noise."""
    npcs = draw(st.integers(1, len(PC_POOL)))
    pcs = PC_POOL[:npcs]
    lag = {pc: draw(st.integers(1, 45)) for pc in pcs}
    offset = {pc: draw(offsets) for pc in pcs}
    events = draw(st.lists(
        st.tuples(st.integers(0, npcs - 1), st.integers(0, 9), words),
        max_size=160))
    history = [draw(offsets) for _ in range(4)]
    pairs = []
    for which, kind, noise in events:
        pc = pcs[which]
        if kind < 6:
            back = min(lag[pc], len(history))
            value = (history[-back] + offset[pc]) & WORD_MASK
        elif kind < 8:
            value = history[-1 - kind % 2]
        else:
            value = noise
        pairs.append((pc, value))
        history.append(value)
    return pairs


@st.composite
def chunked(draw, pairs):
    """Split *pairs* into 1-3 chained chunks (boundaries biased small)."""
    cuts = sorted(draw(st.lists(st.integers(0, len(pairs)), max_size=2)))
    bounds = [0] + cuts + [len(pairs)]
    return [pairs[a:b] for a, b in zip(bounds, bounds[1:])]


entries_st = st.one_of(st.none(), st.integers(0, 12).map(lambda k: 1 << k))


@st.composite
def gdiff_cases(draw):
    kwargs = dict(
        order=draw(st.integers(1, 40)),
        entries=draw(entries_st),
        delay=draw(st.integers(0, 20)),
        policy=draw(st.sampled_from(DISTANCE_POLICIES)),
        refresh_on_match=draw(st.booleans()),
        track_conflicts=draw(st.booleans()),
    )
    return lambda: GDiffPredictor(**kwargs)


@st.composite
def hgvq_cases(draw):
    order = draw(st.integers(1, 40))
    entries = draw(entries_st)
    policy = draw(st.sampled_from(DISTANCE_POLICIES))
    refresh = draw(st.booleans())
    track = draw(st.booleans())
    filler = draw(st.sampled_from(["stride", "last-value", "constant"]))
    filler_entries = draw(entries_st)

    def make():
        if filler == "stride":
            fill = StridePredictor(entries=filler_entries)
        elif filler == "last-value":
            fill = LastValuePredictor(entries=filler_entries)
        else:
            fill = ConstantPredictor(0)
        predictor = HybridGDiffPredictor(order=order, entries=entries,
                                         filler=fill, policy=policy)
        predictor.table.refresh_on_match = refresh
        predictor.table.track_conflicts = track
        return predictor

    return make


def object_run(predictor, conf, pairs, stats):
    """The generic loop: predict, gate, score, train the gate, update."""
    for pc, actual in pairs:
        predicted = predictor.predict(pc)
        if conf is None:
            stats.record(predicted, actual)
        else:
            confident = predicted is not None and conf.is_confident(pc)
            stats.record(predicted, actual, confident)
            if predicted is not None:
                conf.train(pc, predicted == actual)
        predictor.update(pc, actual)


def assert_kernel_matches(factory, chunks, gated):
    kernel, reference = factory(), factory()
    kconf = ConfidenceTable() if gated else None
    rconf = ConfidenceTable() if gated else None
    for n, chunk in enumerate(chunks):
        kstats, rstats = PredictionStats(), PredictionStats()
        pcs = array("Q", [pc for pc, _ in chunk])
        values = array("Q", [value for _, value in chunk])
        assert run_pairs(kernel, pcs, values, kstats, kconf)
        object_run(reference, rconf, chunk, rstats)
        assert stats_tuple(kstats) == stats_tuple(rstats), f"chunk {n}"
        assert end_state(kernel) == end_state(reference), f"chunk {n}"
        if gated:
            assert kconf._table._data == rconf._table._data, f"chunk {n}"


@FUZZ
@given(data=st.data(), factory=gdiff_cases(), gated=st.booleans())
def test_gdiff_run_pairs_matches_object_path(data, factory, gated,
                                             monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "1")
    chunks = data.draw(chunked(data.draw(streams())))
    assert_kernel_matches(factory, chunks, gated)


@FUZZ
@given(data=st.data(), factory=hgvq_cases(), gated=st.booleans())
def test_hgvq_run_pairs_matches_object_path(data, factory, gated,
                                            monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "1")
    chunks = data.draw(chunked(data.draw(streams())))
    assert_kernel_matches(factory, chunks, gated)
