"""Differential fuzzing: the pipeline kernel vs the object core.

Hypothesis draws a random well-formed instruction stream, packs it with
:meth:`PackedTrace.from_instructions` (the only input the kernel takes),
and crosses it with a random :class:`ProcessorConfig` — width, ROB, function
units, d-cache ports, small cache geometries, every latency including 0 —
and a value-prediction adapter: none, stride, DFCM, last-value, SGVQ or
HGVQ, gated by the default confidence threshold or ungated (threshold 0),
over small aliasing tables, with the gDiff tables' distance policy and
refresh rule drawn too.  Speculative value use, a ``max_cycles`` bound
and a two-slice chained run through one core are drawn as well.

The reference runs :meth:`OutOfOrderCore.run` under ``REPRO_KERNELS=0``.
The kernel side calls :func:`repro.pipeline.kernels.run_fast` directly
under ``REPRO_KERNELS=1`` and asserts it accepted the shape, so every
example really reaches the kernel; it runs twice on fresh cores, so a
passive second run replays the first one's timing memo.  Results,
predictor/queue/confidence state and cache/branch state must agree.

The profile is derandomised and bounded for the tier-1 run.
"""

import os
from contextlib import contextmanager

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.table import DISTANCE_POLICIES
from repro.pipeline.config import CacheConfig, ProcessorConfig
from repro.pipeline.kernels import run_fast
from repro.pipeline.ooo import OutOfOrderCore
from repro.pipeline.vp import HGVQAdapter, LocalPredictorAdapter, SGVQAdapter
from repro.predictors.confidence import ConfidenceTable
from repro.predictors.dfcm import DFCMPredictor
from repro.predictors.last_value import LastValuePredictor
from repro.predictors.stride import StridePredictor
from repro.trace import Instruction, OpClass, branch, ialu, load, store
from repro.trace.packed import PackedTrace
from repro.wordops import WORD_MASK

from .test_pipeline_equivalence import snap_core, snap_result, snap_vp

FUZZ = settings(max_examples=100, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large,
                                       HealthCheck.function_scoped_fixture])

_regs = st.integers(min_value=1, max_value=12)
_words = st.integers(0, WORD_MASK)
#: Small positive and negative offsets plus arbitrary words, so value
#: chains carry global strides and wrap mod 2^64.
_offsets = st.one_of(st.integers(0, 8), st.integers(WORD_MASK - 8, WORD_MASK),
                     _words)
_tables = st.sampled_from((None, 4, 16))


@st.composite
def streams(draw, max_len=160):
    """Instructions over a looping PC pool.  Each PC's values follow a
    local stride off its own last value or a global stride off the value
    *lag* value-producers back, broken by exact repeats and full-range
    noise."""
    n = draw(st.integers(1, max_len))
    npcs = draw(st.integers(1, 16))
    local = [draw(st.booleans()) for _ in range(npcs)]
    lag = [draw(st.integers(1, 6)) for _ in range(npcs)]
    offset = [draw(_offsets) for _ in range(npcs)]
    last = [0] * npcs
    history = [0]
    insns = []
    for i in range(n):
        slot = i % npcs
        pc = 0x1000 + slot * 4
        kind = draw(st.integers(0, 9))
        if kind < 7:
            mode = draw(st.integers(0, 7))
            if mode < 6:
                base = last[slot] if local[slot] else \
                    history[-min(lag[slot], len(history))]
                value = (base + offset[slot]) & WORD_MASK
            elif mode < 7:
                value = history[-1]
            else:
                value = draw(_words)
            last[slot] = value
            history.append(value)
            if kind < 5:
                insns.append(ialu(pc, draw(_regs), value, srcs=tuple(
                    draw(st.lists(_regs, max_size=2)))))
            else:
                insns.append(load(pc, draw(_regs), value,
                                  0x100000 + 8 * draw(st.integers(0, 600)),
                                  srcs=tuple(draw(st.lists(_regs,
                                                           max_size=1)))))
        elif kind < 8:
            insns.append(store(pc, 0x100000 + 8 * draw(st.integers(0, 600)),
                               srcs=(draw(_regs),)))
        elif kind < 9:
            insns.append(branch(pc, draw(st.booleans()), 0x1000,
                                srcs=tuple(draw(st.lists(_regs,
                                                         max_size=1)))))
        else:
            insns.append(Instruction(pc=pc, op=OpClass.NOP))
    return insns


@st.composite
def caches(draw, max_penalty):
    line = draw(st.sampled_from((16, 64)))
    ways = draw(st.sampled_from((1, 2, 4)))
    sets = draw(st.sampled_from((1, 4, 64)))
    return CacheConfig(line * ways * sets, ways, line,
                       draw(st.integers(0, max_penalty)))


@st.composite
def configs(draw):
    lat = st.integers(0, 3)
    return ProcessorConfig(
        width=draw(st.integers(1, 4)),
        rob_entries=draw(st.integers(1, 40)),
        function_units=draw(st.integers(1, 4)),
        dcache_ports=draw(st.integers(1, 4)),
        icache=draw(caches(12)),
        dcache=draw(caches(20)),
        ialu_latency=draw(lat),
        agen_latency=draw(lat),
        dcache_hit_latency=draw(lat),
        branch_latency=draw(lat),
        pipe_overhead=draw(lat),
        redirect_penalty=draw(lat),
        gshare_history_bits=draw(st.integers(1, 12)),
    )


@st.composite
def recipes(draw):
    """An adapter recipe ``(kind, threshold, params)``; :func:`build`
    makes a fresh adapter from it for each side of the comparison."""
    # Hypothesis favours the first choices; the gDiff kinds hold the
    # most kernel state, so they lead.
    kind = draw(st.sampled_from(("hgvq", "sgvq", "stride", "dfcm", "lv",
                                 None)))
    threshold = draw(st.sampled_from((None, 0)))
    if kind in ("sgvq", "hgvq"):
        params = (draw(st.integers(1, 8)), draw(_tables),
                  draw(st.sampled_from(DISTANCE_POLICIES)),
                  draw(st.booleans()), draw(st.sampled_from((1, 2, 4, 48))))
    else:
        params = (draw(_tables), draw(st.booleans()), draw(st.integers(1, 3)))
    return kind, threshold, params


def build(recipe):
    kind, threshold, params = recipe
    if kind is None:
        return None
    conf = None if threshold is None else ConfidenceTable(threshold=threshold)
    if kind in ("stride", "dfcm", "lv"):
        entries, spec_update, order = params
        inner = {"stride": lambda: StridePredictor(entries=entries),
                 "dfcm": lambda: DFCMPredictor(order=order,
                                               l1_entries=entries),
                 "lv": lambda: LastValuePredictor(entries=entries)}[kind]()
        return LocalPredictorAdapter(inner, confidence=conf,
                                     spec_update=spec_update)
    order, entries, policy, refresh, slack = params
    if kind == "sgvq":
        vp = SGVQAdapter(order=order, entries=entries, confidence=conf)
        table = vp.gdiff.table
    else:
        # A ring barely above the order makes late deposits occur.
        vp = HGVQAdapter(order=order, entries=entries, confidence=conf,
                         capacity=order + slack)
        table = vp.hybrid.table
    table.policy = policy
    table.refresh_on_match = refresh
    return vp


@contextmanager
def kernels(flag):
    """Run the body with ``REPRO_KERNELS`` set to *flag*."""
    old = os.environ.get("REPRO_KERNELS")
    os.environ["REPRO_KERNELS"] = flag
    try:
        yield
    finally:
        if old is None:
            del os.environ["REPRO_KERNELS"]
        else:
            os.environ["REPRO_KERNELS"] = old


def simulate(run, trace, cfg, recipe, speculate, max_cycles, split):
    """Run *trace* (as two chained slices when *split*) through one core;
    snapshot every result plus the end state."""
    vp = build(recipe)
    core = OutOfOrderCore(config=cfg, value_predictor=vp,
                          speculate=speculate, track_value_delay=True)
    parts = [trace] if split is None else [trace[0:split],
                                           trace[split:len(trace)]]
    results = tuple(snap_result(run(core, part, max_cycles))
                    for part in parts)
    return results, snap_vp(vp), snap_core(core)


def object_run(core, trace, max_cycles):
    return core.run(trace, max_cycles=max_cycles)


def kernel_run(core, trace, max_cycles):
    result = run_fast(core, trace, max_cycles)
    assert result is not None, "the kernel declined a supported shape"
    return result


@given(streams(), configs(), recipes(), st.booleans(),
       st.one_of(st.none(), st.integers(0, 300)), st.data())
@FUZZ
def test_kernel_matches_object_core(stream, cfg, recipe, speculate,
                                    max_cycles, data):
    trace = PackedTrace.from_instructions(stream, name="fuzz")
    split = data.draw(st.one_of(st.none(),
                                st.integers(0, len(trace))), label="split")
    args = (trace, cfg, recipe, speculate, max_cycles, split)
    with kernels("0"):
        ref = simulate(object_run, *args)
    with kernels("1"):
        first = simulate(kernel_run, *args)
        again = simulate(kernel_run, *args)
    assert first == ref
    assert again == ref
