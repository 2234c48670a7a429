"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import compile_program
from repro.domino.builtins import MASK32, hash_tuple
from repro.equivalence import check_equivalence
from repro.mp5 import (
    DataPacket,
    MP5Config,
    PhantomPacket,
    ShardingRuntime,
    StageFifoGroup,
)
from repro.workloads import EmpiricalCDF, SkewedAccess, line_rate_trace

slow = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# FIFO invariants
# ----------------------------------------------------------------------


@st.composite
def fifo_script(draw):
    """A random interleaving: phantoms pushed in id order, data packets
    inserted in a random order."""
    count = draw(st.integers(min_value=1, max_value=12))
    order = draw(st.permutations(list(range(count))))
    buffers = draw(st.integers(min_value=1, max_value=4))
    return count, list(order), buffers


@given(fifo_script())
@slow
def test_fifo_pops_follow_phantom_order(script):
    """Whatever order data packets arrive in, pops follow the phantom
    (arrival) order — the heart of D4."""
    count, insert_order, buffers = script
    fifo = StageFifoGroup(num_pipelines=buffers)
    for i in range(count):
        fifo.push(
            PhantomPacket(
                pkt_id=i, array="r", index=0, pipeline=0, stage=1, created_tick=i
            ),
            fifo_id=i % buffers,
            tick=i,
        )
    popped = []
    inserted = 0
    while len(popped) < count:
        progressed = False
        if inserted < count:
            pkt_id = insert_order[inserted]
            assert fifo.insert(
                DataPacket(pkt_id=pkt_id, arrival=0.0, port=0, headers={}),
                tick=100 + inserted,
            )
            inserted += 1
            progressed = True
        while True:
            out = fifo.pop()
            if out is None:
                break
            popped.append(out.pkt_id)
            progressed = True
        assert progressed, "FIFO deadlocked"
    assert popped == list(range(count))


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=30
    )
)
@slow
def test_fifo_occupancy_never_negative_and_bounded(ops):
    """Random push/pop sequences keep occupancy consistent."""
    fifo = StageFifoGroup(num_pipelines=4, capacity=4)
    pushed = 0
    next_id = 0
    for fifo_id, do_pop in ops:
        if do_pop:
            out = fifo.pop()
            if out is not None:
                pushed -= 1
        else:
            ok = fifo.push(
                DataPacket(pkt_id=next_id, arrival=0.0, port=0, headers={}),
                fifo_id,
                tick=next_id,
            )
            next_id += 1
            if ok:
                pushed += 1
    assert fifo.occupancy() == pushed
    assert 0 <= pushed <= 16


# ----------------------------------------------------------------------
# Sharding invariants
# ----------------------------------------------------------------------


@given(
    size=st.integers(min_value=1, max_value=64),
    k=st.integers(min_value=1, max_value=8),
    counts=st.lists(st.integers(0, 1000), min_size=1, max_size=64),
)
@slow
def test_remap_never_worsens_balance(size, k, counts):
    rt = ShardingRuntime([("r", size, True, "r")], k, rng=np.random.default_rng(0))
    state = rt.arrays["r"]
    rt.note_counts("r", np.array(counts[:size] + [0] * (size - len(counts))))

    def imbalance():
        loads = np.zeros(k, dtype=np.int64)
        np.add.at(loads, state.index_to_pipeline, state.access_counts)
        return int(loads.max() - loads.min())

    before = imbalance()
    rt.remap_heuristic("r")
    assert imbalance() <= before


@given(
    size=st.integers(min_value=1, max_value=64),
    k=st.integers(min_value=1, max_value=8),
)
@slow
def test_every_index_always_mapped_to_valid_pipeline(size, k):
    rt = ShardingRuntime(
        [("r", size, True, "r")], k, initial="random", rng=np.random.default_rng(1)
    )
    state = rt.arrays["r"]
    rt.note_counts("r", np.arange(size))
    rt.end_epoch("optimal")
    assert ((state.index_to_pipeline >= 0) & (state.index_to_pipeline < k)).all()


# ----------------------------------------------------------------------
# Distributions
# ----------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(st.integers(1, 10**6), st.integers(0, 1000)),
        min_size=2,
        max_size=10,
    ).map(
        lambda pts: sorted(
            {(v, p) for v, p in pts}, key=lambda x: (x[1], x[0])
        )
    )
)
@slow
def test_cdf_samples_stay_in_support(points):
    values = sorted(v for v, _p in points)
    probs = sorted(p for _v, p in points)
    if probs[0] == probs[-1]:
        return  # degenerate, cannot normalize
    norm = [
        (v, (p - probs[0]) / (probs[-1] - probs[0]))
        for v, p in zip(values, probs)
    ]
    cdf = EmpiricalCDF(norm)
    rng = np.random.default_rng(0)
    for _ in range(20):
        sample = cdf.sample(rng)
        assert values[0] <= sample <= values[-1]


@given(
    size=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=1000),
)
@slow
def test_skewed_access_in_range(size, seed):
    sampler = SkewedAccess(size=size)
    rng = np.random.default_rng(seed)
    for _ in range(50):
        assert 0 <= sampler.sample(rng) < size


@given(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=6))
def test_hash_tuple_range_and_determinism(values):
    h = hash_tuple(values)
    assert 0 <= h < 2**31
    assert h == hash_tuple(values)
    assert h == (h & MASK32)


# ----------------------------------------------------------------------
# End-to-end: equivalence over random traffic
# ----------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    k=st.sampled_from([2, 4]),
    spread=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=10, deadline=None)
def test_mp5_always_equivalent_on_heavy_hitter(seed, k, spread):
    """MP5 is functionally equivalent to the single pipeline for *any*
    traffic — randomized source populations and pipeline widths."""
    program = compile_program("heavy_hitter")
    trace = line_rate_trace(
        250,
        k,
        lambda rng, i: {"src_ip": int(rng.integers(0, spread)), "hot": 0},
        seed=seed,
    )
    report = check_equivalence(program, trace, MP5Config(num_pipelines=k))
    assert report.equivalent
    assert report.c1_violating_packets == 0


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    mux_bias=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=10, deadline=None)
def test_mp5_always_equivalent_on_figure3(seed, mux_bias):
    program = compile_program("figure3")
    trace = line_rate_trace(
        200,
        2,
        lambda rng, i: {
            "h1": int(rng.integers(0, 4)),
            "h2": int(rng.integers(0, 4)),
            "h3": int(rng.integers(0, 4)),
            "mux": int(rng.random() < mux_bias),
            "val": 0,
        },
        seed=seed,
    )
    report = check_equivalence(program, trace, MP5Config(num_pipelines=2))
    assert report.equivalent


# ----------------------------------------------------------------------
# Interpreter vs JIT on raw operations
# ----------------------------------------------------------------------


@given(
    a=st.integers(-(2**31), 2**31 - 1),
    b=st.integers(-(2**31), 2**31 - 1),
    op=st.sampled_from(
        ["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=",
         "&&", "||", "&", "|", "^", "<<", ">>"]
    ),
)
@settings(max_examples=200, deadline=None)
def test_jit_matches_interpreter_per_operator(a, b, op):
    """For every binary operator and random 32-bit operands, the compiled
    code computes exactly what the interpreter computes."""
    from repro.compiler.jit import compile_instrs
    from repro.compiler.tac import Const, OpKind, TacEvaluator, TacInstr, Temp

    instr = TacInstr(
        OpKind.BINARY, dest=Temp("r"), op=op, args=[Const(a), Const(b)]
    )
    interp = TacEvaluator({}, {})
    interp.run([instr])
    env = {}
    compile_instrs([instr], name="op")({}, {}, env, None)
    assert env["r"] == interp.env[Temp("r")], (op, a, b)
