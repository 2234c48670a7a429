"""The scan executor is exact: a counter chain as a prefix sum.

A scan-shaped stage (:func:`repro.compiler.lower.scan_form`) updates
its register slot as ``x = wrap(a*x + b)``; the vector engine runs a
slot's chain of rows as one int64 prefix sum of ``b``, restarted where
``a == 0`` and wrapped once. This property draws the update from
:data:`tests.test_fuzz_equivalence.UPDATE_PATTERNS` (the six that
write the register; the compare-and-clamp one must be rejected),
optionally publishes the slot's old and new values to header fields,
optionally gates it behind a register read one stage earlier (a
conservative plan), and drives it with header values near ±2**31 over
1, 2 or ``size`` distinct slots, so running sums wrap several times and
one slot's chain spans many rows. Pump budgets of 1, 3 and unbounded
split the chains across sweeps. Stats, registers and every published
field must equal the fast engine's, and the dense engine's on short
traces.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.compiler import compile_program
from repro.mp5 import (
    MP5Config,
    MP5Switch,
    ReferenceSwitch,
    VectorSwitch,
    VectorUnsupported,
)
from repro.workloads import line_rate_trace

from tests.test_fuzz_equivalence import UPDATE_PATTERNS
from tests.test_vector_equivalence import _snapshot, _stream_vector

#: The patterns that write the register; the one at :data:`CLAMP`
#: compares the register's value, so it cannot scan.
WRITES = UPDATE_PATTERNS[:6]
CLAMP = 3

#: Header values near the int32 edges (and past them: a field load
#: wraps), so a few dozen additions wrap the sums several times.
EDGES = (2**31 - 1, 2**31 - 2, -(2**31), -(2**31) + 1, 2**31 + 3, 2**30, -5, 7)

#: Traces at most this long are also run on the dense engine.
DENSE_MAX = 90


def _source(pattern, size, scalar, publish, gated, c):
    reg = "r0" if scalar else f"r0[p.f0 % {size}]"
    update = pattern.format(r="r0", idx=f"p.f0 % {size}", a="f1", b="f2", c=c)
    if scalar:
        update = update.replace(f"r0[p.f0 % {size}]", "r0")
    body = []
    if "old" in publish:
        body.append(f"p.old = {reg};")
    body.append(update)
    if "new" in publish:
        body.append(f"p.new = {reg};")
    if gated:
        body = ["if (g % 3 != 1) {", *body, "}", "g = g + 1;"]
    decl = "int r0 = 5;" if scalar else f"int r0[{size}] = {{5}};"
    return (
        "struct Packet { int f0; int f1; int f2; int f3; int old; int new; };\n"
        f"{decl}\nint g = 0;\n"
        "void func(struct Packet p) {\n    " + "\n    ".join(body) + "\n}\n"
    )


def _headers(packets):
    return [(p.headers.get("old", 0), p.headers.get("new", 0)) for p in packets]


def _scalar(switch_cls, program, config, trace):
    """Stats, registers and published fields of a scalar run. The audit
    mode keeps the engine's packets; the access log it also records,
    which the vector engine does not, is left out of the stats."""
    switch = switch_cls(program, config)
    stats = switch.run(trace, record_access_order=True)
    stats.access_order = {}
    return stats, switch.public_registers(), _headers(switch.packets)


def _columns(switch, n):
    """The vector engine's published fields, as :func:`_headers` reads
    them (a field no stage writes has no column and reads 0)."""
    old, new = (
        switch._H[f][:n].tolist() if f in switch._H else [0] * n
        for f in ("old", "new")
    )
    return list(zip(old, new))


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    pattern=st.integers(0, len(WRITES) - 1),
    size=st.sampled_from((1, 3, 16)),
    keys=st.sampled_from(("one", "two", "size")),
    scalar=st.booleans(),
    publish=st.sampled_from(((), ("old",), ("new",), ("old", "new"))),
    gated=st.booleans(),
    c=st.integers(1, 9),
    n=st.integers(40, 200),
    seed=st.integers(0, 2**16),
)
def test_scan_matches_serial_chain(
    pattern, size, keys, scalar, publish, gated, c, n, seed
):
    program = compile_program(
        _source(WRITES[pattern], size, scalar, publish, gated, c)
    )
    config = MP5Config(num_pipelines=4, remap_period=7)
    try:
        switch = VectorSwitch(program, config)
    except VectorUnsupported as exc:
        # A write under a header-only condition, and no unconditional
        # read, is a resolvable access guard: outside the envelope.
        assert str(exc) == "resolvable access guard"
        assume(False)
    (plan,) = [p for p in switch._vplans if p.base == "r0"]
    assert (plan.scan is not None) == (pattern != CLAMP)
    span = {"one": 1, "two": 2, "size": size}[keys]

    def trace():
        return line_rate_trace(
            n,
            4,
            lambda r, _i: {
                "f0": int(r.integers(0, span)),
                "f1": EDGES[int(r.integers(0, len(EDGES)))],
                "f2": EDGES[int(r.integers(0, len(EDGES)))],
                "f3": 0,
            },
            seed=seed,
        )

    want = _scalar(MP5Switch, program, config, trace())
    if n <= DENSE_MAX:
        assert _scalar(ReferenceSwitch, program, config, trace()) == want
    for budget in (1, 3, None):
        switch, stats = _stream_vector(
            program, trace(), config, [17, 50], max_steps=budget
        )
        got = _snapshot(switch, stats)[:2] + (_columns(switch, n),)
        assert got == want, budget


#: Update shapes beyond :data:`WRITES`, in its placeholders: ``x =
#: wrap(a*x + b)`` with ``a`` in {0, 1} scans; a negated, doubled,
#: multiplied, divided, masked, tested or clamped ``x`` does not.
SHAPES = (
    ("{r}[{idx}] = {r}[{idx}] - p.{a};", True),
    ("{r}[{idx}] = p.{a} + 1 + {r}[{idx}] - 3;", True),
    ("{r}[{idx}] = (p.{a} > 3) ? {r}[{idx}] + p.{a} : p.{b};", True),
    ("{r}[{idx}] = p.{a} - {r}[{idx}];", False),
    ("{r}[{idx}] = -{r}[{idx}];", False),
    ("{r}[{idx}] = {r}[{idx}] + {r}[{idx}];", False),
    ("{r}[{idx}] = {r}[{idx}] * 2;", False),
    ("{r}[{idx}] = {r}[{idx}] / 2;", False),
    ("{r}[{idx}] = {r}[{idx}] & 7;", False),
    ("{r}[{idx}] = {r}[{idx}] ? p.{a} : 1;", False),
    ("{r}[{idx}] = max({r}[{idx}], p.{a});", False),
)


@pytest.mark.parametrize(
    "update, verdict",
    [(p, i != CLAMP) for i, p in enumerate(WRITES)] + list(SHAPES),
    ids=[f"pattern{i}" for i in range(len(WRITES))]
    + [f"shape{i}" for i in range(len(SHAPES))],
)
def test_classifier_verdicts(update, verdict):
    """Every register-writing fuzz pattern scans but the
    compare-and-clamp one, and :data:`SHAPES` scan as marked, on a
    sharded array and on a scalar."""
    for scalar in (False, True):
        program = compile_program(_source(update, 16, scalar, ("old",), False, 3))
        (plan,) = [p for p in VectorSwitch(program)._vplans if p.base == "r0"]
        assert (plan.scan is not None) == verdict
