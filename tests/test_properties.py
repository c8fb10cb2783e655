"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distribution import ArrayDistribution, AxisMapping, DimDistribution, ProcessorGrid
from repro.distribution import layout
from repro.frontend.lexer import tokenize_line
from repro.frontend.parser import parse_expression
from repro.frontend.symbols import eval_const_expr
from repro.simulator import Message, Network
from repro.system import CommunicationComponent, p2p_time
from repro.system.topology import ecube_route, hamming_distance, make_topology

common_settings = settings(max_examples=60, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# distribution algebra invariants
# ---------------------------------------------------------------------------


@common_settings
@given(n=st.integers(1, 500), p=st.integers(1, 16))
def test_block_ownership_is_a_partition(n, p):
    """Every global index is owned by exactly one processor; counts sum to n."""
    owners = [layout.block_owner(i, n, p) for i in range(n)]
    assert all(0 <= o < p for o in owners)
    counts = [layout.block_local_count(q, n, p) for q in range(p)]
    assert sum(counts) == n
    assert max(counts) - min(counts) <= layout.block_size(n, p)


@common_settings
@given(n=st.integers(1, 500), p=st.integers(1, 16))
def test_block_global_local_bijection(n, p):
    for i in range(0, n, max(n // 13, 1)):
        owner = layout.block_owner(i, n, p)
        local = layout.block_global_to_local(i, n, p)
        assert layout.block_local_to_global(owner, local, n, p) == i
        assert 0 <= local < layout.block_size(n, p)


@common_settings
@given(n=st.integers(1, 400), p=st.integers(1, 12), b=st.integers(1, 5))
def test_cyclic_ownership_is_a_partition(n, p, b):
    counts = [layout.cyclic_local_count(q, n, p, b) for q in range(p)]
    assert sum(counts) == n
    gathered = np.concatenate([layout.cyclic_local_indices(q, n, p, b) for q in range(p)])
    assert sorted(gathered.tolist()) == list(range(n))


@common_settings
@given(n=st.integers(1, 300), p=st.integers(1, 12), b=st.integers(1, 4))
def test_cyclic_round_trip(n, p, b):
    step = max(n // 11, 1)
    for i in range(0, n, step):
        owner = layout.cyclic_owner(i, p, b)
        local = layout.cyclic_global_to_local(i, p, b)
        assert layout.cyclic_local_to_global(owner, local, p, b) == i


@common_settings
@given(
    rows=st.integers(1, 40), cols=st.integers(1, 40),
    p0=st.integers(1, 4), p1=st.integers(1, 4),
    kind0=st.sampled_from(["block", "cyclic", "collapsed"]),
    kind1=st.sampled_from(["block", "cyclic", "collapsed"]),
)
def test_array_distribution_local_sizes_sum_to_global(rows, cols, p0, p1, kind0, kind1):
    grid = ProcessorGrid("p", (p0, p1))
    axes = [
        AxisMapping(extent=rows, dist=DimDistribution(kind0),
                    nprocs=p0 if kind0 != "collapsed" else 1,
                    grid_axis=0 if kind0 != "collapsed" else None),
        AxisMapping(extent=cols, dist=DimDistribution(kind1),
                    nprocs=p1 if kind1 != "collapsed" else 1,
                    grid_axis=1 if kind1 != "collapsed" else None),
    ]
    dist = ArrayDistribution(name="a", shape=(rows, cols), axes=axes, grid=grid)
    # summing local sizes over processors counts each element once per processor
    # that replicates it (collapsed axes replicate along the unused grid axis)
    replication = 1
    if kind0 == "collapsed":
        replication *= p0
    if kind1 == "collapsed":
        replication *= p1
    total = sum(dist.local_size(r) for r in grid.all_ranks())
    assert total == rows * cols * replication
    # the owner of every element owns it locally
    for i in range(0, rows, max(rows // 5, 1)):
        for j in range(0, cols, max(cols // 5, 1)):
            rank = dist.owner_rank((i, j))
            assert i in dist.local_indices(rank, 0)
            assert j in dist.local_indices(rank, 1)


@st.composite
def _axis_mappings(draw):
    """BLOCK, CYCLIC(k) or collapsed axes, aligned with an offset to a
    template that may be shorter or longer than the array."""
    kind = draw(st.sampled_from(["block", "cyclic", "collapsed"]))
    block = draw(st.integers(1, 6)) if kind == "cyclic" else 1
    extent = draw(st.integers(0, 120))
    template_extent = draw(st.one_of(
        st.none(), st.just(extent), st.integers(0, extent + 20)))
    return AxisMapping(extent=extent, dist=DimDistribution(kind, block),
                       nprocs=draw(st.integers(1, 16)), grid_axis=0,
                       template_extent=template_extent,
                       offset=draw(st.one_of(st.just(0),
                                             st.integers(-10, 10))))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(axis=_axis_mappings())
def test_axis_local_counts_match_local_indices(axis):
    """The index-arithmetic counts agree with the array-building oracle."""
    lengths = [len(axis.local_indices(q)) for q in range(axis.nprocs)]
    assert [axis.local_count(q) for q in range(axis.nprocs)] == lengths
    assert axis.max_local_count() == max(lengths)


@common_settings
@given(p=st.integers(1, 64), rank=st.integers(1, 3))
def test_default_grid_shape_preserves_processor_count(p, rank):
    shape = layout.default_grid_shape(p, rank)
    total = 1
    for extent in shape:
        total *= extent
    assert total == p and len(shape) == rank


# ---------------------------------------------------------------------------
# frontend robustness
# ---------------------------------------------------------------------------


_EXPR_NAMES = st.sampled_from(["a", "b", "x1", "zz"])


@st.composite
def _arith_expr(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return str(draw(st.integers(1, 99)))
        if choice == 1:
            return f"{draw(st.floats(0.1, 99.0, allow_nan=False)):.3f}"
        return draw(_EXPR_NAMES)
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    left = draw(_arith_expr(depth=depth + 1))
    right = draw(_arith_expr(depth=depth + 1))
    return f"({left} {op} {right})"


@common_settings
@given(text=_arith_expr())
def test_generated_expressions_parse_and_evaluate(text):
    expr = parse_expression(text)
    env = {"a": 1.5, "b": 2.5, "x1": 3.0, "zz": 4.0}
    try:
        value = eval_const_expr(expr, env)
    except Exception as exc:  # division by zero is the only acceptable failure
        assert "zero" in str(exc)
        return
    reference = eval(text.replace("/", "/"), {}, env)  # noqa: S307 - controlled input
    assert value == pytest.approx(reference, rel=1e-9, abs=1e-9)


@common_settings
@given(text=st.text(alphabet="abcxyz0123456789+-*/()=., ", min_size=0, max_size=40))
def test_lexer_never_crashes_unexpectedly(text):
    """The lexer either tokenises or raises its own LexerError — nothing else."""
    from repro.frontend.errors import LexerError

    try:
        tokens = tokenize_line(text, 1)
    except LexerError:
        return
    assert all(token.line == 1 for token in tokens)


# ---------------------------------------------------------------------------
# simulator invariants
# ---------------------------------------------------------------------------


@common_settings
@given(src=st.integers(0, 31), dst=st.integers(0, 31))
def test_ecube_route_reaches_destination(src, dst):
    route = ecube_route(src, dst)
    assert len(route) == hamming_distance(src, dst)
    current = src
    for a, b in route:
        assert a == current
        assert hamming_distance(a, b) == 1
        current = b
    assert current == dst


@common_settings
@given(nbytes=st.integers(0, 1 << 16), hops=st.integers(1, 6))
def test_p2p_time_monotone_and_at_least_latency(nbytes, hops):
    comm = CommunicationComponent()
    t = p2p_time(comm, nbytes, hops)
    assert t >= comm.startup_latency
    assert p2p_time(comm, nbytes + 1024, hops) > t - 1e-9
    assert p2p_time(comm, nbytes, hops + 1) > t


@common_settings
@given(
    sizes=st.lists(st.integers(1, 4096), min_size=1, max_size=6),
    pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=6),
)
def test_network_transfer_completions_are_consistent(sizes, pairs):
    comm = CommunicationComponent()
    network = Network(comm, 8)
    messages = [Message(src=s, dst=d, nbytes=sizes[i % len(sizes)])
                for i, (s, d) in enumerate(pairs) if s != d]
    if not messages:
        return
    result = network.transfer(messages)
    for msg in messages:
        assert msg.recv_complete >= msg.start_time
        assert msg.recv_complete >= comm.latency(msg.nbytes)
        assert result.recv_complete[msg.dst] >= msg.start_time


@common_settings
@given(specs=st.lists(
    st.tuples(st.sampled_from((0.0, 2.5)) | st.floats(-50.0, 300.0),
              st.integers(0, 7), st.integers(0, 7), st.integers(1, 4000)),
    min_size=1, max_size=12, unique_by=lambda spec: spec[:3]))
def test_network_transfer_ignores_input_order(specs):
    """With distinct ``(start_time, src, dst)`` keys the per-message drain
    prices messages in key order, so any order of its input gives the same
    completions, per message and per node."""
    comm = CommunicationComponent()
    outcomes = []
    for ordered in (specs, specs[::-1], sorted(specs, key=lambda spec: spec[3])):
        messages = {spec: Message(src=spec[1], dst=spec[2], nbytes=spec[3],
                                  start_time=spec[0]) for spec in ordered}
        result = Network(comm, 8).transfer(list(messages.values()))
        outcomes.append((
            {spec: (m.send_complete, m.recv_complete) for spec, m in messages.items()},
            result.send_complete, result.recv_complete))
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


@st.composite
def _network_stages(draw):
    """One stage on one fabric: ``(kind, p, [(start, src, dst, nbytes)])``.

    Five shapes reach every stage verdict and every fact a route records:
    endpoints from a small pool of nodes (sources repeat, links collide,
    some messages are self-messages), both directions of a
    recursive-doubling exchange (paired on single-link routes), distinct
    sources with destinations anywhere (disjoint, or colliding links
    without a shared NIC; on the 100-node hypercube some e-cube routes
    leave the partition), a permutation of distinct sources (distinct
    destinations too), and distinct sources whose routes all have one hop
    count.  Start times mostly tie, and some are negative, which both
    drains clamp to 0; sizes straddle the long-message threshold and the
    packet size of the default parameters.
    """
    kind = draw(st.sampled_from(("hypercube", "mesh", "torus", "fattree", "switch")))
    p = draw(st.sampled_from((3, 8, 64, 100)))
    shape = draw(st.sampled_from(("pool", "exchange", "spread", "permutation",
                                  "uniform")))
    if shape == "pool":
        pool = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=10))
        node = st.sampled_from(pool) | st.integers(0, p - 1)
        pairs = draw(st.lists(st.tuples(node, node), min_size=1, max_size=24))
    elif shape == "exchange":
        span = 1 << draw(st.integers(0, p.bit_length() - 2))
        lows = draw(st.lists(st.sampled_from(
            [i for i in range(p) if i < i ^ span < p]), min_size=1, max_size=16,
            unique=True))
        pairs = [(i, i ^ span) for i in lows] + [(i ^ span, i) for i in lows]
    elif shape == "permutation":
        sources = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=24,
                                unique=True))
        pairs = list(zip(sources, draw(st.permutations(sources))))
    else:
        sources = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=24,
                                unique=True))
        pairs = [(s, draw(st.integers(0, p - 1))) for s in sources]
        if shape == "uniform":
            topology = make_topology(kind, p)
            length = topology.hops(*pairs[0])
            pairs = [pair for pair in pairs if topology.hops(*pair) == length]
    start = st.sampled_from((0.0, 3.5, 12.25)) | st.floats(-100.0, 400.0)
    specs = [(draw(start), s, d, draw(st.integers(1, 4000))) for s, d in pairs]
    return kind, p, specs


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stage=_network_stages())
def test_array_drain_equals_heap_on_every_topology(stage):
    """``Network.drain_stage`` equals the per-message drain
    (``Network.transfer``) bit for bit on every stage verdict, and
    ``route_matrix`` agrees with ``route``/``link_id``.

    Each stage is classified once and its route drained twice, the second
    time with its start times reversed, so one route serves a second
    dispatch order.  p=100 is a hypercube partition that is not a power of
    two, where some rows take the partition-safe route.
    """
    kind, p, specs = stage
    topology = make_topology(kind, p)
    start = np.array([t for t, _, _, _ in specs])
    src = np.array([s for _, s, _, _ in specs], dtype=np.int64)
    dst = np.array([d for _, _, d, _ in specs], dtype=np.int64)
    nbytes = np.array([n for _, _, _, n in specs], dtype=np.int64)

    links, hops = topology.route_matrix(src, dst)
    ids = {}
    for k, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
        route = topology.route(s, d)
        assert hops[k] == len(route)
        assert (links[k, len(route):] == -1).all()
        for h, (a, b) in enumerate(route):
            assert ids.setdefault(topology.link_id(a, b), links[k, h]) == links[k, h]
    assert len(set(ids.values())) == len(ids)

    comm = CommunicationComponent()
    network = Network(comm, p, topology)
    route = network.stage_route_info(src, dst)
    assert route.distinct_dst == (len(set(dst.tolist())) == len(dst))
    assert route.uniform_hops == (len(set(hops.tolist())) == 1)
    for starts in (start, start[::-1].copy()):
        send, recv = network.drain_stage(route, starts, nbytes)
        heap = Network(comm, p, topology).transfer(
            [Message(src=int(s), dst=int(d), nbytes=int(n), start_time=float(t))
             for t, s, d, n in zip(starts, src, dst, nbytes)])
        expected_send = np.array([heap.send_complete.get(i, -np.inf) for i in range(p)])
        expected_recv = np.array([heap.recv_complete.get(i, -np.inf) for i in range(p)])
        assert send.tobytes() == expected_send.tobytes()
        assert recv.tobytes() == expected_recv.tobytes()
