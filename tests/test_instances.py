import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bfs_distances, metric_report_loop, random_connected_graph
from pathtsp.errors import InvalidInstanceError, NotConnectedError, ParseError
from pathtsp.exact import exact_path_tsp
from pathtsp.instances import (
    TRIANGLE_TOL,
    EdgeVector,
    GraphicalInstance,
    Instance,
    generate_random_metric,
    metric_closure,
    read_instance,
    validate_metric,
    write_instance,
)


def test_triangle_violation_reported():
    cost = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    inst = Instance(cost=cost, s=0, t=2)
    report = validate_metric(inst)
    assert any(v.kind == "triangle" and v.where == (0, 1, 2) for v in report)


def test_two_vertex_instance_always_valid():
    inst = Instance(cost=np.array([[0.0, 5.0], [5.0, 0.0]]), s=0, t=1)
    assert validate_metric(inst) == []


def test_euclidean_points_valid():
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    cost = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    inst = Instance(cost=cost, s=0, t=1)
    assert validate_metric(inst) == []


def test_asymmetry_and_negativity_reported():
    cost = np.array([[0.0, 1.0], [2.0, 0.0]])
    inst = Instance(cost=cost, s=0, t=1)
    kinds = {v.kind for v in validate_metric(inst)}
    assert "symmetry" in kinds

    # several kinds at once: the report's entries, amounts and order are pinned
    cost = np.full((5, 5), 2.0)
    np.fill_diagonal(cost, 0.0)
    cost[0, 0] = 0.5
    cost[0, 1], cost[1, 0] = -0.5, 0.5
    cost[1, 3] = 5.0
    cost[2, 4] = cost[4, 2] = np.nan
    cost[3, 4] = cost[4, 3] = 0.25
    report = validate_metric(Instance(cost=cost, s=0, t=4))
    assert [(v.kind, v.where, v.amount) for v in report] == [
        ("diagonal", (0,), 0.5),
        ("symmetry", (0, 1), -1.0),
        ("negative", (0, 1), -0.5),
        ("symmetry", (1, 3), 3.0),
        ("nonfinite", (2, 4), 0.0),
        ("triangle", (0, 1, 2), 0.5),
        ("triangle", (0, 1, 4), 0.5),
        ("triangle", (1, 0, 3), 2.5),
        ("triangle", (1, 2, 3), 1.0),
        ("triangle", (1, 4, 3), 2.75),
    ]


def test_endpoints_must_differ():
    with pytest.raises(InvalidInstanceError):
        Instance(cost=np.zeros((3, 3)), s=1, t=1)


def test_metric_closure_path_graph():
    g = GraphicalInstance(3, ((0, 2), (2, 1)), 0, 1)
    inst = metric_closure(g)
    assert inst.c(0, 2) == 1 and inst.c(2, 1) == 1 and inst.c(0, 1) == 2


def test_metric_closure_triangle():
    g = GraphicalInstance(3, ((0, 1), (1, 2), (0, 2)), 0, 1)
    inst = metric_closure(g)
    assert inst.c(0, 1) == inst.c(1, 2) == inst.c(0, 2) == 1


def test_metric_closure_five_cycle_matches_bfs(five_cycle):
    inst = metric_closure(five_cycle)
    for src in range(5):
        assert list(inst.cost[src]) == bfs_distances(five_cycle, src)
    assert inst.c(0, 1) == 1
    assert inst.c(0, 2) == 2 and inst.c(0, 3) == 2


def test_metric_closure_rejects_disconnected():
    g = GraphicalInstance(4, ((0, 1), (2, 3)), 0, 1)
    with pytest.raises(NotConnectedError, match="not connected"):
        metric_closure(g)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 9))
def test_metric_closure_triangle_exact(seed, n):
    g = random_connected_graph(n, seed)
    inst = metric_closure(g)
    c = inst.cost
    for u in range(n):
        for v in range(n):
            for w in range(n):
                assert c[u, w] <= c[u, v] + c[v, w]  # exact integers


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 7),
    entries=st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, -1.0, np.nan, np.inf, 1e-10]),
        min_size=49,
        max_size=49,
    ),
)
def test_validate_metric_matches_loop_reference(n, entries):
    cost = np.array(entries[: n * n]).reshape(n, n)
    report = validate_metric(Instance(cost=cost, s=0, t=1))
    got = [(v.kind, v.where, repr(v.amount)) for v in report]  # repr: NaN == NaN
    assert got == [(k, w, repr(a)) for k, w, a in metric_report_loop(cost, TRIANGLE_TOL)]


def test_generate_two_vertices():
    inst = generate_random_metric(2, 7)
    assert inst.n == 2 and inst.c(0, 1) > 0


def test_generate_deterministic():
    a = generate_random_metric(5, 1)
    b = generate_random_metric(5, 1)
    assert np.array_equal(a.cost, b.cost)
    assert (a.s, a.t) == (b.s, b.t) == (0, 1)


def test_generate_is_metric():
    assert validate_metric(generate_random_metric(5, 1)) == []


def test_generate_rejects_tiny():
    with pytest.raises(InvalidInstanceError):
        generate_random_metric(1, 0)


def test_direct_edge_never_beats_path():
    # shortcut direction of the triangle inequality, against the DP oracle
    for seed in range(5):
        inst = generate_random_metric(6, seed)
        assert inst.c(inst.s, inst.t) <= exact_path_tsp(inst).optimum + 1e-12


def test_io_round_trip(tmp_path):
    inst = Instance(cost=np.ones((3, 3)) - np.eye(3), s=0, t=2)
    p = tmp_path / "tri.json"
    write_instance(inst, str(p))
    back = read_instance(str(p))
    assert isinstance(back, Instance)
    assert np.array_equal(back.cost, inst.cost)
    assert (back.s, back.t) == (inst.s, inst.t)


def test_io_missing_field_names_it(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text(json.dumps({"type": "metric", "n": 2, "s": 0, "costs": [1.0]}))
    with pytest.raises(ParseError, match='"t"'):
        read_instance(str(p))


UNREADABLE = {"not_utf8": "not UTF-8 text", "missing": "No such file", "directory": "Is a directory"}


@pytest.mark.parametrize("case", UNREADABLE)
def test_io_unreadable_file_raises_parse_error(tmp_path, case):
    p = tmp_path / "inst.json"
    if case == "not_utf8":
        p.write_bytes(b'{"type": "metric", \xff\xfe}')
    elif case == "directory":
        p = tmp_path
    with pytest.raises(ParseError, match=UNREADABLE[case]):
        read_instance(str(p))


def test_io_graphical_five_cycle(tmp_path, five_cycle):
    p = tmp_path / "cycle.json"
    write_instance(five_cycle, str(p))
    back = read_instance(str(p))
    assert isinstance(back, GraphicalInstance)
    assert len(back.edges) == 5
    assert back.edges == five_cycle.edges


def test_io_round_trip_random_graph(tmp_path):
    """random_connected_graph draws its edges from a NumPy permutation, so
    the endpoints arrive as NumPy integers."""
    g = random_connected_graph(8, 3)
    p = tmp_path / "graph.json"
    write_instance(g, str(p))
    assert read_instance(str(p)) == g
    assert all(type(v) is int for e in g.edges for v in e)


def test_io_round_trip_numpy_endpoints(tmp_path):
    inst = Instance(cost=np.ones((3, 3)) - np.eye(3), s=np.int64(2), t=np.int32(0))
    assert (type(inst.s), type(inst.t)) == (int, int)
    p = tmp_path / "tri.json"
    write_instance(inst, str(p))
    back = read_instance(str(p))
    assert (back.s, back.t) == (2, 0)
    assert np.array_equal(back.cost, inst.cost)


@pytest.mark.parametrize("bad", [1.0, np.float64(1.0), "1", None, True])
def test_non_integer_fields_rejected(bad):
    with pytest.raises(InvalidInstanceError, match="integer"):
        Instance(cost=np.ones((3, 3)) - np.eye(3), s=bad, t=0)
    with pytest.raises(InvalidInstanceError, match="integer"):
        GraphicalInstance(3, ((0, bad), (1, 2)), 0, 2)
    with pytest.raises(InvalidInstanceError, match="integer"):
        GraphicalInstance(3, ((0, 1), (1, 2)), 0, bad)


@pytest.mark.parametrize("endpoint", [1.7, 1.0, "1", True])
def test_io_graph_with_non_integer_endpoint_rejected(tmp_path, endpoint):
    p = tmp_path / "graph.json"
    p.write_text(json.dumps(
        {"type": "graph", "n": 3, "s": 0, "t": 2, "edges": [[0, endpoint], [1, 2]]}
    ))
    with pytest.raises(ParseError, match="integer"):
        read_instance(str(p))


def test_io_round_trip_bit_exact(tmp_path):
    inst = generate_random_metric(6, 123)
    p = tmp_path / "inst.json"
    write_instance(inst, str(p))
    back = read_instance(str(p))
    assert np.array_equal(back.cost, inst.cost)  # bit-exact floats


def test_edge_vector_operations():
    x = EdgeVector({(0, 1): 1.0, (1, 2): 2.0})
    y = EdgeVector({(2, 1): 3.0})
    assert x.get(1, 0) == 1.0
    assert x.cut({1}) == 3.0
    assert x.add(y).get(1, 2) == 5.0
    assert x.scale(2.0).total() == 6.0
    with pytest.raises(ValueError):
        EdgeVector({(1, 1): 2.0})
