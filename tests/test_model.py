"""Case loading, validation, adjacency construction, anonymization, metrics."""

import json
import random
import re
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from dsmseq import (
    CaseError,
    DsmCase,
    Edge,
    NetworkMetrics,
    Node,
    anonymize_ids,
    build_adjacency,
    bundled_case,
    bundled_case_names,
    case_from_dict,
    load_case,
    matrix_from_array,
    network_metrics,
)
from dsmseq.model import strong_components

from conftest import dense, make_case, naive_score, random_case


class TestLoadAndValidate:
    def test_load_bundled_case(self, data_dir):
        case = load_case(data_dir / "packaging_line_12.json")
        assert case.n == 12
        assert len(case.edges) == 47
        assert case.description

    def test_minimal_two_node_case(self, tmp_path):
        payload = {
            "description": "pair",
            "nodes": [{"id": "a", "name": "A"}, {"id": "b", "name": "B"}],
            "edges": [{"dependent": "b", "predecessor": "a"}],
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(payload))
        case = load_case(path)
        assert case.n == 2
        assert case.edges[0] == Edge("b", "a")

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(CaseError, match="not valid JSON"):
            load_case(path)

    def test_dangling_edge_endpoint(self):
        payload = {
            "nodes": [{"id": "a"}, {"id": "b"}],
            "edges": [{"dependent": "a", "predecessor": "zzzzz"}],
        }
        with pytest.raises(CaseError, match="zzzzz"):
            case_from_dict(payload)

    def test_duplicate_node_id(self):
        payload = {"nodes": [{"id": "a"}, {"id": "a"}], "edges": []}
        with pytest.raises(CaseError, match="duplicate node id"):
            case_from_dict(payload)

    @pytest.mark.parametrize("bad_id", ["a,b", " a", "a ", "a\t"])
    def test_unparseable_id_rejected(self, bad_id):
        # replies are split on "," and stripped, so these ids never come back
        payload = {"nodes": [{"id": "ok"}, {"id": bad_id}], "edges": []}
        with pytest.raises(CaseError, match=r"nodes\[1\]"):
            case_from_dict(payload)

    @pytest.mark.parametrize("value", [None, True, 7, 2.5, [], {}], ids=repr)
    @pytest.mark.parametrize("at, key", [
        ("nodes[0]: ", "id"), ("nodes[0]: ", "name"),
        ("edges[0]: ", "dependent"), ("edges[0]: ", "predecessor"), ("", "description"),
    ])
    def test_text_must_be_a_json_string(self, tmp_path, at, key, value):
        # an id of 7 would otherwise load as "7", and null as "None"
        payload = {
            "nodes": [{"id": "a"}, {"id": "b"}],
            "edges": [{"dependent": "b", "predecessor": "a"}],
        }
        {"nodes[0]: ": payload["nodes"][0], "edges[0]: ": payload["edges"][0], "": payload}[at][key] = value
        path = tmp_path / "case.json"
        path.write_text(json.dumps(payload))
        message = f"{path}: {at}{key} must be a string, got {value!r}"
        with pytest.raises(CaseError, match=f"^{re.escape(message)}$"):
            load_case(path)

    def test_self_loop_rejected(self):
        payload = {
            "nodes": [{"id": "a"}, {"id": "b"}],
            "edges": [{"dependent": "a", "predecessor": "a"}],
        }
        with pytest.raises(CaseError, match="self-loop"):
            case_from_dict(payload)

    def test_duplicate_edge_rejected(self):
        payload = {
            "nodes": [{"id": "a"}, {"id": "b"}],
            "edges": [
                {"dependent": "a", "predecessor": "b"},
                {"dependent": "a", "predecessor": "b"},
            ],
        }
        with pytest.raises(CaseError, match="duplicate edge"):
            case_from_dict(payload)

    def test_single_node_rejected(self):
        with pytest.raises(CaseError, match="at least 2"):
            DsmCase(nodes=(Node("a"),), edges=())

    def test_bundled_case_accessor_matches_files(self, data_dir):
        names = bundled_case_names()
        assert names == tuple(sorted(p.stem for p in data_dir.glob("*.json")))
        for name in names:
            assert bundled_case(name) == load_case(data_dir / f"{name}.json")

    def test_bundled_case_unknown_name(self):
        with pytest.raises(CaseError, match="demo_gearbox_7"):
            bundled_case("no_such_network")

    # a relative path that reaches a case file, and one that reaches a digest file
    @pytest.mark.parametrize("name", ["../data/demo_gearbox_7", "../../../tests/golden/grid_sha256"])
    def test_bundled_case_rejects_a_path(self, name):
        with pytest.raises(CaseError, match=r"^no bundled case named .*; available: demo_gearbox_7, "):
            bundled_case(name)

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_unreadable_file_is_a_case_error(self, tmp_path, name):
        path = tmp_path / name  # absent, or a directory
        with pytest.raises(CaseError, match="cannot read case file") as info:
            load_case(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("known", [2.7, 3.0, True, "3", "abc", [3]])
    def test_known_optimum_must_be_a_json_integer(self, tmp_path, known):
        payload = {
            "nodes": [{"id": "a"}, {"id": "b"}],
            "edges": [{"dependent": "b", "predecessor": "a"}],
            "known_optimum": known,
        }
        path = tmp_path / "case.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CaseError, match=re.escape(f"known_optimum must be an int, got {known!r}")) as info:
            load_case(path)
        assert str(path) in str(info.value)
        payload["known_optimum"] = 0
        path.write_text(json.dumps(payload))
        assert load_case(path).known_optimum == 0

    # a <-> b is one pair of opposite edges, so every order scores at least
    # 1; an order or its reverse scores at most 3 of the 6 edges. The load
    # check accepts [1, 3], which holds the true optimum, 2
    BOUNDED = {
        "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}, {"id": "d"}],
        "edges": [{"dependent": d, "predecessor": p}
                  for d, p in (("b", "a"), ("a", "b"), ("c", "a"), ("d", "c"), ("a", "d"), ("c", "b"))],
    }

    @pytest.mark.parametrize("known", [0, 4])
    def test_known_optimum_outside_its_bounds_is_rejected(self, tmp_path, known):
        path = tmp_path / "case.json"
        path.write_text(json.dumps({**self.BOUNDED, "known_optimum": known}))
        with pytest.raises(CaseError, match=rf"known_optimum {known} is outside the possible range \[1, 3\]") as info:
            load_case(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("known", [1, 3])
    def test_known_optimum_on_its_bounds_is_accepted(self, tmp_path, known):
        path = tmp_path / "case.json"
        path.write_text(json.dumps({**self.BOUNDED, "known_optimum": known}))
        assert load_case(path).known_optimum == known


class TestAdjacency:
    def test_single_edge_position(self):
        # B depends on A, node order [A, B] -> a[1][0] = 1
        case = make_case(2, [(1, 0)])
        a = dense(build_adjacency(case))
        assert a[1][0] == 1
        assert a.sum() == 1

    def test_empty_edges_zero_matrix(self):
        case = make_case(3, [])
        assert dense(build_adjacency(case)).sum() == 0

    def test_three_cycle_entries(self):
        # dependency cycle: 1 depends on 0, 2 on 1, 0 on 2
        case = make_case(3, [(1, 0), (2, 1), (0, 2)])
        a = dense(build_adjacency(case))
        assert a.sum() == 3
        assert np.all(np.diag(a) == 0)
        assert a[1][0] == 1 and a[2][1] == 1 and a[0][2] == 1

    def test_edge_count_matches_ones(self, demo_case):
        assert int(dense(build_adjacency(demo_case)).sum()) == len(demo_case.edges)

    def test_row_order_follows_node_list(self, demo_case):
        m = build_adjacency(demo_case)
        assert m.ids == demo_case.node_ids
        assert [m.index_of[i] for i in m.ids] == list(range(m.n))

    def test_edges_are_row_major_and_round_trip_through_an_array(self, demo_case):
        m = build_adjacency(demo_case)
        rows, cols = np.nonzero(dense(m))
        assert rows.tolist() == m.dep_idx.tolist() and cols.tolist() == m.pred_idx.tolist()
        again = matrix_from_array(dense(m) * 7, m.ids)  # every nonzero entry is an edge
        assert again.dep_idx.tolist() == m.dep_idx.tolist()
        assert again.pred_idx.tolist() == m.pred_idx.tolist()

    # matrix_from_array holds its ids to the case id rules, as validate_case does
    def test_matrix_from_array_refuses_a_duplicate_id(self):
        with pytest.raises(ValueError, match=r"ids\[1\]: duplicate node id 'a'"):
            matrix_from_array(np.zeros((2, 2), dtype=np.int64), ("a", "a"))

    def test_matrix_from_array_refuses_an_empty_id(self):
        with pytest.raises(ValueError, match=r"ids\[0\]: empty id"):
            matrix_from_array(np.zeros((2, 2), dtype=np.int64), ("", "b"))

    def test_matrix_from_array_refuses_an_id_with_a_comma(self):
        with pytest.raises(ValueError, match=r"ids\[1\]: id 'b,c' contains ','"):
            matrix_from_array(np.zeros((2, 2), dtype=np.int64), ("a", "b,c"))

    @pytest.mark.parametrize("bad", [" b", "b ", "b\n"])
    def test_matrix_from_array_refuses_an_id_with_outer_whitespace(self, bad):
        with pytest.raises(ValueError, match=r"ids\[1\]: .* leading/trailing whitespace"):
            matrix_from_array(np.zeros((2, 2), dtype=np.int64), ("a", bad))

    def test_a_long_chain_allocates_no_dense_matrix(self):
        """A dense int64 matrix of 5,000 nodes would take 200 MB; the edge
        lists of the chain take 80 kB."""
        case = make_case(5000, [(i + 1, i) for i in range(4999)])
        tracemalloc.start()
        try:
            m = build_adjacency(case)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (m.n, len(m.dep_idx)) == (5000, 4999)
        assert peak < 5_000_000, peak


def edges_at_degree(rng: np.random.Generator, n: int, degree: float) -> tuple[np.ndarray, np.ndarray]:
    """A random digraph with each ordered pair an edge with probability
    degree / (n - 1), as (dependents, predecessors) in row-major order."""
    kept = rng.random((n, n)) < degree / (n - 1)
    np.fill_diagonal(kept, False)
    return np.nonzero(kept)


def partition(labels: np.ndarray) -> set[frozenset[int]]:
    groups: dict[int, set[int]] = {}
    for node, label in enumerate(labels.tolist()):
        groups.setdefault(label, set()).add(node)
    return {frozenset(group) for group in groups.values()}


class TestStrongComponents:
    """The component helper against networkx: the same partition, and no
    component labelled before one it depends on."""

    def check(self, n, deps, preds):
        deps, preds = np.asarray(deps, dtype=np.int64), np.asarray(preds, dtype=np.int64)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(zip(preds.tolist(), deps.tolist()))
        # on the symmetric projection the components are the connected ones
        both = np.concatenate([deps, preds]), np.concatenate([preds, deps])
        count, labels = strong_components(n, *both)
        assert partition(labels) == {frozenset(c) for c in nx.connected_components(graph.to_undirected())}
        assert sorted(set(labels.tolist())) == list(range(count))
        count, labels = strong_components(n, deps, preds)
        assert partition(labels) == {frozenset(c) for c in nx.strongly_connected_components(graph)}
        assert sorted(set(labels.tolist())) == list(range(count))
        assert (labels[preds] <= labels[deps]).all()
        return count, labels

    @pytest.mark.parametrize("n", [10, 100, 400])
    @pytest.mark.parametrize("degree", [1.4, 2.65, 3.9])
    def test_random_digraphs(self, n, degree):
        rng = np.random.default_rng(n * 10 + int(degree * 100))
        for _ in range(3):
            self.check(n, *edges_at_degree(rng, n, degree))

    def test_complete_digraph(self):
        deps, preds = np.nonzero(1 - np.eye(30, dtype=np.int64))
        assert self.check(30, deps, preds)[0] == 1

    def test_a_long_chain_needs_no_recursion(self):
        # a recursive search would pass Python's default limit of 1,000 frames
        count, labels = self.check(3000, np.arange(1, 3000), np.arange(2999))
        assert count == 3000
        assert labels.tolist() == list(range(3000))

    def test_empty_graph_and_isolated_nodes(self):
        assert self.check(5, [], [])[0] == 5
        # a 3-cycle and a pair edge among isolated nodes
        count, labels = self.check(8, [1, 2, 0, 6], [0, 1, 2, 4])
        assert count == 6
        assert labels[0] == labels[1] == labels[2]


class TestAnonymize:
    def test_deterministic(self, demo_case):
        _, m1 = anonymize_ids(demo_case, seed=7)
        _, m2 = anonymize_ids(demo_case, seed=7)
        assert m1 == m2

    def test_different_seeds_differ(self, demo_case):
        _, m1 = anonymize_ids(demo_case, seed=7)
        _, m2 = anonymize_ids(demo_case, seed=8)
        assert m1 != m2

    def test_id_shape(self, data_dir):
        case = load_case(data_dir / "packaging_line_12.json")
        anon, mapping = anonymize_ids(case, seed=1)
        assert len(set(mapping.values())) == 12
        for node in anon.nodes:
            assert len(node.id) == 5
            assert node.id.isalnum()

    def test_round_trip_edges(self, demo_case):
        anon, mapping = anonymize_ids(demo_case, seed=3)
        inverse = {v: k for k, v in mapping.items()}
        restored = sorted(
            (inverse[e.dependent], inverse[e.predecessor]) for e in anon.edges
        )
        original = sorted((e.dependent, e.predecessor) for e in demo_case.edges)
        assert restored == original

    def test_names_and_description_kept(self, demo_case):
        anon, _ = anonymize_ids(demo_case, seed=3)
        assert [n.name for n in anon.nodes] == [n.name for n in demo_case.nodes]
        assert anon.description == demo_case.description
        assert anon.known_optimum == demo_case.known_optimum

    def test_scores_preserved_under_relabeling(self, demo_case):
        rng = random.Random(0)
        anon, mapping = anonymize_ids(demo_case, seed=11)
        m_old = build_adjacency(demo_case)
        m_new = build_adjacency(anon)
        for _ in range(25):
            order = rng.sample(list(demo_case.node_ids), demo_case.n)
            mapped = [mapping[i] for i in order]
            assert naive_score(demo_case, order) == naive_score(anon, mapped)
            from dsmseq import score_sequence

            assert score_sequence(m_old, order) == score_sequence(m_new, mapped)


EXPECTED_METRICS = [
    ("packaging_line_12.json", 12, 47, 0.712, 7.833),
    ("espresso_machine_13.json", 13, 41, 0.526, 6.308),
    ("irrigation_network_17.json", 17, 41, 0.302, 4.824),
    ("elevator_system_14.json", 14, 32, 0.352, 4.571),
]


class TestMetrics:
    @pytest.mark.parametrize("fname,n,e,density,avg_degree", EXPECTED_METRICS)
    def test_known_values(self, data_dir, fname, n, e, density, avg_degree):
        metrics = network_metrics(load_case(data_dir / fname))
        assert metrics.n == n
        assert metrics.e == e
        assert metrics.density == pytest.approx(density, abs=1e-3)
        assert metrics.average_degree == pytest.approx(avg_degree, abs=1e-3)
        assert metrics.connected

    def test_density_vs_average_degree_identity(self, data_dir):
        for fname, *_ in EXPECTED_METRICS:
            m = network_metrics(load_case(data_dir / fname))
            assert abs(m.density - m.average_degree / (m.n - 1)) < 1e-9

    def test_complete_directed_triangle(self):
        case = make_case(3, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
        m = network_metrics(case)
        assert m.clustering_coefficient == pytest.approx(1.0)
        assert m.diameter == 1
        # density uses the directed edge count: 2*6/(3*2) = 2.0 by that
        # convention on a fully doubled triangle
        assert m.density == pytest.approx(2.0)

    def test_disconnected_flagged(self):
        case = make_case(4, [(1, 0), (3, 2)])
        m = network_metrics(case)
        assert not m.connected
        assert m.diameter == 1  # largest component is a single edge

    def test_permutation_invariance(self, demo_case):
        rng = random.Random(5)
        shuffled_nodes = list(demo_case.nodes)
        rng.shuffle(shuffled_nodes)
        shuffled = DsmCase(
            nodes=tuple(shuffled_nodes),
            edges=demo_case.edges,
            description=demo_case.description,
        )
        a = network_metrics(demo_case)
        b = network_metrics(shuffled)
        assert a.density == pytest.approx(b.density)
        assert a.average_degree == pytest.approx(b.average_degree)
        assert a.diameter == b.diameter
        assert a.clustering_coefficient == pytest.approx(b.clustering_coefficient)
        assert a.average_path_length == pytest.approx(b.average_path_length)

    def test_equals_the_networkx_reference(self):
        rng = random.Random(11)
        # sparse draws are disconnected and leave isolated nodes
        cases = [
            random_case(rng, n, density)
            for n in (5, 12, 30)
            for density in (0.03, 0.1, 0.3, 0.8)
            for _ in range(4)
        ]
        # two largest components of four nodes each, a path (diameter 3) and a
        # complete graph (diameter 1), plus one isolated node; the component
        # holding the lowest node index must win the tie
        path = [(1, 0), (2, 1), (3, 2)]
        complete = [(d, p) for d in range(4) for p in range(d)]
        for first, second in ((path, complete), (complete, path)):
            for place in (lambda i: i, lambda i: i + 4), (lambda i: 2 * i, lambda i: 2 * i + 1):
                pairs = [(place[0](d), place[0](p)) for d, p in first]
                pairs += [(place[1](d), place[1](p)) for d, p in second]
                cases.append(make_case(9, pairs))
        # the sizes the benchmark times, at the bundled cases' 1.4 to 3.9
        # edges per node, and the 1.4 and 2.65 of its n = 400 draws
        sizes = ((100, 1.4), (100, 3.9), (130, 2.6), (400, 1.4), (400, 2.65))
        cases += [random_case(rng, n, degree / (n - 1)) for n, degree in sizes]
        # a 300-node chain: diameter 299, the longest run of search levels
        cases.append(make_case(300, [(i + 1, i) for i in range(299)]))
        results = [(network_metrics(case), networkx_metrics(case)) for case in cases]
        assert {ours.connected for ours, _ in results} == {True, False}
        assert {ours.diameter for ours, _ in results[-10:-6]} == {1, 3}
        assert all(ours.diameter > 3 for ours, _ in results[-6:-1])
        assert results[-1][0].diameter == 299
        for ours, reference in results:
            # repr also tells a numpy scalar from a Python number
            assert repr(ours) == repr(reference)


def networkx_metrics(case: DsmCase) -> NetworkMetrics:
    """network_metrics as computed with networkx, kept as the reference."""
    n, e = case.n, len(case.edges)
    graph = nx.Graph()
    graph.add_nodes_from(case.node_ids)
    graph.add_edges_from((edge.predecessor, edge.dependent) for edge in case.edges)
    connected = nx.is_connected(graph)
    component = graph
    if not connected:
        component = graph.subgraph(max(nx.connected_components(graph), key=len))
    return NetworkMetrics(
        n=n,
        e=e,
        diameter=int(nx.diameter(component)),
        density=2.0 * e / (n * (n - 1)),
        average_degree=2.0 * e / n,
        clustering_coefficient=float(nx.average_clustering(graph)),
        average_path_length=float(nx.average_shortest_path_length(component)),
        connected=connected,
    )
