import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import oracles
import theory
from reswitch import cli, graphs
from reswitch.errors import InvalidInputError


def triangle():
    # unit triangle; backbone is the path 0-1-2
    return graphs.make_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], [0, 1])


def parallel_pair(w0=1.0, w1=1.0):
    return graphs.make_graph(2, [(0, 1, w0), (0, 1, w1)], [0])


# --- construction and validation ------------------------------------------

def test_make_graph_normalizes_endpoint_order():
    g = graphs.make_graph(3, [(2, 0, 1.5), (1, 2, 1.0)], [0, 1])
    assert g.edges[0] == (0, 2, 1.5)
    assert g.m == 2


def test_validate_accepts_triangle():
    assert graphs.validate(triangle()) == []


def test_validate_flags_endpoint_out_of_range():
    g = graphs.Graph(n=2, ei=[0], ej=[5], w=[1.0], backbone_mask=[True])
    assert any("out of range" in p for p in graphs.validate(g))


def test_validate_flags_self_loop():
    g = graphs.Graph(n=2, ei=[1, 0], ej=[1, 1], w=[1.0, 1.0], backbone_mask=[False, True])
    assert any("self-loop" in p for p in graphs.validate(g))


def test_validate_flags_nonpositive_weight():
    g = graphs.Graph(n=2, ei=[0], ej=[1], w=[0.0], backbone_mask=[True])
    assert any("weight" in p for p in graphs.validate(g))


@pytest.mark.parametrize("w", [np.inf, np.nan])
def test_validate_flags_non_finite_weight(w):
    g = graphs.Graph(n=3, ei=[0, 1, 0], ej=[1, 2, 2], w=[1.0, 1.0, w],
                     backbone_mask=[True, True, False])
    assert graphs.validate(g) == ["non-finite weight at edge 2"]


def test_validate_flags_nonspanning_backbone():
    g = graphs.Graph(n=3, ei=[0, 1], ej=[1, 2], w=[1.0, 1.0], backbone_mask=[True, False])
    assert any("span" in p for p in graphs.validate(g))
    # one message per unreached component, naming its lowest node
    g = graphs.Graph(n=5, ei=[3, 0, 2], ej=[4, 1, 3], w=[1.0] * 3,
                     backbone_mask=[True, True, False])
    assert graphs.validate(g) == ["backbone does not span node 2",
                                  "backbone does not span node 3"]


def test_make_graph_rejects_invalid():
    with pytest.raises(InvalidInputError):
        graphs.make_graph(3, [(0, 1, 1.0)], [0])  # backbone misses node 2
    with pytest.raises(InvalidInputError, match="backbone index 1 out of range"):
        graphs.make_graph(2, [(0, 1, 1.0)], [0, 1])


@pytest.mark.parametrize("edges, backbone, culprit", [
    ([(0, 1.5, 1.0), (1, 2, 1.0)], [0, 1], "edge 0 endpoint 1.5 is not an integer"),
    ([(0, 1, 1.0), (1, 2, 1.0)], [0.7, 1], "backbone index 0.7 is not an integer"),
    ([(np.nan, 1, 1.0), (1, 2, 1.0)], [0, 1], "edge 0 endpoint nan is not an integer"),
    ([(0, 1, 1.0), (1, np.inf, 1.0)], [0, 1], "edge 1 endpoint inf is not an integer"),
    ([(0, 1, 1.0), (1, 2, 1.0)], [0, np.nan], "backbone index nan is not an integer"),
    ([(0, 1e30, 1.0), (1, 2, 1.0)], [0, 1], "edge 0 endpoint out of range"),
], ids=["fraction", "fractional-index", "nan", "inf", "nan-index", "beyond-int64"])
def test_make_graph_refuses_to_truncate(edges, backbone, culprit):
    # A fraction is not cut to an integer, and NaN warns nothing on its way
    # to the error (pytest turns a RuntimeWarning into a failure).
    with pytest.raises(InvalidInputError, match=culprit):
        graphs.make_graph(3, edges, backbone)


def test_graph_arrays_are_read_only():
    g = triangle()
    with pytest.raises(ValueError):
        g.w[0] = 2.0
    for arr in (g.ei, g.ej, g.w, g.backbone_mask):
        assert not arr.flags.writeable
    with pytest.raises(InvalidInputError):
        graphs.Graph(n=2, ei=[0], ej=[1], w=[1.0, 1.0], backbone_mask=[True])


def test_check_switch_accepts_fractional():
    g = triangle()
    s = graphs.check_switch(g, [1.0, 1.0, 0.25])
    assert_array_equal(s, [1.0, 1.0, 0.25])


def test_check_switch_rejects_unpinned_backbone():
    with pytest.raises(InvalidInputError):
        graphs.check_switch(triangle(), [1.0, 0.999, 0.5])


def test_check_switch_rejects_out_of_range():
    with pytest.raises(InvalidInputError):
        graphs.check_switch(triangle(), [1.0, 1.0, 1.5])


def test_check_switch_rejects_nan():
    with pytest.raises(InvalidInputError, match=r"\[0, 1\]"):
        graphs.check_switch(triangle(), [1.0, 1.0, np.nan])


def test_check_switch_rejects_wrong_length():
    with pytest.raises(InvalidInputError):
        graphs.check_switch(triangle(), [1.0, 1.0])


def test_check_demand_requires_zero_sum():
    g = triangle()
    graphs.check_demand(g, [1.0, 0.0, -1.0])
    with pytest.raises(InvalidInputError):
        graphs.check_demand(g, [1.0, 0.0, -0.5])
    with pytest.raises(InvalidInputError):
        graphs.check_demand(g, [1.0, -1.0])
    with pytest.raises(InvalidInputError, match="finite"):
        graphs.check_demand(g, [1.0, np.nan, -1.0])


# --- Laplacian assembly ----------------------------------------------------

def test_laplacian_triangle_all_on():
    L = graphs.assemble_laplacian_dense(triangle(), np.ones(3))
    assert_allclose(L, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_laplacian_halves_switched_edge():
    g = triangle()
    L = graphs.assemble_laplacian_dense(g, [1.0, 1.0, 0.5])
    assert_allclose(L, [[1.5, -1, -0.5], [-1, 2, -1], [-0.5, -1, 1.5]])


def test_sparse_and_dense_assembly_agree():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g, _ = oracles.random_instance(rng, 8, 5, multigraph=True)
        s = oracles.random_fractional(rng, g)
        assert_allclose(graphs.assemble_laplacian(g, s).toarray(),
                        graphs.assemble_laplacian_dense(g, s), atol=1e-14)


def test_assembly_matches_loop_reference():
    rng = np.random.default_rng(4)
    g, _ = oracles.random_instance(rng, 7, 6)
    s = oracles.random_fractional(rng, g)
    assert_allclose(graphs.assemble_laplacian_dense(g, s),
                    oracles.laplacian(g.n, g.edges, s), atol=1e-14)


def test_dense_assembly_is_the_add_at_reference():
    # Graph.dense_index fixes the order in which each entry's terms are
    # summed; it is the reference's, so the arrays are identical.
    rng = np.random.default_rng(6)
    for _ in range(5):
        g, _ = oracles.random_instance(rng, 9, 14, multigraph=True)
        s = oracles.random_fractional(rng, g, lo=0.0)
        assert_array_equal(graphs.assemble_laplacian_dense(g, s),
                           oracles.laplacian_add_at(g, s))
    g = parallel_pair(0.3, 0.7)
    assert_array_equal(graphs.assemble_laplacian_dense(g, [1.0, 0.1]),
                       oracles.laplacian_add_at(g, [1.0, 0.1]))


def test_sparse_assembly_keeps_one_pattern_per_graph():
    # Every switch vector, with switches set exactly to zero or not,
    # assembles into the graph's one CSR pattern, stored zeros included,
    # with the COO reference's values; the backbone factor still
    # preconditions exactly at the backbone indicator.
    rng = np.random.default_rng(8)
    for n, extra in ((9, 14), (90, 160)):
        base, _ = oracles.random_instance(rng, n, extra, multigraph=True)
        # Parallel copies of a backbone edge and of a switchable one.
        free = int(np.flatnonzero(~base.backbone_mask)[0])
        g = graphs.make_graph(n, [*base.edges, base.edges[0], base.edges[free],
                                  base.edges[free]], base.backbone)
        indptr, indices = oracles.laplacian_pattern(g)
        off = oracles.random_fractional(rng, g)
        off[rng.random(g.m) < 0.5] = 0.0
        off[g.backbone_mask] = 1.0
        points = [np.ones(g.m), g.backbone_indicator(), off,
                  oracles.random_fractional(rng, g, lo=0.0)]
        for s in points:
            L = graphs.assemble_laplacian(g, s)
            assert L.format == "csr" and L.indices.dtype == np.int32
            assert np.shares_memory(L.indptr, g.plan.indptr)
            assert np.shares_memory(L.indices, g.plan.indices)
            assert_array_equal(L.indptr, indptr)
            assert_array_equal(L.indices, indices)
            ref = oracles.laplacian_coo(g, s).toarray()
            assert_allclose(L.toarray(), ref, rtol=0, atol=1e-14 * np.abs(ref).max())
            # bincount sums in dense_index order, as the dense assembly does.
            assert_array_equal(L.toarray(), graphs.assemble_laplacian_dense(g, s))
        at_backbone = graphs.assemble_laplacian(g, g.backbone_indicator())
        assert np.count_nonzero(at_backbone.data == 0.0) > 0
        ctx = g.context
        assert ctx.on_tree(at_backbone)
        assert not ctx.on_tree(graphs.assemble_laplacian(g, off))


def test_parallel_edges_accumulate():
    L = graphs.assemble_laplacian_dense(parallel_pair(1.0, 3.0), np.ones(2))
    assert_allclose(L, [[4, -4], [-4, 4]])


def test_laplacian_invariants():
    rng = np.random.default_rng(5)
    for _ in range(5):
        g, _ = oracles.random_instance(rng, 9, 6)
        s = oracles.random_fractional(rng, g, lo=0.0)
        L = graphs.assemble_laplacian_dense(g, s)
        assert_allclose(L, L.T, atol=1e-14)
        assert_allclose(L @ np.ones(g.n), 0.0, atol=1e-12)
        assert np.linalg.eigvalsh(L)[0] >= -1e-10


# --- resistances, leverages, connectivity ----------------------------------

def test_triangle_resistances_are_two_thirds():
    rho = theory.effective_resistances(triangle(), np.ones(3))
    assert_allclose(rho, [2 / 3, 2 / 3, 2 / 3], atol=1e-12)


def test_parallel_pair_resistance():
    # two unit edges in parallel behave like one edge of weight 2
    rho = theory.effective_resistances(parallel_pair(), np.ones(2))
    assert_allclose(rho, [0.5, 0.5], atol=1e-14)


def test_resistances_match_reference():
    rng = np.random.default_rng(6)
    g, _ = oracles.random_instance(rng, 10, 8)
    s = oracles.random_fractional(rng, g)
    rho = theory.effective_resistances(g, s)
    want = [oracles.resistance(g, s, e) for e in range(g.m)]
    assert_allclose(rho, want, rtol=1e-10, atol=1e-12)


def test_foster_sum_for_connected_configurations():
    rng = np.random.default_rng(8)
    for _ in range(5):
        g, _ = oracles.random_instance(rng, 9, 7)
        s = (rng.random(g.m) < 0.5).astype(float)
        s[g.backbone_mask] = 1.0
        lev = theory.leverages(g, s)
        assert np.all(lev >= -1e-12) and np.all(lev <= 1 + 1e-12)
        assert abs(lev.sum() - (g.n - 1)) < 1e-8


def test_foster_sum_holds_fractionally():
    # leverage mass is n-1 for any switch vector keeping the graph connected
    rng = np.random.default_rng(9)
    g, _ = oracles.random_instance(rng, 8, 6)
    s = oracles.random_fractional(rng, g)
    assert abs(theory.leverages(g, s).sum() - (g.n - 1)) < 1e-8


def test_rayleigh_monotonicity():
    rng = np.random.default_rng(10)
    g, _ = oracles.random_instance(rng, 8, 6)
    s = oracles.random_fractional(rng, g, hi=0.8)
    rho = theory.effective_resistances(g, s)
    for e in np.flatnonzero(~g.backbone_mask)[:3]:
        s_up = s.copy()
        s_up[e] = min(1.0, s_up[e] + 0.2)
        rho_up = theory.effective_resistances(g, s_up)
        assert np.all(rho_up <= rho + 1e-12)


def test_algebraic_connectivity_complete_graph():
    assert abs(graphs.algebraic_connectivity(triangle(), np.ones(3)) - 3.0) < 1e-9


def test_algebraic_connectivity_zero_when_disconnected():
    # test-only graph without a backbone so a switch can cut it
    g = graphs.Graph(n=3, ei=[0, 1], ej=[1, 2], w=[1.0, 1.0], backbone_mask=[False, False])
    assert abs(graphs.algebraic_connectivity(g, np.array([1.0, 0.0]))) < 1e-12


# --- instance files ---------------------------------------------------------

def test_instance_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    g, d = oracles.random_instance(rng, 9, 5, multigraph=True, demand="gauss")
    path = tmp_path / "inst.txt"
    graphs.write_instance(path, g, d, 11)
    g2, d2, q2 = graphs.read_instance(path)
    assert q2 == 11
    assert g2.edges == g.edges
    assert g2.backbone == g.backbone
    assert_array_equal(d2, d)  # repr round trip is exact


def test_read_instance_accepts_comments(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("# demo\n2 1 1\n1 2 1.0 1  # the only edge\n0.5\n-0.5\n")
    g, d, q = graphs.read_instance(path)
    assert g.n == 2 and g.m == 1 and q == 1
    assert g.edges == ((0, 1, 1.0),)
    assert_array_equal(d, [0.5, -0.5])


def test_read_instance_rejects_truncated(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2 3\n1 2 1.0 1\n")
    with pytest.raises(InvalidInputError):
        graphs.read_instance(path)


def test_read_instance_rejects_bad_backbone_flag(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1 1\n1 2 1.0 2\n0.5\n-0.5\n")
    with pytest.raises(InvalidInputError):
        graphs.read_instance(path)


@pytest.mark.parametrize("edge_lines, message", [
    ("1 2 1.0 1\n2 3 1.0 2", "backbone flag at edge 1"),
    ("1 2 1.0 1\n2 1.5 1.0 1", "parse error"),
    ("1 2 x 1\n2 3 1.0 1", "parse error"),
    # Beyond int64: numpy's C parser saturates it, and the reader refuses
    # the saturated value.
    ("1 2 1.0 1\n1 99999999999999999999 1.0 1", "parse error"),
])
def test_read_instance_rejects_malformed_tokens(tmp_path, edge_lines, message):
    path = tmp_path / "bad.txt"
    path.write_text(f"3 2 2\n{edge_lines}\n0.5\n0.0\n-0.5\n")
    with pytest.raises(InvalidInputError, match=message):
        graphs.read_instance(path)


@st.composite
def instances(draw):
    """A valid instance: a random backbone tree on n nodes plus extra edges,
    parallel ones included, with weights and a zero-sum demand."""
    n = draw(st.integers(2, 8))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges += draw(st.lists(pairs, max_size=6))
    w = draw(st.lists(st.floats(1e-300, 1e300), min_size=len(edges), max_size=len(edges)))
    backbone = [k < n - 1 or draw(st.booleans()) for k in range(len(edges))]
    d = draw(st.lists(st.integers(-1000, 1000), min_size=n - 1, max_size=n - 1))
    return n, edges, w, backbone, [float(x) for x in d] + [-float(sum(d))]


def instance_lines(n, edges, w, backbone, d, q):
    return ([f"{n} {len(edges)} {q}"]
            + [f"{i + 1} {j + 1} {x!r} {int(b)}" for (i, j), x, b in zip(edges, w, backbone)]
            + [repr(x) for x in d])


@settings(max_examples=60, deadline=None)
@given(instances(), st.data())
def test_read_instance_reads_valid_text_back_exactly(tmp_path_factory, inst, data):
    n, edges, w, backbone, d = inst
    lines = instance_lines(n, edges, w, backbone, d, len(edges))
    # Comments, blank lines, padding, leading zeros on ids and CRLF line ends.
    text = []
    for line in lines:
        if data.draw(st.booleans()):
            text.append(data.draw(st.sampled_from(["", "# note", "  # 1 2 x 01", "\t"])))
        fields = line.split()
        if data.draw(st.booleans()) and len(fields) == 4:
            fields[:2] = ["00" + f for f in fields[:2]]
        tail = data.draw(st.sampled_from(["", " ", "\t", "  # 9 9 9"]))
        text.append(data.draw(st.sampled_from([" ", "  ", "\t"])).join(fields) + tail)
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    path = tmp_path_factory.mktemp("valid") / "inst.txt"
    path.write_bytes(newline.join(text).encode("ascii"))
    g, d2, q = graphs.read_instance(path)
    assert (g.n, g.m, q) == (n, len(edges), len(edges))
    assert g.edges == tuple((min(i, j), max(i, j), x) for (i, j), x in zip(edges, w))
    assert g.backbone == frozenset(k for k, b in enumerate(backbone) if b)
    assert_array_equal(d2, d)


# (token class, replacement, expected message); {k} is the edge.
MALFORMED = [
    ("id", "2.0", "parse error"),
    ("id", "1.5", "parse error"),
    ("id", "9223372036854775807", "parse error"),
    ("id", "99999999999999999999", "parse error"),
    ("id", "1_0", "parse error"),
    ("id", "0x1", "parse error"),
    ("flag", "2", "backbone flag at edge {k} "),
    ("flag", "01", "backbone flag at edge {k} "),
    ("flag", "x", "backbone flag at edge {k} "),
]


@settings(max_examples=60, deadline=None)
@given(instances(), st.data())
def test_read_instance_refuses_each_malformed_token(tmp_path_factory, inst, data):
    n, edges, w, backbone, d = inst
    lines = instance_lines(n, edges, w, backbone, d, len(edges))
    k = data.draw(st.integers(0, len(edges) - 1))
    kind, token, message = data.draw(st.sampled_from(MALFORMED))
    fields = lines[1 + k].split()
    fields[data.draw(st.sampled_from([0, 1])) if kind == "id" else 3] = token
    lines[1 + k] = " ".join(fields)
    path = tmp_path_factory.mktemp("bad") / "inst.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInputError, match=message.format(k=k)) as info:
        graphs.read_instance(path)
    if kind == "id":
        assert f"at edge {k} " in str(info.value)


@settings(max_examples=30, deadline=None)
@given(instances(), st.data())
def test_read_instance_refuses_a_missing_or_extra_field(tmp_path_factory, inst, data):
    n, edges, w, backbone, d = inst
    tokens = " ".join(instance_lines(n, edges, w, backbone, d, len(edges))).split()
    k = data.draw(st.integers(3, len(tokens) - 1))
    if data.draw(st.booleans()):
        del tokens[k]
    else:
        tokens.insert(k, data.draw(st.sampled_from(["1", "0", "1.0"])))
    path = tmp_path_factory.mktemp("fields") / "inst.txt"
    path.write_text(" ".join(tokens) + "\n")
    with pytest.raises(InvalidInputError, match="parse error"):
        graphs.read_instance(path)


def test_instance_text_is_deterministic():
    rng = np.random.default_rng(13)
    g, d = oracles.random_instance(rng, 6, 4)
    assert graphs.instance_text(g, d, 7) == graphs.instance_text(g, d, 7)


# --- the plan's pattern and the switching core -----------------------------------

def unique_plan_arrays(g):
    """indptr, indices and slot of the plan by one np.unique over the 4m flat
    positions of Graph.dense_index."""
    flat, slot = np.unique(g.dense_index, return_inverse=True)
    indptr = np.searchsorted(flat, np.arange(g.n + 1) * g.n)
    return indptr, flat % g.n, slot


def test_plan_matches_the_unique_construction():
    # Sorting the pair keys places every entry where a sort of all 4m
    # positions does, on multigraphs with parallel edges of both kinds.
    rng = np.random.default_rng(29)
    for n, extra in ((2, 0), (3, 5), (9, 14), (90, 160), (400, 1200)):
        base, _ = oracles.random_instance(rng, n, extra, multigraph=True)
        copies = rng.integers(0, base.m, 4)
        g = graphs.make_graph(n, [*base.edges, *(base.edges[k] for k in copies)],
                              base.backbone)
        for got, want in zip((g.plan.indptr, g.plan.indices, g.plan.slot),
                             unique_plan_arrays(g)):
            assert_array_equal(got, want)
    g = graphs.Graph(1, [], [], [], [])
    assert_array_equal(g.plan.indptr, [0, 0])
    assert g.plan.indices.size == g.plan.slot.size == 0


def kept_reference(g):
    """The core's kept nodes by a walk over the backbone tree, one node at a
    time: node 0, the ends of every edge off the tree, and every node with
    two child subtrees that hold a kept node."""
    tree = g.context.tree
    par = tree.pred
    keep = {0}
    for i, j in zip(g.ei.tolist(), g.ej.tolist()):
        if par[i] != j and par[j] != i:
            keep |= {i, j}
    for i, j, b in zip(g.ei.tolist(), g.ej.tolist(), g.backbone_mask.tolist()):
        if not b:
            keep |= {i, j}
    # Children before parents: the reverse of the tree's preorder.
    holds, branches = [False] * g.n, [0] * g.n
    for v in tree.order[::-1].tolist():
        holds[v] = holds[v] or v in keep
        if v:
            holds[par[v]] = holds[par[v]] or holds[v]
            branches[par[v]] += holds[v]
    return keep | {v for v in range(g.n) if branches[v] >= 2}


def test_core_is_the_schur_complement_on_the_kept_nodes():
    # The core's Laplacian at any switch vector is L_KK - L_KE L_EE^-1 L_EK
    # of the graph's, on the kept nodes the rule names.
    rng = np.random.default_rng(31)
    for n, extra, multi in ((12, 2, False), (40, 3, False), (60, 8, True), (70, 0, False)):
        g, _ = oracles.random_instance(rng, n, extra, multigraph=multi)
        if multi:
            bb = np.flatnonzero(g.backbone_mask)
            more = [g.edges[bb[2]], (3, 40, 0.9)]
            g = graphs.make_graph(n, [*g.edges, *more], [*bb.tolist(), g.m, g.m + 1])
        core = g.core
        keep = np.array(sorted(kept_reference(g)))
        assert core.graph.n == len(keep) < n
        drop = np.setdiff1d(np.arange(n), keep)
        for s in (g.backbone_indicator(), oracles.random_fractional(rng, g, lo=0.0)):
            L = graphs.assemble_laplacian_dense(g, s)
            schur = L[np.ix_(keep, keep)] - L[np.ix_(keep, drop)] @ np.linalg.solve(
                L[np.ix_(drop, drop)], L[np.ix_(drop, keep)])
            got = graphs.assemble_laplacian_dense(core.graph, core.switch(s))
            assert_allclose(got, schur, rtol=0, atol=1e-12 * np.abs(schur).max())
        # The derived core tree solves the core backbone's tree exactly.
        tree = core.context.tree
        r = rng.standard_normal(core.graph.n)
        r -= r.mean()
        ref = oracles.pinv(oracles.laplacian(core.graph.n, core.graph.edges,
                                             core.graph.backbone_indicator()))
        if not multi:
            assert_allclose(tree.apply(r), ref @ r, rtol=0, atol=1e-10 * np.abs(ref @ r).max())


def test_core_node_counts():
    # The share of nodes eliminated, on the first instance of each seed-1
    # benchmark pool and on CLI trees with 30 extra edges; a graph where
    # every node ends a switchable edge keeps them all, as itself.
    cases = [(oracles.chord_ring(1500, seed=1000)[0], 280),
             (cli.generate_instance(5000, 10000, 1000, demand="gauss", multigraph=True)[0], 4933),
             (oracles.grid_comb(80, 80, seed=1000)[0], 6399),
             (cli.generate_instance(20000, 30, 1)[0], 104)]
    for g, kept in cases:
        core = g.core.graph
        assert core.n == kept, g.n
        # Kept edges keep their order, then one backbone edge per chain.
        keep = np.array(sorted(kept_reference(g)))
        both = np.isin(g.ei, keep) & np.isin(g.ej, keep)
        assert_array_equal(core.w[:both.sum()], g.w[both])
        assert core.backbone_mask[both.sum():].all()
    g = graphs.make_graph(6, [(k, k + 1, 1.0) for k in range(5)]
                          + [(k, k + 2, 1.0) for k in range(4)], range(5))
    assert g.core.graph is g and g.core.context.plan is g.plan
