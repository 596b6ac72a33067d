"""Tests for the flat-native build pipeline (structure-of-arrays construction).

The contract under test: ``build_psd(layout="flat")`` and
``build_psd(layout="pointer")`` are **bit-for-bit interchangeable** for the
same seeded generator — identical structure, released counts, OLS estimates,
pruning decisions, query answers via the recursive backend, and accountant
charges — while the flat pipeline never materialises pointer nodes.  Plus the
regression for the stale-engine bug in ``populate_noisy_counts`` and the OLS
property suite (vectorized == recursive == brute force).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core import build_psd, populate_noisy_counts
from repro.core.budget import LevelSkippingBudget
from repro.core.flatbuild import FlatTree, flatten_tree, ols_beta
from repro.core.hilbert_rtree import BinaryMedianSplit, build_private_hilbert_rtree
from repro.core.kdtree import build_private_kdtree
from repro.core.postprocess import apply_ols, check_consistency, ols_estimate_tree
from repro.core.splits import (
    CellKDSplit,
    HybridSplit,
    KDSplit,
    QuadSplit,
    SplitRule,
    _partition,
    grid_medians,
    stable_order,
)
from repro.data import uniform_points
from repro.engine.flat import COMPILED_ENGINE_KEY, compile_psd
from repro.geometry import Domain, Rect
from repro.index import NoisyGrid, UniformGrid

DOMAIN = Domain.unit(2)
POINTS = uniform_points(1_500, DOMAIN, rng=np.random.default_rng(7))

#: (label, split-rule factory, sensible max height) for the parity sweeps.
RULES = [
    ("quad", lambda: QuadSplit(), 4),
    ("kd-em", lambda: KDSplit(median_method="em"), 3),
    ("kd-hybrid", lambda: HybridSplit(kd_levels=2, median_method="em"), 4),
]

BUDGETS = ["uniform", "geometric", LevelSkippingBudget(stride=2)]


def build_pair(rule, height, budget, seed=11, **kwargs):
    """The same build under both layouts from identically seeded generators."""
    pointer = build_psd(POINTS, DOMAIN, height, rule, epsilon=1.0, count_budget=budget,
                        rng=seed, layout="pointer", **kwargs)
    flat = build_psd(POINTS, DOMAIN, height, rule, epsilon=1.0, count_budget=budget,
                     rng=seed, layout="flat", **kwargs)
    return pointer, flat


def forbid_per_node_splits(monkeypatch):
    """Make the per-node split fallback of the flat builder a hard failure."""
    import repro.core.flatbuild as flatbuild

    def forbidden(*args, **kwargs):
        raise AssertionError("per-node split fallback must not run for this rule")

    monkeypatch.setattr(flatbuild, "_split_level_per_node", forbidden)


def bfs_nodes(psd):
    order = [psd.root]
    i = 0
    while i < len(order):
        order.extend(order[i].children)
        i += 1
    return order


def assert_same_tree(pointer_psd, flat_psd):
    """Bitwise structural and count equality, checked on the raw flat arrays."""
    tree = flat_psd.flat_tree
    assert tree is not None, "flat build must stay flat-native until nodes are requested"
    order = bfs_nodes(pointer_psd)
    assert len(order) == tree.n_nodes
    assert np.array_equal(np.array([n.rect.lo for n in order]), tree.lo)
    assert np.array_equal(np.array([n.rect.hi for n in order]), tree.hi)
    assert np.array_equal(np.array([n.level for n in order]), tree.level)
    assert np.array_equal(np.array([n._true_count for n in order]), tree.true_count)
    assert np.array_equal(np.array([n.noisy_count for n in order]),
                          tree.noisy_count, equal_nan=True)
    posts = [n.post_count for n in order]
    if tree.post_count is None:
        assert all(p is None for p in posts)
    else:
        assert np.array_equal(np.array(posts, dtype=float), tree.post_count)
    leaf_flags = np.array([n.is_leaf for n in order])
    assert np.array_equal(leaf_flags, tree.is_leaf)


class TestLayoutParity:
    @pytest.mark.parametrize("label,make_rule,height", RULES)
    @pytest.mark.parametrize("budget", BUDGETS, ids=["uniform", "geometric", "level-skip"])
    def test_structure_counts_and_ols_bitwise(self, label, make_rule, height, budget):
        pointer_psd, flat_psd = build_pair(make_rule(), height, budget, postprocess=True)
        assert_same_tree(pointer_psd, flat_psd)

    @pytest.mark.parametrize("height", [0, 1, 3])
    def test_heights_including_degenerate(self, height):
        pointer_psd, flat_psd = build_pair(QuadSplit(), height, "geometric", postprocess=False)
        assert_same_tree(pointer_psd, flat_psd)

    @pytest.mark.parametrize("label,make_rule,height", RULES)
    def test_query_answers_match(self, label, make_rule, height):
        pointer_psd, flat_psd = build_pair(make_rule(), height, "geometric", postprocess=True)
        rng = np.random.default_rng(5)
        for _ in range(25):
            lo = rng.uniform(0.0, 0.6, 2)
            q = Rect(tuple(lo), tuple(lo + rng.uniform(0.05, 0.4, 2)))
            reference = pointer_psd.range_query(q)
            # Recursive backend over the lazily materialised view: bitwise.
            assert flat_psd.range_query(q) == reference
            # Compiled engine: n(Q) exact, estimate/Err within the engine's
            # established float-summation tolerance.
            assert flat_psd.nodes_touched(q, backend="flat") == pointer_psd.nodes_touched(q)
            assert flat_psd.range_query(q, backend="flat") == pytest.approx(reference, rel=1e-9, abs=1e-9)
            assert flat_psd.query_variance(q, backend="flat") == pytest.approx(
                pointer_psd.query_variance(q), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("label,make_rule,height", RULES)
    def test_pruning_matches(self, label, make_rule, height):
        pointer_psd, flat_psd = build_pair(make_rule(), height, "geometric",
                                           postprocess=True, prune_threshold=40.0)
        assert flat_psd.is_flat_native
        assert flat_psd.node_count() == pointer_psd.node_count()
        assert flat_psd.leaf_count() == len(pointer_psd.leaves())
        assert_same_tree(pointer_psd, flat_psd)

    def test_prune_removed_counts_equal(self):
        from repro.core.pruning import prune_low_count_subtrees

        pointer_psd, flat_psd = build_pair(QuadSplit(), 4, "geometric", postprocess=True)
        removed_pointer = prune_low_count_subtrees(pointer_psd, 30.0)
        removed_flat = prune_low_count_subtrees(flat_psd, 30.0)
        assert removed_pointer == removed_flat > 0
        assert pointer_psd.node_count() == flat_psd.node_count()
        assert_same_tree(pointer_psd, flat_psd)

    def test_accountant_charges_match(self):
        pointer_psd, flat_psd = build_pair(KDSplit(), 3, "geometric")
        a, b = pointer_psd.accountant, flat_psd.accountant
        assert a.path_epsilon == b.path_epsilon
        assert a.per_kind == b.per_kind

    def test_hilbert_rtree_parity(self):
        kwargs = dict(height=6, epsilon=1.0, order=10, postprocess=True)
        pointer_tree = build_private_hilbert_rtree(POINTS, DOMAIN, rng=3, layout="pointer", **kwargs)
        flat_tree = build_private_hilbert_rtree(POINTS, DOMAIN, rng=3, layout="flat", **kwargs)
        assert flat_tree.psd.is_flat_native
        assert_same_tree(pointer_tree.psd, flat_tree.psd)
        q = Rect((0.2, 0.1), (0.7, 0.8))
        assert flat_tree.range_query(q) == pointer_tree.range_query(q)

    def test_cell_kdtree_parity(self, monkeypatch):
        forbid_per_node_splits(monkeypatch)
        for resolution in (1, 7, 32, 256):
            for height in range(7):
                kwargs = dict(height=height, epsilon=1.0, variant="kd-cell",
                              cell_resolution=resolution)
                pointer_psd = build_private_kdtree(POINTS, DOMAIN, rng=9, layout="pointer",
                                                   **kwargs)
                flat_psd = build_private_kdtree(POINTS, DOMAIN, rng=9, layout="flat", **kwargs)
                assert_same_tree(pointer_psd, flat_psd)

    def test_cell_kdtree_parity_with_splits_on_the_domain_top_face(self, monkeypatch):
        # All grid mass sits in the top-right cell, so the root's cuts land
        # within isclose of the domain's upper faces; points placed exactly on
        # those cuts (and on the faces) take the route-to-both-children path.
        forbid_per_node_splits(monkeypatch)
        domain = Domain(Rect((1000.0, 1000.0), (1001.0, 1001.0)))
        grid = UniformGrid(domain=domain, shape=(256, 256))
        counts = np.zeros(grid.shape)
        counts[-1, -1] = 100.0
        rule = CellKDSplit(noisy_grid=NoisyGrid(grid=grid, counts=counts, epsilon=1.0))
        root_lo = np.array([domain.rect.lo])
        root_hi = np.array([domain.rect.hi])
        cut_x = grid_medians(rule.noisy_grid, root_lo, root_hi, axis=0)[0]
        cut_y = grid_medians(rule.noisy_grid, [[cut_x, 1000.0]], root_hi, axis=1)[0]
        rng = np.random.default_rng(4)
        points = np.concatenate([
            uniform_points(200, domain, rng=rng),
            np.column_stack([np.full(20, cut_x), 1000.0 + rng.random(20)]),
            np.column_stack([1000.0 + rng.random(20), np.full(20, cut_y)]),
            [[cut_x, cut_y], [1001.0, 1001.0], [cut_x, 1001.0], [1001.0, cut_y]],
        ])
        for height in (1, 3):
            kwargs = dict(epsilon=1.0, rng=5, postprocess=True)
            pointer_psd = build_psd(points, domain, height, rule, layout="pointer", **kwargs)
            flat_psd = build_psd(points, domain, height, rule, layout="flat", **kwargs)
            assert_same_tree(pointer_psd, flat_psd)
            tree = flat_psd.flat_tree
            assert tree.true_count[1:5].sum() > points.shape[0]  # duplication ran

    def test_noiseless_counts_parity(self):
        pointer_psd, flat_psd = build_pair(KDSplit(median_method="true"), 3, "geometric",
                                           noiseless_counts=True)
        assert_same_tree(pointer_psd, flat_psd)
        tree = flat_psd.flat_tree
        assert np.array_equal(tree.noisy_count, tree.true_count.astype(float))

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError, match="layout"):
            build_psd(POINTS, DOMAIN, 2, QuadSplit(), epsilon=1.0, layout="linked-list")


class TestFlatNativeFacade:
    def test_build_stays_flat_through_whole_pipeline(self):
        psd = build_psd(POINTS, DOMAIN, 4, QuadSplit(), epsilon=1.0,
                        postprocess=True, prune_threshold=20.0)
        assert psd.is_flat_native
        # Batch serving straight from the arrays keeps it flat too.
        engine = psd.compile()
        assert engine.validate() is engine
        assert psd.is_flat_native

    def test_materialisation_demotes_once(self):
        psd = build_psd(POINTS, DOMAIN, 3, QuadSplit(), epsilon=1.0)
        root = psd.root
        assert not psd.is_flat_native
        assert psd.flat_tree is None
        assert psd.root is root  # stable identity after demotion

    def test_mutating_materialised_view_is_visible_to_transforms(self):
        psd = build_psd(POINTS, DOMAIN, 2, QuadSplit(), epsilon=1.0)
        psd.root.children[0].children = []
        with pytest.raises(ValueError, match="complete"):
            apply_ols(psd)

    def test_strip_private_fields_stays_flat(self):
        psd = build_psd(POINTS, DOMAIN, 3, QuadSplit(), epsilon=1.0)
        psd.strip_private_fields()
        assert psd.is_flat_native
        assert not psd.flat_tree.true_count.any()
        assert all(n._true_count == 0 for n in psd.nodes())

    def test_compiled_engines_identical_across_layouts(self):
        pointer_psd, flat_psd = build_pair(QuadSplit(), 3, "geometric", postprocess=True)
        a = compile_psd(pointer_psd)
        b = compile_psd(flat_psd)
        for name in ("lo", "hi", "level", "released", "has_count", "is_leaf",
                     "child_start", "child_end", "area", "count_epsilons", "level_variance"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        b.validate()

    def test_requires_exactly_one_backing(self):
        from repro.core.tree import PrivateSpatialDecomposition

        with pytest.raises(ValueError, match="exactly one"):
            PrivateSpatialDecomposition(domain=DOMAIN, height=0, count_epsilons=(1.0,))


class TestStaleEngineRegression:
    """``populate_noisy_counts`` re-randomizes the released counts, so any
    memoised flat engine must be dropped — previously it kept serving the old
    counts."""

    def test_flat_backend_sees_fresh_counts(self):
        psd = build_psd(POINTS, DOMAIN, 3, QuadSplit(), epsilon=1.0, rng=0)
        q = Rect((0.1, 0.1), (0.9, 0.9))
        before = psd.range_query(q, backend="flat")
        assert COMPILED_ENGINE_KEY in psd.metadata
        populate_noisy_counts(psd, rng=12345)
        assert COMPILED_ENGINE_KEY not in psd.metadata
        after = psd.range_query(q, backend="flat")
        assert after != before
        # and the re-compiled engine agrees with the recursive reference
        assert after == pytest.approx(psd.range_query(q), rel=1e-9, abs=1e-9)

    def test_pointer_backed_trees_also_invalidate(self):
        psd = build_psd(POINTS, DOMAIN, 3, QuadSplit(), epsilon=1.0, rng=0, layout="pointer")
        q = Rect((0.2, 0.2), (0.8, 0.8))
        psd.range_query(q, backend="flat")
        assert COMPILED_ENGINE_KEY in psd.metadata
        populate_noisy_counts(psd, rng=999)
        assert COMPILED_ENGINE_KEY not in psd.metadata
        assert psd.range_query(q, backend="flat") == pytest.approx(
            psd.range_query(q), rel=1e-9, abs=1e-9)


def brute_force_ols(psd):
    """Direct weighted-least-squares solve (the slow definitional reference)."""
    nodes = list(psd.nodes())
    leaves = [n for n in nodes if n.is_leaf]
    leaf_index = {id(n): i for i, n in enumerate(leaves)}
    H = np.zeros((len(nodes), len(leaves)))
    weights = np.zeros(len(nodes))
    y = np.zeros(len(nodes))
    for row, node in enumerate(nodes):
        weights[row] = psd.count_epsilons[node.level]
        y[row] = node.noisy_count if np.isfinite(node.noisy_count) else 0.0
        for descendant in node.iter_subtree():
            if descendant.is_leaf:
                H[row, leaf_index[id(descendant)]] = 1.0
    A = np.diag(weights) @ H
    b = np.diag(weights) @ y
    leaf_beta, *_ = np.linalg.lstsq(A, b, rcond=None)
    return {id(n): float(H[r] @ leaf_beta) for r, n in enumerate(nodes)}


HILBERT_DOMAIN = Domain.from_bounds((0.0,), (1.0,), name="hilbert-index")

OLS_VARIANTS = [
    ("quad", lambda h, seed, budget: build_psd(
        POINTS, DOMAIN, h, QuadSplit(), epsilon=1.0,
        count_budget=budget, rng=seed, layout="pointer")),
    ("kd", lambda h, seed, budget: build_psd(
        POINTS, DOMAIN, h, KDSplit(median_method="em"), epsilon=1.0,
        count_budget=budget, rng=seed, layout="pointer")),
    ("hilbert", lambda h, seed, budget: build_psd(
        POINTS[:, :1], HILBERT_DOMAIN, h, BinaryMedianSplit(median_method="em"),
        epsilon=1.0, count_budget=budget, rng=seed, layout="pointer")),
]


class TestOLSProperty:
    """Vectorized OLS == recursive OLS == brute-force WLS, heights 0-6."""

    @pytest.mark.parametrize("label,build", OLS_VARIANTS)
    @pytest.mark.parametrize("budget", BUDGETS, ids=["uniform", "geometric", "level-skip"])
    @pytest.mark.parametrize("height", [0, 1, 2, 3, 6])
    def test_vectorized_equals_recursive(self, label, build, budget, height):
        if label != "hilbert" and height == 6:
            height = 4  # keep the fanout-4 reference builds quick; 6 covered below
        psd = build(height, 21, budget)
        # vectorized, non-mutating
        vectorized = ols_estimate_tree(psd)
        assert all(n.post_count is None for n in psd.nodes())
        # recursive reference, in place
        apply_ols(psd)
        for node in psd.nodes():
            assert vectorized[id(node)] == node.post_count  # bitwise
        assert check_consistency(psd) < 1e-6

    @pytest.mark.parametrize("label,build", OLS_VARIANTS)
    @pytest.mark.parametrize("height", [1, 2, 3])
    def test_matches_brute_force(self, label, build, height):
        psd = build(height, 31, "geometric")
        expected = brute_force_ols(psd)
        estimates = ols_estimate_tree(psd)
        worst = max(abs(estimates[id(n)] - expected[id(n)]) for n in psd.nodes())
        assert worst < 1e-6

    def test_flat_quad_height6_consistency(self):
        psd = build_psd(POINTS, DOMAIN, 6, QuadSplit(), epsilon=1.0,
                        count_budget="geometric", rng=4, postprocess=True)
        assert psd.is_flat_native
        tree = psd.flat_tree
        # consistency directly on the arrays: parent post == sum of children
        internal = ~tree.is_leaf
        sums = np.add.reduceat(tree.post_count, tree.child_start[internal])
        assert np.max(np.abs(tree.post_count[internal] - sums)) < 1e-6
        assert check_consistency(psd) < 1e-6  # and via the materialised view

    def test_level_skipping_budget_flat_vs_pointer(self):
        budget = LevelSkippingBudget(stride=2)
        pointer_psd, flat_psd = build_pair(QuadSplit(), 4, budget, postprocess=True)
        assert_same_tree(pointer_psd, flat_psd)

    def test_ols_beta_rejects_zero_leaf_budget(self):
        psd = build_psd(POINTS, DOMAIN, 2, QuadSplit(), epsilon=1.0, layout="pointer")
        _, arrays = flatten_tree(psd)
        with pytest.raises(ValueError, match="leaf budget"):
            ols_beta(arrays.level, arrays.parent, arrays.noisy_count,
                     (0.0, 0.5, 0.5), psd.fanout, psd.height)

    def test_ols_estimate_tree_requires_complete(self):
        psd = build_psd(POINTS, DOMAIN, 2, QuadSplit(), epsilon=1.0, prune_threshold=1e9)
        with pytest.raises(ValueError, match="complete"):
            ols_estimate_tree(psd)


class TestFlatTreeInternals:
    def test_level_slices_cover_array(self):
        psd = build_psd(POINTS, DOMAIN, 3, QuadSplit(), epsilon=1.0)
        tree = psd.flat_tree
        total = 0
        for level in range(tree.height, -1, -1):
            sl = tree.level_slice(level)
            assert sl.start == total
            total = sl.stop
            assert np.all(tree.level[sl] == level)
        assert total == tree.n_nodes

    def test_flatten_round_trips_through_materialise(self):
        psd = build_psd(POINTS, DOMAIN, 3, KDSplit(), epsilon=1.0, rng=2, postprocess=True)
        tree_before = psd.flat_tree
        snapshot = {
            "lo": tree_before.lo.copy(), "noisy": tree_before.noisy_count.copy(),
            "post": tree_before.post_count.copy(), "true": tree_before.true_count.copy(),
        }
        psd.root  # demote to pointers
        _, tree_after = flatten_tree(psd)
        assert np.array_equal(tree_after.lo, snapshot["lo"])
        assert np.array_equal(tree_after.noisy_count, snapshot["noisy"])
        assert np.array_equal(tree_after.post_count, snapshot["post"])
        assert np.array_equal(tree_after.true_count, snapshot["true"])
        assert isinstance(tree_after, FlatTree)


# ----------------------------------------------------------------------
# Lazy regrouping and the narrow-key stable order
# ----------------------------------------------------------------------
#: A domain far from the origin: ``np.isclose(mid, domain_hi)`` holds for
#: every node midpoint, so a point exactly on a midpoint is routed to both
#: children (the domain-edge semantics) and duplicated in the flat build.
FAR_DOMAIN = Domain(Rect((1e6, 1e6), (1e6 + 1.0, 1e6 + 1.0)))


def far_points(n_random: int = 600, seed: int = 3) -> np.ndarray:
    """Random points plus points exactly on the first levels' midpoint faces."""
    gen = np.random.default_rng(seed)
    random = 1e6 + gen.random((n_random, 2))
    ticks = 1e6 + np.arange(1, 16) / 16.0  # midpoints of the top four quad levels
    on_x = np.column_stack([ticks, 1e6 + gen.random(ticks.size)])
    on_y = np.column_stack([1e6 + gen.random(ticks.size), ticks[::-1]])
    corners = np.array([[1e6 + 0.5, 1e6 + 0.5], [1e6 + 0.25, 1e6 + 0.75]])
    return np.concatenate([random, on_x, on_y, corners])


@dataclass(frozen=True)
class QuadThenThirds(SplitRule):
    """Quadtree levels above ``switch``, then a data-independent split at one
    third of each axis that has no vectorized path.

    The quad levels leave the points in routing order, so the flat builder
    must regroup them by node before its per-node fallback can slice them.
    """

    switch: int = 2
    name: str = "quad-then-thirds"

    def is_data_dependent(self, level, height):
        return False

    def split(self, rect, points, level, height, domain, epsilon_median, rng=None):
        if level > self.switch:
            return QuadSplit().split(rect, points, level, height, domain, 0.0)
        low, high = rect.split_at(0, rect.lo[0] + (rect.hi[0] - rect.lo[0]) / 3.0)
        children = []
        for half_rect, half_points in _partition([low, high], points, domain):
            cut = half_rect.lo[1] + (half_rect.hi[1] - half_rect.lo[1]) / 3.0
            children.extend(_partition(list(half_rect.split_at(1, cut)), half_points, domain))
        return children

    def split_level(self, lo, hi, points, point_node, level, height, domain,
                    epsilon_median, rng=None):
        if level > self.switch:
            return QuadSplit().split_level(lo, hi, points, point_node, level, height,
                                           domain, 0.0)
        return None


def spy_regroups(monkeypatch):
    """Record, for every regroup call, whether its input was out of node order."""
    import repro.core.flatbuild as flatbuild

    calls = []
    original = flatbuild._regroup

    def spy(pts, node):
        calls.append(bool(np.any(np.diff(node) < 0)))
        return original(pts, node)

    monkeypatch.setattr(flatbuild, "_regroup", spy)
    return calls


def build_on(points, domain, rule, height, seed=5):
    kwargs = dict(epsilon=1.0, rng=seed, postprocess=True)
    pointer = build_psd(points, domain, height, rule, layout="pointer", **kwargs)
    flat = build_psd(points, domain, height, rule, layout="flat", **kwargs)
    return pointer, flat


class TestRegroupParity:
    @pytest.mark.parametrize("domain,points", [(DOMAIN, POINTS), (FAR_DOMAIN, far_points())],
                             ids=["unit", "closed-faces"])
    def test_hybrid_kd_levels_then_quad_levels(self, monkeypatch, domain, points):
        forbid_per_node_splits(monkeypatch)
        calls = spy_regroups(monkeypatch)
        pointer, flat = build_on(points, domain, HybridSplit(kd_levels=2), 5)
        assert_same_tree(pointer, flat)
        # Only the two kd levels ask for grouped points; the quad levels
        # below them never regroup.
        assert len(calls) == 2

    def test_quad_points_on_closed_midpoint_faces(self, monkeypatch):
        forbid_per_node_splits(monkeypatch)
        calls = spy_regroups(monkeypatch)
        points = far_points()
        pointer, flat = build_on(points, FAR_DOMAIN, QuadSplit(), 4)
        assert_same_tree(pointer, flat)
        tree = flat.flat_tree
        assert tree.true_count[tree.level == 0].sum() > points.shape[0]  # duplication ran
        assert calls == []  # quad levels route points in any order

    @pytest.mark.parametrize("domain,points", [(DOMAIN, POINTS), (FAR_DOMAIN, far_points())],
                             ids=["unit", "closed-faces"])
    def test_rule_without_split_level_after_quad_levels(self, monkeypatch, domain, points):
        import repro.core.flatbuild as flatbuild

        calls = spy_regroups(monkeypatch)
        fallbacks = []
        original = flatbuild._split_level_per_node

        def counted(*args, **kwargs):
            fallbacks.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(flatbuild, "_split_level_per_node", counted)
        pointer, flat = build_on(points, domain, QuadThenThirds(switch=2), 4)
        assert_same_tree(pointer, flat)
        assert len(fallbacks) == 2  # levels 2 and 1 split per node
        assert calls and calls[0], "the first fallback must regroup unsorted points"


class TestStableOrder:
    @pytest.mark.parametrize("span", [1, 0xFE, 0xFF, 0x100, 0xFFFE, 0xFFFF, 0x10000, 0x10001])
    @pytest.mark.parametrize("low", [0, -70_000, 123_456_789])
    def test_equals_numpy_stable_argsort(self, span, low):
        gen = np.random.default_rng(span)
        keys = low + gen.integers(0, span + 1, 5000)
        keys[:2] = [low, low + span]  # the range exactly
        assert np.array_equal(stable_order(keys), np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16, np.intp])
    def test_dtypes_and_ties(self, dtype):
        keys = np.repeat(np.arange(40, dtype=dtype)[::-1], 7)
        assert np.array_equal(stable_order(keys), np.argsort(keys, kind="stable"))

    def test_degenerate_inputs(self):
        assert stable_order(np.empty(0, dtype=np.int64)).shape == (0,)
        assert np.array_equal(stable_order(np.full(9, 4)), np.arange(9))
        assert np.array_equal(stable_order(np.array([3])), np.array([0]))
