"""The exact cell-scan engine against brute-force enumeration."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_text import read_csv
from tailvc import gridscan
from tailvc.cli import main
from tailvc.concentration import RectClassSpec, union_mass
from tailvc.errors import PreconditionError
from tailvc.empirical import column_tails, tail_depths
from tailvc.gridscan import (
    _dominance_strips,
    candidate_axes,
    cell_corner_max,
    declared_axis,
    dominance_weight_grid,
    lattice_corner_max,
    max_count_gap,
    suffix_sums,
    sup_count_vs_mass,
    sup_count_vs_mass_grid,
    sup_signed_count,
)
from tailvc.models import (
    eval_stdf_axes,
    parse_model,
    tail_union_prob,
    tail_union_prob_axes,
)
from tailvc.rng import substream
from tailvc.samplers import draw_copula_sample, draw_tail_uniforms
from traced_memory import traced_peak


def dense_dominance_grid(points, weights, axes, strict):
    """The dense scan the strip walker replaced: one histogram, one suffix sum."""
    side = "left" if strict else "right"
    hist = np.zeros(tuple(len(a) for a in axes))
    buckets = [np.searchsorted(a, points[:, j], side=side) - 1
               for j, a in enumerate(axes)]
    alive = np.all([b >= 0 for b in buckets], axis=0)
    np.add.at(hist, tuple(b[alive] for b in buckets), weights[alive])
    return suffix_sums(hist)


def dense_count_frac(points, axes):
    n = points.shape[0]
    return (n - dense_dominance_grid(points, np.ones(n), axes, strict=True)) / n


def dense_sup_count_vs_mass(points, tmax, mass_fn):
    axes = candidate_axes(points, np.full(points.shape[1], tmax))
    count_frac = dense_count_frac(points, axes)
    mass = mass_fn(axes)
    d = points.shape[1]
    best = float(np.abs(count_frac - mass).max())
    lower = count_frac[(slice(None, -1),) * d]
    if lower.size:
        upper = mass[(slice(1, None),) * d]
        best = max(best, float(np.abs(lower - upper).max()))
    return best


def dense_sup_signed_count(points, signs, tmax, axes=None):
    if axes is None:
        axes = candidate_axes(points, np.full(points.shape[1], tmax))
    dominated = dense_dominance_grid(points, signs, axes, strict=False)
    return float(np.abs(signs.sum() - dominated).max())


def per_cell_corner_max(values, ref):
    """max over the nodes i of |values[i] - ref[i]| and, where ref has it,
    |values[i] - ref[i + 1]|, one node at a time."""
    best = 0.0
    for i in np.ndindex(values.shape):
        best = max(best, abs(values[i] - ref[i]))
        up = tuple(j + 1 for j in i)
        if all(u < r for u, r in zip(up, ref.shape)):
            best = max(best, abs(values[i] - ref[up]))
    return best


def lattice_counts(depths, k, m_top):
    """#{rows with depth_j <= m_j for some j} / k on the whole lattice."""
    d = depths.shape[1]
    levels = np.meshgrid(*[np.arange(m_top + 1)] * d, indexing="ij")
    hit = np.zeros(levels[0].shape + (depths.shape[0],), dtype=bool)
    for j in range(d):
        hit |= depths[:, j] <= levels[j][..., None]
    return hit.sum(axis=-1) / k


def set_strip_rows(monkeypatch, rows, axes):
    """Make the walker cut strips of ``rows`` axis-0 rows."""
    row_bytes = 8 * math.prod(len(a) for a in axes[1:])
    monkeypatch.setattr(gridscan, "_STRIP_BYTES", rows * row_bytes)


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def tied_sample(rng, n, d):
    """Uniform points snapped to a coarse grid, so buckets repeat."""
    return np.round(rng.random((n, d)) * 7) / 8


def brute_points(z, tmax, d, extra=401):
    """Dense threshold grid enriched around every breakpoint.

    The supremum is approached one-sidedly at breakpoints, so the grid
    carries copies just above and just below each data value.
    """
    vals = z.ravel()
    vals = vals[(vals >= 0) & (vals <= tmax)]
    g = np.unique(
        np.concatenate(
            [
                np.linspace(0.0, tmax, extra),
                vals,
                np.minimum(vals + 1e-9, tmax),
                np.maximum(vals - 1e-9, 0.0),
            ]
        )
    )
    if d == 1:
        return g[:, None]
    a, b = np.meshgrid(g, g, indexing="ij")
    return np.column_stack([a.ravel(), b.ravel()])


class TestSupCountVsMass:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(1, 3))
            n = int(rng.integers(5, 80))
            tmax = float(rng.uniform(0.05, 0.6))
            tag = str(rng.choice(["independence", "comonotone", "logistic(3)"]))
            model = parse_model(tag, d)
            from tailvc.samplers import draw_tail_uniforms

            z = draw_tail_uniforms(model, n, rng)
            exact = sup_count_vs_mass(
                z, np.full(d, tmax), lambda axes: tail_union_prob_axes(model, axes)
            )
            pts = brute_points(z, tmax, d, extra=201)
            cnt = np.any(z[None, :, :] <= pts[:, None, :], axis=2).mean(axis=1)
            mass = tail_union_prob(model, pts)
            brute = np.abs(cnt - mass).max()
            assert exact >= brute - 1e-12
            # enrichment puts grid points within 1e-9 of every cell corner
            assert exact <= brute + 1e-6

    def test_no_points_in_region(self):
        # count is identically zero; sup equals the mass at the far corner
        model = parse_model("independence", 2)
        z = np.full((50, 2), 0.9) + np.arange(50)[:, None] * 1e-4
        tmax = 0.2
        got = sup_count_vs_mass(
            z, np.full(2, tmax), lambda axes: tail_union_prob_axes(model, axes)
        )
        assert got == tail_union_prob(model, [tmax, tmax])

    def test_single_point_one_dim(self):
        model = parse_model("independence", 1)
        z = np.array([[0.05]])
        tmax = 0.3
        got = sup_count_vs_mass(
            z, np.array([tmax]), lambda axes: tail_union_prob_axes(model, axes)
        )
        # candidates are {0, 0.05, 0.3}; scan the three by hand
        by_hand = max(abs(0.05 - 0.0), abs(1.0 - 0.05), abs(1.0 - 0.3))
        assert got == by_hand

    def test_grid_fallback_brackets_exact(self):
        rng = np.random.default_rng(9)
        model = parse_model("independence", 2)
        from tailvc.samplers import draw_tail_uniforms

        z = draw_tail_uniforms(model, 60, rng)
        tmax = np.full(2, 0.4)
        mass_fn = lambda axes: tail_union_prob_axes(model, axes)
        exact = sup_count_vs_mass(z, tmax, mass_fn)
        approx = sup_count_vs_mass_grid(z, tmax, mass_fn, resolution=40)
        assert approx.value <= exact + 1e-12
        assert exact <= approx.value + approx.discretization_bound + 1e-12


class TestSupSignedCount:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            d = int(rng.integers(1, 3))
            n = int(rng.integers(4, 50))
            z = rng.random((n, d))
            signs = rng.integers(0, 2, n) * 2.0 - 1.0
            tmax = float(rng.uniform(0.1, 0.9))
            exact = sup_signed_count(z, signs, np.full(d, tmax))
            cand = np.unique(
                np.concatenate([[0.0], z.ravel(), np.minimum(z.ravel() + 1e-9, tmax),
                                [tmax]])
            )
            cand = cand[cand <= tmax]
            if d == 1:
                pts = cand[:, None]
            else:
                a, b = np.meshgrid(cand, cand, indexing="ij")
                pts = np.column_stack([a.ravel(), b.ravel()])
            vals = np.abs(
                (np.any(z[None, :, :] < pts[:, None, :], axis=2) * signs).sum(axis=1)
            )
            assert abs(exact - vals.max()) < 1e-9

    def test_empty_box_is_zero(self):
        rng = np.random.default_rng(8)
        z = rng.random((20, 2))
        signs = rng.integers(0, 2, 20) * 2.0 - 1.0
        assert sup_signed_count(z, signs, np.zeros(2)) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(1, 2),
        levels=st.integers(1, 12),
        cells=st.lists(st.tuples(st.integers(-2, 14), st.integers(-2, 14),
                                 st.sampled_from([-1, 1, 2, -3, 0])),
                       max_size=80),
        tmax=st.tuples(st.sampled_from([0.0, 0.5, 1.0]),
                       st.sampled_from([0.0, 0.5, 1.0])),
        declared=st.one_of(st.none(), st.integers(2, 30)),
    )
    def test_column_blocks_match_dense_scan(self, d, levels, cells, tmax, declared):
        # coordinates on a coarse lattice: ties, points <= 0 and >= tmax
        box = np.array(tmax[:d])
        ij = np.array([c[:2] for c in cells], dtype=float).reshape(-1, 2)[:, :d]
        z = ij / levels * np.where(box > 0, box, 1.0)
        signs = np.array([c[2] for c in cells], dtype=np.int64)
        axes = None
        if declared is not None and d == 2:
            axes = [np.linspace(0.0, t, declared) for t in box]
        got = sup_signed_count(z, signs, box, axes=axes)
        ref_axes = candidate_axes(z, box) if axes is None else axes
        assert got == dense_sup_signed_count(z, signs.astype(float), box, ref_axes)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("declared", [None, 7])
    def test_fold_mask_matches_the_row_reduction(self, monkeypatch, d, declared):
        # rows at or above the top breakpoint of every axis, column by column,
        # against np.all over axis 1; coarse values put ties on the top
        rng = np.random.default_rng(40 + d)
        box = np.full(d, 0.5)
        z = np.round(rng.random((500, d)) * 8) / 10
        signs = rng.integers(0, 2, 500) * 2 - 1
        axes = candidate_axes(z, box) if declared is None else [
            np.linspace(0.0, 0.45, declared)] * d
        masks = []
        real = gridscan.reduce
        monkeypatch.setattr(gridscan, "reduce",
                            lambda *a: masks.append(real(*a)) or masks[-1])
        sup_signed_count(z, signs, box, axes=axes)
        want = np.all(z >= np.array([a[-1] for a in axes]), axis=1)
        assert len(masks) == 1
        assert masks[0].dtype == bool and masks[0].tolist() == want.tolist()
        assert want.any() and not want.all()

    def test_top_axis1_bucket_starts_in_the_running_sum(self):
        # about kT = 16,000 breakpoints per axis; the rows above the box on
        # axis 1 alone count at every axis-1 node and are no block's rows,
        # so no profile holds m0 levels by ceil(sqrt(m1)) columns (15 MiB)
        n, edge = 200_000, 8000 / 200_000 * 2.0
        rng = np.random.default_rng(8000)
        z = rng.random((n, 2))
        signs = rng.integers(0, 2, n) * 2 - 1
        peak, _ = traced_peak(sup_signed_count, z, signs, np.full(2, edge))
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("m1", [1, 2, 15, 16, 17, 21, 24, 25, 26, 101])
    def test_block_edges(self, m1):
        # blocks are B = ceil(sqrt(m1)) columns wide; the last block holds
        # B - 1 columns at m1 = 15 and 24, B at 16 and 25, 1 at 21
        rng = np.random.default_rng(m1)
        inner = np.arange(1, m1 - 1) / (m1 - 1)
        pool = np.concatenate([inner, [0.0, 1.0, 1.5, -0.1]])
        col1 = np.concatenate([inner, rng.choice(pool, 400)])
        n = len(col1)
        z = np.column_stack([np.round(rng.random(n) * 30) / 25, col1])
        signs = rng.integers(0, 2, n) * 2 - 1
        box = np.array([1.0, 1.0 if m1 > 1 else 0.0])
        axes = candidate_axes(z, box)
        assert len(axes[1]) == m1
        assert sup_signed_count(z, signs, box) == dense_sup_signed_count(
            z, signs.astype(float), box, axes)

    @pytest.mark.parametrize("rows", [None, 1])
    def test_declared_axes_three_dims_use_the_strip_walker(self, monkeypatch, rows):
        rng = np.random.default_rng(31)
        z = np.concatenate([tied_sample(rng, 60, 3), rng.random((60, 3)) - 0.05])
        signs = rng.integers(0, 2, 120) * 2 - 1
        axes = [np.linspace(0.0, 0.7, 9)] * 3
        if rows is not None:
            set_strip_rows(monkeypatch, rows, axes)
        walked = []
        real = gridscan._dominance_strips
        monkeypatch.setattr(gridscan, "_dominance_strips",
                            lambda *a, **kw: walked.append(1) or real(*a, **kw))
        got = sup_signed_count(z, signs, np.full(3, 0.7), axes=axes)
        assert walked
        assert got == dense_sup_signed_count(z, signs.astype(float), 0.7, axes)

    def test_integer_valued_float_signs_match_int_signs(self):
        rng = np.random.default_rng(12)
        z = rng.random((200, 2))
        signs = rng.integers(0, 2, 200) * 2 - 1
        box = np.full(2, 0.6)
        assert sup_signed_count(z, signs.astype(float), box) == sup_signed_count(
            z, signs, box)

    @pytest.mark.parametrize("case", ["short", "long", "matrix", "half", "nan-sign",
                                      "nan-point", "inf-point", "vector-points"])
    def test_bad_input_is_precondition_error(self, case):
        z = np.random.default_rng(4).random((10, 2))
        signs = np.ones(10)
        if case == "short":
            signs = np.ones(9)
        elif case == "long":
            signs = np.ones(11)
        elif case == "matrix":
            signs = np.ones((10, 1))
        elif case == "half":
            signs[3] = 0.5
        elif case == "nan-sign":
            signs[3] = np.nan
        elif case == "nan-point":
            z[2, 1] = np.nan
        elif case == "inf-point":
            z[2, 0] = np.inf
        elif case == "vector-points":
            z = z[:, 0]
        with pytest.raises(PreconditionError):
            sup_signed_count(z, signs, np.full(2, 0.5))

    def test_cli_trials_match_dense_reference(self, tmp_path):
        n, d, k, T, seed = 600, 2, 20, 2.0, 13
        out = tmp_path / "r"
        assert main([str(a) for a in [
            "rademacher", "--model", "uniform", "--n", n, "--d", d, "--k", k,
            "--T", T, "--statistic", "rademacher", "--trials", 3,
            "--seed", seed, "--out", out]]) == 0
        _, rows = read_csv(out / "rademacher.csv")
        got = [float(r[7]) for r in rows if r[6] == "relative_rademacher_sup"]
        model = parse_model("uniform", d)
        cls = RectClassSpec(d=d, k=k, n=n, T=T)
        p = union_mass(cls, model)
        want = []
        for t in range(3):
            rng = substream(seed, "rademacher", t)
            z = draw_tail_uniforms(model, n, rng)
            signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
            want.append(dense_sup_signed_count(z, signs, cls.box_edge) / (n * p))
        assert got == want


def indexed(grid):
    """A ``gridscan.CornerGrid`` ``evaluate`` that reads l off the array ``grid``."""
    def evaluate(idx):
        # each index array broadcasts along its own axis of the product
        d = grid.ndim
        return grid[tuple(
            np.reshape(i, np.shape(i)[:-1] + (1,) * j + (-1,) + (1,) * (d - 1 - j))
            for j, i in enumerate(idx))]
    return evaluate


class TestCellCornerMax:
    """The one cell-corner reducer, on both reference shapes."""

    @pytest.mark.parametrize("shapes", [
        ((7,), (7,)), ((7,), (8,)), ((5, 6), (5, 6)), ((5, 6), (6, 7)),
        ((5, 6), (6, 6)), ((1, 6), (1, 6)), ((1,), (1,)),
    ])
    def test_matches_per_cell_loop(self, shapes):
        # a lattice's corner grid has one node more per axis; a set-mass
        # grid as many, plus the next row up below the top strip
        rng = np.random.default_rng(len(shapes[0]) * 10 + shapes[1][0])
        values, ref = rng.random(shapes[0]), rng.random(shapes[1])
        want = per_cell_corner_max(values, ref)
        got = cell_corner_max(values.copy(), ref, scratch=np.empty(shapes[0]))
        assert got == want

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("rows", ["1", "2", "m-1", "m", "m+1"])
    def test_lattice_strips_match_per_cell_loop(self, monkeypatch, d, rows):
        model, k, T = parse_model("logistic(2)", d), 10, 2.0
        x = draw_copula_sample(model, 300, substream(41, "lattice", d))
        m_top = 20
        depths = tail_depths(column_tails(x, m_top + 1), [m_top] * d)
        axis = np.minimum(np.append(np.arange(m_top + 1) / k, T), T)
        corners = eval_stdf_axes(model, [axis] * d)
        m = m_top + 1
        strip = {"1": 1, "2": 2, "m-1": m - 1, "m": m, "m+1": m + 1}[rows]
        set_strip_rows(monkeypatch, strip, [axis[:-1]] * d)
        want = per_cell_corner_max(lattice_counts(depths, k, m_top), corners)
        walked = gridscan.CornerGrid(m_top, d, indexed(corners))  # no blocks
        assert lattice_corner_max(depths, k, walked) == want

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("rows", ["1", "2", "m-1", "m", "m+1"])
    def test_set_mass_strips_match_per_cell_loop(self, monkeypatch, d, rows):
        model = parse_model("logistic(3)", d)
        mass_fn = lambda axes: tail_union_prob_axes(model, axes)
        z = draw_tail_uniforms(model, 40, np.random.default_rng(42 + d))
        axes = candidate_axes(z, np.full(d, 0.5))
        m = len(axes[0])
        strip = {"1": 1, "2": 2, "m-1": m - 1, "m": m, "m+1": m + 1}[rows]
        set_strip_rows(monkeypatch, strip, axes)
        want = per_cell_corner_max(dense_count_frac(z, axes), mass_fn(axes))
        assert sup_count_vs_mass(z, np.full(d, 0.5), mass_fn) == want

    def test_no_tail_rows(self):
        # floor(k T) = 0 leaves U = 0 rows: the count is 0 on the one cell
        corners = np.array([[0.0, 0.25], [0.5, 0.75]])
        depths = np.empty((0, 2), dtype=np.int64)
        walked = gridscan.CornerGrid(0, 2, indexed(corners))
        assert lattice_corner_max(depths, 10, walked) == 0.75
        assert max_count_gap(np.empty((0, 2)), [np.array([0.0, 1.0])] * 2, 10,
                             lambda axes: np.full((axes[0].size, 2), 0.5)) == 0.5

    @pytest.mark.parametrize("scan", ["sup_count_vs_mass", "max_count_gap",
                                      "lattice_corner_max"])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_nan_reference_is_rejected(self, scan, where):
        # a NaN reference used to be dropped by max(best, nan) and read 0.0
        model = parse_model("independence", 2)

        def with_nan(axes):
            ref = tail_union_prob_axes(model, axes)
            ref[0 if where == "first" else -1, 1] = np.nan
            return ref

        z = np.array([[0.1, 0.2], [0.3, 0.05], [0.5, 0.5]])
        with pytest.raises(PreconditionError, match="NaN"):
            if scan == "sup_count_vs_mass":
                sup_count_vs_mass(z, 0.7, with_nan)
            elif scan == "max_count_gap":
                max_count_gap(z, [declared_axis(0.4, 5)] * 2, 3, with_nan)
            else:
                depths = tail_depths(column_tails(z, 3), [2, 2])
                corners = with_nan([np.arange(4) / 8] * 2)
                lattice_corner_max(depths, 2, gridscan.CornerGrid(2, 2, indexed(corners)))


class TestCandidateAxes:
    def test_zero_and_tmax_always_present(self):
        z = np.array([[0.5, 0.2], [0.9, 0.4]])
        axes = candidate_axes(z, np.array([0.6, 0.3]))
        assert axes[0].tolist() == [0.0, 0.5, 0.6]
        assert axes[1].tolist() == [0.0, 0.2, 0.3]

    def test_breakpoint_at_tmax_not_duplicated(self):
        z = np.array([[0.3]])
        axes = candidate_axes(z, np.array([0.3]))
        assert axes[0].tolist() == [0.0, 0.3]


class TestDominanceStrips:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("rows", ["1", "2", "m-1", "m", "m+1"])
    def test_strips_match_dense_grid_bit_for_bit(self, monkeypatch, d, strict, rows):
        rng = np.random.default_rng(17 + d)
        n = 300
        z = np.concatenate([tied_sample(rng, n // 2, d), rng.random((n // 2, d))])
        weights = rng.normal(size=n)
        axes = candidate_axes(z, np.full(d, 0.8))
        m = len(axes[0])
        assert m > 3
        strip = {"1": 1, "2": 2, "m-1": m - 1, "m": m, "m+1": m + 1}[rows]
        set_strip_rows(monkeypatch, strip, axes)
        dense = dense_dominance_grid(z, weights, axes, strict)
        covered = np.zeros(m, dtype=bool)
        top = m
        for lo, hi, block in _dominance_strips(z, weights, axes, strict):
            assert hi == top and lo < hi
            np.testing.assert_array_equal(bits(block), bits(dense[lo:hi]))
            covered[lo:hi] = True
            top = lo
        assert top == 0 and covered.all()
        np.testing.assert_array_equal(
            bits(dominance_weight_grid(z, weights, axes, strict)), bits(dense)
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("narrow", [0, 1 << 30], ids=["row-loop", "cumsum"])
    def test_both_row_adds_match_dense_grid_bit_for_bit(self, monkeypatch, d, narrow):
        # every d through each way of adding up a strip's rows
        monkeypatch.setattr(gridscan, "_NARROW_ROW", narrow)
        rng = np.random.default_rng(23 + d)
        z, weights = rng.random((300, d)), rng.normal(size=300)
        axes = candidate_axes(z, np.full(d, 0.8))
        set_strip_rows(monkeypatch, 7, axes)
        np.testing.assert_array_equal(
            bits(dominance_weight_grid(z, weights, axes, strict=True)),
            bits(dense_dominance_grid(z, weights, axes, strict=True)))

    def test_points_outside_every_bucket_carry_no_weight(self):
        z = np.array([[-0.5, 0.2], [0.3, -1.0], [0.4, 0.4]])
        axes = candidate_axes(z, np.array([0.5, 0.5]))
        grid = dominance_weight_grid(z, np.array([1.0, 2.0, 4.0]), axes, strict=True)
        np.testing.assert_array_equal(grid, dense_dominance_grid(
            z, np.array([1.0, 2.0, 4.0]), axes, strict=True))
        assert grid[0, 0] == 4.0


class TestPreviousValues:
    """The streamed scans return exactly what the dense scans returned."""

    @pytest.mark.parametrize("rows", [None, 1, 3])
    def test_fixed_seeds(self, monkeypatch, rows):
        rng = np.random.default_rng(2024)
        for _ in range(12):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(20, 400))
            tmax = float(rng.uniform(0.05, 0.9))
            tag = str(rng.choice(["independence", "comonotone", "logistic(3)"]))
            model = parse_model(tag, d)
            z = draw_tail_uniforms(model, n, rng)
            if rng.random() < 0.5:
                z = np.round(z * 40) / 40
            signs = rng.integers(0, 2, n) * 2.0 - 1.0
            mass_fn = lambda axes: tail_union_prob_axes(model, axes)
            axes = candidate_axes(z, np.full(d, tmax))
            if rows is not None:
                set_strip_rows(monkeypatch, rows, axes)
            assert sup_signed_count(z, signs, np.full(d, tmax)) == (
                dense_sup_signed_count(z, signs, tmax))
            if d <= 2:
                assert sup_count_vs_mass(z, np.full(d, tmax), mass_fn) == (
                    dense_sup_count_vs_mass(z, tmax, mass_fn))
            res = int(rng.integers(2, 25))
            grid_axes = [np.linspace(0.0, tmax, res)] * d
            if rows is not None:
                set_strip_rows(monkeypatch, rows, grid_axes)
            got = sup_count_vs_mass_grid(z, np.full(d, tmax), mass_fn, res)
            assert got.value == float(np.abs(
                dense_count_frac(z, grid_axes) - mass_fn(grid_axes)).max())

    @pytest.mark.parametrize("d", [1, 2])
    def test_upper_corner_in_next_strip(self, monkeypatch, d):
        # the largest gap is a cell's count against the mass at its upper
        # corner, and that corner is the first row of the strip above
        model = parse_model("independence", d)
        mass_fn = lambda axes: tail_union_prob_axes(model, axes)
        z = np.array([[0.5] * d, [0.6] * d])
        axes = candidate_axes(z, np.full(d, 0.7))
        count_frac = dense_count_frac(z, axes)
        mass = mass_fn(axes)
        gaps = np.abs(count_frac[(slice(None, -1),) * d] - mass[(slice(1, None),) * d])
        row = int(np.unravel_index(gaps.argmax(), gaps.shape)[0])
        assert gaps.max() > np.abs(count_frac - mass).max()
        m = len(axes[0])
        set_strip_rows(monkeypatch, m - row - 1, axes)
        first_lo = next(_dominance_strips(z, np.ones(2), axes, strict=True))[0]
        assert first_lo == row + 1  # the top strip starts at the upper corner
        got = sup_count_vs_mass(z, np.full(d, 0.7), mass_fn)
        assert got == gaps.max() == dense_sup_count_vs_mass(z, 0.7, mass_fn)

    def test_upper_corner_in_next_strip_random(self, monkeypatch):
        model = parse_model("logistic(3)", 2)
        mass_fn = lambda axes: tail_union_prob_axes(model, axes)
        rng = np.random.default_rng(5)
        z = draw_tail_uniforms(model, 60, rng)
        axes = candidate_axes(z, np.full(2, 0.3))
        count_frac = dense_count_frac(z, axes)
        mass = mass_fn(axes)
        gaps = np.abs(count_frac[:-1, :-1] - mass[1:, 1:])
        assert gaps.max() > np.abs(count_frac - mass).max()
        row = int(np.unravel_index(gaps.argmax(), gaps.shape)[0])
        set_strip_rows(monkeypatch, len(axes[0]) - row - 1, axes)
        assert sup_count_vs_mass(z, np.full(2, 0.3), mass_fn) == gaps.max()


class TestBoxValidation:
    @pytest.mark.parametrize("tmax", [-0.1, np.nan, np.inf])
    def test_every_scan_rejects_a_bad_box(self, tmax):
        model = parse_model("independence", 2)
        mass_fn = lambda axes: tail_union_prob_axes(model, axes)
        z = np.random.default_rng(3).random((10, 2))
        box = np.array([0.5, tmax])
        with pytest.raises(PreconditionError, match="threshold box"):
            sup_signed_count(z, np.ones(10), box)
        with pytest.raises(PreconditionError, match="threshold box"):
            sup_count_vs_mass(z, box, mass_fn)
        with pytest.raises(PreconditionError, match="threshold box"):
            sup_count_vs_mass_grid(z, box, mass_fn, resolution=5)


class TestPointValidation:
    @staticmethod
    def scans():
        model = parse_model("independence", 2)
        mass_fn = lambda axes: tail_union_prob_axes(model, axes)
        return {
            "sup_count_vs_mass": lambda z: sup_count_vs_mass(z, 0.4, mass_fn),
            "max_count_gap": lambda z: max_count_gap(
                z, [declared_axis(0.4, 5)] * 2, 3, mass_fn),
        }

    def test_finite_points_reference_values(self):
        z = np.array([[0.1, 0.2], [0.3, 0.05], [0.5, 0.5]])
        scans = self.scans()
        assert scans["sup_count_vs_mass"](z) == 0.5216666666666666
        assert scans["max_count_gap"](z) == 0.4766666666666667

    @pytest.mark.parametrize("scan", ["sup_count_vs_mass", "max_count_gap"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_is_rejected(self, scan, bad):
        # a NaN or inf coordinate used to count as +inf and pass silently
        z = np.array([[0.1, 0.2], [0.3, 0.05], [0.5, 0.5]])
        z[2, 0] = bad
        with pytest.raises(PreconditionError, match="points must be finite"):
            self.scans()[scan](z)


class TestDegeneratePoints:
    @staticmethod
    def scans():
        model = parse_model("independence", 2)
        mass_fn = lambda axes: tail_union_prob_axes(model, axes)
        return {
            "sup_signed_count": lambda z: sup_signed_count(
                z, np.ones(z.shape[0]), 0.4),
            "sup_count_vs_mass": lambda z: sup_count_vs_mass(z, 0.4, mass_fn),
            "sup_count_vs_mass_grid": lambda z: sup_count_vs_mass_grid(
                z, 0.4, mass_fn, 5),
            "max_count_gap": lambda z: max_count_gap(
                z, [declared_axis(0.4, 5)] * z.shape[1], 3, mass_fn),
        }

    @pytest.mark.parametrize("scan", ["sup_signed_count", "sup_count_vs_mass",
                                      "sup_count_vs_mass_grid", "max_count_gap"])
    def test_no_columns_is_rejected(self, scan):
        # an n x 0 matrix used to raise TypeError or IndexError (exit 5)
        with pytest.raises(PreconditionError, match=r"d >= 1, got \(3, 0\)"):
            self.scans()[scan](np.ones((3, 0)))

    @pytest.mark.parametrize("scan", ["sup_count_vs_mass", "sup_count_vs_mass_grid"])
    def test_set_mass_scans_reject_no_rows(self, scan):
        # both divide by n: 0.0 with a divide warning, or a NaN slack
        with pytest.raises(PreconditionError, match="n >= 1 and d >= 1"):
            self.scans()[scan](np.ones((0, 2)))

    def test_count_gap_accepts_no_rows(self):
        # the count is 0 everywhere, so the gap is the largest reference
        got = self.scans()["max_count_gap"](np.ones((0, 2)))
        assert got == tail_union_prob(parse_model("independence", 2), [0.4, 0.4])


class TestScanMemory:
    def test_signed_scan_memory_is_linear_in_breakpoints(self):
        # m = 4001 breakpoints per axis: the dense scan held three
        # 4001 x 4001 float grids, about 384 MB
        rng = np.random.default_rng(11)
        z = rng.random((3999, 2))
        signs = rng.integers(0, 2, 3999) * 2.0 - 1.0
        assert len(candidate_axes(z, np.ones(2))[0]) == 4001
        tracemalloc.start()
        try:
            sup_signed_count(z, signs, np.ones(2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
