import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barseg import cli, evaluate
from barseg.bars import BarGrid


class TestHitRate:
    def test_perfect_match(self):
        est = evaluate.BoundarySet(np.array([0.0, 10.0, 20.0]))
        ref = evaluate.BoundarySet(np.array([0.0, 10.0, 20.0]))
        for tol in (0.5, 3.0):
            res = evaluate.hit_rate(est, ref, tol)
            assert (res["precision"], res["recall"], res["f_measure"]) == (1.0, 1.0, 1.0)

    def test_tolerance_sensitivity(self):
        est = evaluate.BoundarySet(np.array([0.0, 10.0, 20.0]))
        ref = evaluate.BoundarySet(np.array([0.0, 10.4, 20.0]))
        res = evaluate.hit_rate(est, ref, 0.5)
        assert res["f_measure"] == 1.0
        res = evaluate.hit_rate(est, ref, 0.3)
        assert res["n_matched"] == 2
        assert res["precision"] == pytest.approx(2 / 3)
        assert res["recall"] == pytest.approx(2 / 3)
        assert res["f_measure"] == pytest.approx(2 / 3)

    def test_one_to_one_matching_not_greedy(self):
        # Both estimates are within tolerance of the single reference;
        # only one may claim it.
        est = evaluate.BoundarySet(np.array([10.0, 10.2]))
        ref = evaluate.BoundarySet(np.array([10.1]))
        res = evaluate.hit_rate(est, ref, 0.5)
        assert res["n_matched"] == 1
        assert res["precision"] == 0.5
        assert res["recall"] == 1.0
        assert res["f_measure"] == pytest.approx(2 / 3)

    def test_matching_trap_requires_maximum_matching(self):
        # Greedy nearest-neighbor would pair est[0] with ref[0] and leave
        # est[1] unmatched; maximum matching pairs both.
        est = [1.0, 1.1]
        ref = [1.05, 0.6]
        res = evaluate.hit_rate(est, ref, 0.5)
        assert res["n_matched"] == 2

    def test_symmetry_precision_recall_swap(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            est = np.unique(np.round(rng.random(6) * 30, 3))
            ref = np.unique(np.round(rng.random(8) * 30, 3))
            for tol in (0.5, 3.0):
                fwd = evaluate.hit_rate(est, ref, tol)
                rev = evaluate.hit_rate(ref, est, tol)
                assert fwd["precision"] == pytest.approx(rev["recall"])
                assert fwd["recall"] == pytest.approx(rev["precision"])

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            est = np.unique(np.round(rng.random(5) * 20, 3))
            ref = np.unique(np.round(rng.random(5) * 20, 3))
            strict = evaluate.hit_rate(est, ref, 0.5)
            lenient = evaluate.hit_rate(est, ref, 3.0)
            assert lenient["f_measure"] >= strict["f_measure"] - 1e-12
            assert lenient["n_matched"] <= min(len(est), len(ref))

    def test_empty_sets_warn_and_zero(self):
        with pytest.warns(UserWarning):
            res = evaluate.hit_rate(np.array([]), np.array([1.0]), 0.5)
        assert res["f_measure"] == 0.0

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            evaluate.hit_rate(np.array([1.0]), np.array([1.0]), 0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -0.5])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            evaluate.hit_rate(np.array([1.0]), np.array([1.0]), tol)

    def test_report_keys_in_field_order(self):
        res = evaluate.hit_rate([1.0, 2.0], [1.1], 0.5)
        assert list(res.items()) == [
            ("tol", 0.5), ("precision", 0.5), ("recall", 1.0), ("f_measure", 2 / 3),
            ("n_est", 2), ("n_ref", 1), ("n_matched", 1),
        ]

    @pytest.mark.parametrize("est, ref", [
        ([0.0, 10.0, 20.0], [0.0, 10.4, 20.0]), ([10.0, 10.2], [10.1]), ([], [1.0]), ([3.0, 1.0], [1.0, 1.0]),
    ])
    def test_hit_rate_is_the_evaluate_boundaries_entry(self, est, ref):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the empty case warns
            report = evaluate.evaluate_boundaries(np.array(est), np.array(ref), (0.3, 0.5, 3.0))
            for key, tol in (("0.3", 0.3), ("0.5", 0.5), ("3", 3.0)):
                assert json.dumps(evaluate.hit_rate(np.array(est), np.array(ref), tol)) == json.dumps(report[key])


def brute_force_matching(est, ref, tol):
    """Size of a maximum one-to-one matching, by trying every assignment."""

    def best(i, used):
        if i == len(est):
            return 0
        options = [best(i + 1, used)]
        for j, r in enumerate(ref):
            if j not in used and abs(est[i] - r) <= tol:
                options.append(1 + best(i + 1, used | {j}))
        return max(options)

    return best(0, frozenset())


# Boundaries on a quarter-second grid, so that many pairs tie at the tolerance.
boundary_sets = st.lists(st.integers(0, 40), min_size=1, max_size=6, unique=True).map(
    lambda ticks: np.array(sorted(ticks)) * 0.25
)

# Unsorted times with repeats, on the same grid.
raw_time_lists = st.lists(st.integers(0, 40), min_size=1, max_size=6).map(lambda ticks: np.array(ticks) * 0.25)


class TestHitRateProperties:
    @settings(derandomize=True, deadline=None)
    @given(est=boundary_sets, ref=boundary_sets, tol=st.sampled_from([0.25, 0.5, 1.0, 3.0]))
    def test_matches_brute_force_and_swaps(self, est, ref, tol):
        fwd = evaluate.hit_rate(est, ref, tol)
        rev = evaluate.hit_rate(ref, est, tol)
        pairs = evaluate._matched_pairs(est, ref, tol)
        assert fwd["n_matched"] == brute_force_matching(est, ref, tol)
        assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == fwd["n_matched"]
        assert all(abs(est[i] - ref[j]) <= tol for i, j in pairs)
        assert (fwd["precision"], fwd["recall"]) == (rev["recall"], rev["precision"])

    @settings(derandomize=True, deadline=None)
    @given(est=raw_time_lists, ref=raw_time_lists, tol=st.sampled_from([0.25, 0.5, 1.0, 3.0]))
    def test_unsorted_and_repeated_times_match_brute_force(self, est, ref, tol):
        # hit_rate accepts raw arrays, so the matching must not assume order.
        res = evaluate.hit_rate(est, ref, tol)
        pairs = evaluate._matched_pairs(est, ref, tol)
        assert res["n_matched"] == brute_force_matching(est, ref, tol)
        assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == res["n_matched"]
        assert all(abs(est[i] - ref[j]) <= tol for i, j in pairs)
        assert pairs == sorted(pairs)


def align_to_downbeats_reference(annot, grid):
    """The per-time loop that `align_to_downbeats` replaced, kept as its reference."""
    downbeats = grid.downbeats
    snapped = []
    for t in annot.times:
        idx = np.searchsorted(downbeats, t)
        candidates = []
        if idx > 0:
            candidates.append(downbeats[idx - 1])
        if idx < len(downbeats):
            candidates.append(downbeats[idx])
        nearest = candidates[0]
        for c in candidates[1:]:
            if abs(c - t) < abs(nearest - t):
                nearest = c
        snapped.append(nearest)
    return np.unique(np.asarray(snapped))


class TestBoundarySet:
    @pytest.mark.parametrize("times", [[np.nan], [1.0, np.inf], [-np.inf, 0.0], [0.0, np.nan, 2.0]])
    def test_non_finite_rejected(self, times):
        with pytest.raises(ValueError, match="boundary times must be finite"):
            evaluate.BoundarySet(times)


class TestAlignToDownbeats:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        downbeats = np.cumsum(rng.integers(1, 5, 12) * 0.25) + 0.5
        mids = (downbeats[:-1] + downbeats[1:]) / 2  # ties: exact in binary
        edges = [0.0, 0.1, downbeats[-1] + 0.3, downbeats[-1] + 7.0]
        times = np.concatenate([rng.uniform(0, downbeats[-1] + 2, 40), downbeats, mids, edges])
        grid, annot = BarGrid(downbeats), evaluate.BoundarySet(np.unique(times))
        out = evaluate.align_to_downbeats(annot, grid)
        assert out.times.tobytes() == align_to_downbeats_reference(annot, grid).tobytes()

    def test_snap_to_nearest(self):
        grid = BarGrid([0.0, 2.0, 4.0])
        out = evaluate.align_to_downbeats(evaluate.BoundarySet(np.array([1.9])), grid)
        assert np.array_equal(out.times, [2.0])

    def test_exact_times_unchanged(self):
        grid = BarGrid([0.0, 2.0, 4.0])
        annot = evaluate.BoundarySet(np.array([0.0, 2.0, 4.0]))
        out = evaluate.align_to_downbeats(annot, grid)
        assert np.array_equal(out.times, annot.times)

    def test_tie_goes_to_earlier_downbeat(self):
        grid = BarGrid([0.0, 2.0])
        out = evaluate.align_to_downbeats(evaluate.BoundarySet(np.array([1.0])), grid)
        assert np.array_equal(out.times, [0.0])

    def test_duplicates_collapse(self):
        grid = BarGrid([0.0, 10.0])
        annot = evaluate.BoundarySet(np.array([1.0, 2.0, 3.0]))
        out = evaluate.align_to_downbeats(annot, grid)
        assert np.array_equal(out.times, [0.0])

    def test_output_subset_of_grid(self):
        rng = np.random.default_rng(2)
        grid = BarGrid(np.cumsum(rng.random(20) + 0.5))
        annot = evaluate.BoundarySet(np.sort(rng.choice(np.linspace(1, 10, 50), 8, replace=False)))
        out = evaluate.align_to_downbeats(annot, grid)
        assert np.all(np.isin(out.times, grid.downbeats))


class TestLoadAnnotations:
    def test_mirex_style_segments(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("0.0\t10.0\tA\n10.0\t20.0\tB\n")
        out = evaluate.load_annotations(path)
        assert np.array_equal(out.times, [0.0, 10.0, 20.0])

    def test_time_label_form(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("0.0\tintro\n12.5\tverse\n")
        out = evaluate.load_annotations(path)
        assert np.array_equal(out.times, [0.0, 12.5])

    def test_near_duplicates_collapse(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("0.0\t10.0\tA\n10.0000001\t20.0\tB\n")
        out = evaluate.load_annotations(path)
        assert np.array_equal(out.times, [0.0, 10.0, 20.0])

    @pytest.mark.parametrize("line, message", [
        ("12.0\tinf\tB", "boundary times must be finite"),
        ("-1.0\tchorus", "boundary times must be nonnegative"),
        ("nan\toutro", "boundary times must be finite"),
    ])
    def test_bad_time_names_the_file(self, tmp_path, capsys, line, message):
        path = tmp_path / "ann.txt"
        path.write_text(f"0.0\tintro\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
            evaluate.load_annotations(path)
        assert cli.main(["eval", str(path), str(path)]) == 2
        assert capsys.readouterr().err == f"barseg: error: {path}: {message}\n"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            evaluate.load_annotations(path)

    def test_unparseable_line_reports_number(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("0.0\t10.0\tA\nnonsense line here no numbers\n")
        with pytest.raises(ValueError, match=":2"):
            evaluate.load_annotations(path)


class TestEvaluateBoundaries:
    def test_report_dict_shape(self):
        est = np.array([0.0, 5.0, 10.0])
        d = evaluate.evaluate_boundaries(est, est, (3.0, 0.5))
        assert list(d) == ["0.5", "3"]
        assert d["0.5"]["f_measure"] == 1.0
        assert {"tol", "precision", "recall", "f_measure", "n_est", "n_ref", "n_matched"} <= set(d["3"])

    def test_tolerances_that_share_a_key_rejected(self):
        est = np.array([0.0, 5.0, 10.0])
        with pytest.raises(ValueError, match=r"^tolerances 0.5 and 0.5000001 share the report key '0.5'$"):
            evaluate.evaluate_boundaries(est, est, (3.0, 0.5000001, 0.5))

    def test_repeated_tolerance_is_one_entry(self):
        est = np.array([0.0, 5.0, 10.0])
        d = evaluate.evaluate_boundaries(est, est, (3.0, 0.5, 3, 0.5))
        assert d == evaluate.evaluate_boundaries(est, est, (0.5, 3.0))
