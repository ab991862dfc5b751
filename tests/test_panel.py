import dataclasses

import numpy as np
import pytest

from tvcate.panel import (
    FeatureCodec,
    HistoryView,
    InterventionPair,
    Panel,
    Trajectory,
    encode_block,
    encode_history,
    panel_from_arrays,
    panel_from_csv,
    panel_to_csv,
)
from tvcate.dgp import DiscreteDGP, make_d1, simulate_panel
from tvcate.learners import _normalized_weights
from tvcate.nuisance import build_row_table

from helpers import decode_history, panel_of, same_bits


def random_panel(rng, n=6, lengths=None, d=2, arity=3):
    trajs = []
    for i in range(n):
        T = int(lengths[i]) if lengths is not None else int(rng.integers(1, 6))
        X = rng.normal(size=(T, d)) * 10.0 ** rng.integers(-3, 4)
        A = rng.integers(0, arity, size=T)
        Y = rng.normal(size=T)
        trajs.append((X, A, Y))
    return panel_of(trajs, arity)


class TestConstructor:
    """``Panel(X, A, Y, offsets)`` refuses what a panel may not hold, naming
    the trajectory and t where there is one, so every panel is valid."""

    def test_well_formed_panel_builds_private_copies(self):
        panel = random_panel(np.random.default_rng(0), n=3)
        X, A, Y, offsets = panel.X.copy(), panel.A.astype(np.int64), panel.Y.copy(), panel.offsets
        again = Panel(X, A, Y, offsets.tolist(), 3)
        for got, want in zip((again.X, again.A, again.Y, again.offsets), (X, panel.A, Y, offsets)):
            assert same_bits(got, want)
        for arr in (X, A, Y):
            arr[...] = 0
        assert same_bits(again.X, panel.X) and same_bits(again.Y, panel.Y)
        assert again.A.dtype == np.uint8 and again.lengths().tolist() == panel.lengths().tolist()

    def test_treatment_out_of_range(self):
        with pytest.raises(ValueError, match=r"^trajectory 0, t 1: arm 2 outside \[0, 2\)$"):
            Panel([[0.0]], [2], [1.0], [0, 1])

    def test_non_finite_outcome(self):
        with pytest.raises(ValueError, match=r"^trajectory 1, t 2: non-finite covariate "
                                             r"or outcome$"):
            Panel([[0.0], [1.0], [2.0]], [0, 1, 0], [1.0, 2.0, np.nan], [0, 1, 3])

    @pytest.mark.parametrize("X", [np.zeros(3), np.zeros((3, 1, 1)), np.zeros((2, 1))])
    def test_covariates_are_one_matrix_of_the_rows(self, X):
        # trajectories of two covariate widths cannot share one (R, d) column
        with pytest.raises(ValueError, match=r"are not \(R, d\), \(R,\), \(R,\)$"):
            Panel(X, [0, 1, 0], [0.0, 1.0, 2.0], [0, 1, 3])

    @pytest.mark.parametrize("arm,dtype", [(258, np.int64), (256, np.int64), (256, np.uint16),
                                           (-1, np.int8), (-255, np.int64)])
    def test_an_arm_is_checked_before_it_is_narrowed(self, arm, dtype):
        # 256 and -255 would narrow to 0 and 1, inside [0, 2)
        A = np.zeros(7, dtype=dtype)
        A[5] = arm
        with pytest.raises(ValueError, match=rf"^trajectory 1, t 3: arm {arm} "
                                             r"outside \[0, 2\)$"):
            Panel(np.zeros((7, 1)), A, np.zeros(7), [0, 3, 7])

    @pytest.mark.parametrize("column,value", [("X", np.nan), ("X", -np.inf),
                                              ("Y", np.inf), ("Y", np.nan)])
    def test_a_non_finite_value_names_its_trajectory_and_t(self, column, value):
        arrays = {"X": np.zeros((7, 2)), "Y": np.zeros(7)}
        arrays[column][4] = value
        arrays[column][6] = value         # only the earliest is named
        with pytest.raises(ValueError, match=r"^trajectory 1, t 2: non-finite "
                                             r"covariate or outcome$"):
            Panel(arrays["X"], np.zeros(7, dtype=int), arrays["Y"], [0, 3, 7])

    @pytest.mark.parametrize("A", [np.array([0.0, 1.0, 1.0]), np.array([0.5, 1.7, 1.0]),
                                   np.array([False, True, True]),
                                   np.array([0, 1, 1], dtype=object)])
    def test_arms_of_a_non_integer_dtype_are_refused(self, A):
        with pytest.raises(ValueError, match=rf"^A must hold integer arms, got dtype {A.dtype}$"):
            Panel(np.zeros((3, 1)), A, np.zeros(3), [0, 3])

    @pytest.mark.parametrize("offsets,match", [
        ([1, 3, 7], r"^offsets run from 1 to 7, not 0 to 7 rows$"),
        ([0, 3, 6], r"^offsets run from 0 to 6, not 0 to 7 rows$"),
        ([0, 3, 3, 7], r"^trajectory 1 is empty$"),
        ([0, 5, 3, 7], r"^trajectory 1 is empty$"),
        ([0.0, 3.0, 7.0], r"^offsets must be 1-D integers, got float64 \(3,\)$"),
        ([[0, 7]], r"^offsets must be 1-D integers, got int64 \(1, 2\)$"),
        ([0], r"^panel has no trajectories$"), (np.zeros(0, dtype=int), r"^panel has no "),
    ])
    def test_offsets_bound_non_empty_trajectories_from_the_first_row_to_the_last(
            self, offsets, match):
        with pytest.raises(ValueError, match=match):
            Panel(np.zeros((7, 1)), np.zeros(7, dtype=int), np.zeros(7), np.array(offsets))

    def test_no_trajectories_from_arrays_or_an_empty_csv(self, tmp_path):
        with pytest.raises(ValueError, match=r"^panel has no trajectories$"):
            panel_from_arrays(np.zeros((0, 3)), np.zeros((0, 3), dtype=int), np.zeros((0, 3)))
        path = tmp_path / "panel.csv"
        path.write_text("traj_id,t,x_1,a,y\n")
        with pytest.raises(ValueError, match=r"^panel has no trajectories$"):
            panel_from_csv(path)

    def test_a_trajectory_of_float_arms_is_refused_not_truncated(self):
        # [1.7, 0] was once stored as arm 1
        with pytest.raises(ValueError, match=r"^treatments must hold integer arms, "
                                             r"got dtype float64$"):
            Trajectory([[0.0], [0.5]], [1.7, 0], [0.0, 1.0])


class TestFlatStoreBoundaries:
    """What each panel constructor rejects, and that a built panel cannot change."""

    @pytest.mark.parametrize("column,value", [("X", np.nan), ("X", np.inf),
                                              ("Y", -np.inf), ("Y", np.nan)])
    def test_from_arrays_rejects_non_finite(self, column, value):
        arrays = {"X": np.zeros((3, 4, 2)), "A": np.zeros((3, 4), dtype=int),
                  "Y": np.zeros((3, 4))}
        arrays[column][2, 1] = value
        arrays[column][2, 3] = value      # only the earliest is named
        with pytest.raises(ValueError, match=r"^trajectory 2, t 2: non-finite "
                                             r"covariate or outcome$"):
            panel_from_arrays(arrays["X"], arrays["A"], arrays["Y"])

    @pytest.mark.parametrize("arm", [-1, 2, 7])
    def test_from_arrays_rejects_arm_outside_arity(self, arm):
        A = np.zeros((3, 4), dtype=int)
        A[1, 3] = arm
        with pytest.raises(ValueError, match=rf"^trajectory 1, t 4: arm {arm} "
                                             r"outside \[0, 2\)$"):
            panel_from_arrays(np.zeros((3, 4)), A, np.zeros((3, 4)))

    @pytest.mark.parametrize("A", [np.array([[0.5, 1.7, 1.0]]), np.array([[0.0, 1.0, 1.0]]),
                                   np.array([[False, True, True]]),
                                   np.array([[0, 1, 1]], dtype=object)])
    def test_from_arrays_rejects_arms_of_a_non_integer_dtype(self, A):
        # a float column of arms was once truncated to [0, 1, 1] without an error
        with pytest.raises(ValueError, match=rf"^A must hold integer arms, got dtype {A.dtype}$"):
            panel_from_arrays(np.zeros((1, 3)), A, np.zeros((1, 3)))

    def test_from_arrays_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match=r"do not share \(n, T\)"):
            panel_from_arrays(np.zeros((3, 4)), np.zeros((3, 3), dtype=int),
                              np.zeros((3, 4)))

    @pytest.mark.parametrize("x_shape", [(4, 3), (4, 3, 2)])
    def test_caller_mutation_leaves_panel_unchanged(self, x_shape):
        rng = np.random.default_rng(12)
        X, A, Y = rng.normal(size=x_shape), rng.integers(0, 2, (4, 3)), rng.normal(size=(4, 3))
        panel = panel_from_arrays(X, A, Y)
        before = [arr.copy() for arr in (panel.X, panel.A, panel.Y)]
        X += 1.0
        A[:] = 1 - A
        Y *= -1.0
        for got, want in zip((panel.X, panel.A, panel.Y), before):
            np.testing.assert_array_equal(got, want)

    def test_columns_and_views_are_read_only(self):
        panel = random_panel(np.random.default_rng(13), n=4, d=2, arity=3)
        arrays = [panel.X, panel.A, panel.Y, panel.offsets]
        for tr in panel.trajectories:
            arrays += [tr.covariates, tr.treatments, tr.outcomes]
            assert np.shares_memory(tr.covariates, panel.X)     # a view, not a copy
        arrays += random_panel(np.random.default_rng(14), n=3, lengths=[4, 4, 4]).dense()
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        with pytest.raises(AttributeError):
            panel.X = np.zeros_like(panel.X)

    def test_panel_rejects_length_mismatch(self):
        # a trajectory whose outcomes are one short leaves Y a row short
        with pytest.raises(ValueError, match=r"^X \(3, 1\), A \(3,\), Y \(2,\) are not "
                                             r"\(R, d\), \(R,\), \(R,\)$"):
            Panel([[0.0], [0.0], [1.0]], [0, 0, 1], [1.0, 1.0], [0, 1, 3])


class TestNarrowArms:
    """Every panel stores arms in the narrowest unsigned type that holds
    ``treatment_arity - 1``, whichever reader built it."""

    def test_two_arms_take_one_byte_from_every_reader(self, tmp_path):
        panel = simulate_panel(make_d1(), 40, seed=16)
        X, A, Y = panel.dense()
        from_int64 = panel_from_arrays(X, A.astype(np.int64), Y)
        panel_to_csv(panel, tmp_path / "panel.csv")
        from_csv = panel_from_csv(tmp_path / "panel.csv")
        for built in (panel, from_int64, from_csv):
            assert built.A.dtype == np.uint8 and same_bits(built.A, panel.A)

    def test_three_hundred_arms_take_two_bytes_and_round_trip_the_csv(self, tmp_path):
        rng = np.random.default_rng(17)
        A = rng.integers(0, 300, size=(25, 4))
        A[3, 2] = 299
        panel = panel_from_arrays(rng.normal(size=(25, 4)), A, rng.normal(size=(25, 4)), 300)
        assert panel.A.dtype == np.uint16 and np.array_equal(panel.A, A.ravel())
        wide = Panel(panel.X, panel.A.astype(np.int64), panel.Y, panel.offsets, 300)
        assert wide.A.dtype == np.uint16
        for name, built in (("narrow.csv", panel), ("wide.csv", wide)):
            panel_to_csv(built, tmp_path / name)
        assert (tmp_path / "narrow.csv").read_bytes() == (tmp_path / "wide.csv").read_bytes()
        back = panel_from_csv(tmp_path / "narrow.csv", treatment_arity=300)
        assert same_bits(back.A, panel.A)
        panel_to_csv(back, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "narrow.csv").read_bytes()

    @pytest.mark.parametrize("arm,dtype", [(258, np.int64), (256, np.int64), (258, np.uint16),
                                           (-1, np.int8), (-255, np.int64)])
    def test_an_arm_is_checked_before_it_is_narrowed(self, arm, dtype):
        # 256 and -255 would narrow to 0 and 1, inside [0, 2)
        A = np.zeros((3, 4), dtype=dtype)
        A[2, 1] = arm
        with pytest.raises(ValueError, match=rf"^trajectory 2, t 2: arm {arm} "
                                             r"outside \[0, 2\)$"):
            panel_from_arrays(np.zeros((3, 4)), A, np.zeros((3, 4)))

    def test_int64_arms_are_checked_before_they_are_narrowed(self):
        # a constructor that kept int64 arms once built this panel, and its
        # row table's uint8 arm column read arm 258 as 2
        with pytest.raises(ValueError, match=r"^trajectory 0, t 2: arm 258 outside \[0, 2\)$"):
            Panel([[0.0], [1.0], [2.0]], np.array([0, 258, 1]), [1.0, 2.0, 3.0], [0, 3])

    @pytest.mark.parametrize("arity", [1.5, True, "2", 0, -1, None, np.float64(2.0)])
    @pytest.mark.parametrize("where", ["arrays", "csv", "structural", "discrete"])
    def test_an_arity_that_is_not_an_integer_of_one_or_more_is_refused(self, where, arity,
                                                                        tmp_path):
        # 1.5 and True once built panels, "2" raised UFuncTypeError, a
        # StructuralDGP of arity 2.5 simulated
        X, A, Y = np.zeros((2, 3)), np.zeros((2, 3), dtype=int), np.zeros((2, 3))
        panel_to_csv(panel_from_arrays(X, A, Y), tmp_path / "panel.csv")
        build = {"arrays": lambda: panel_from_arrays(X, A, Y, arity),
                 "csv": lambda: panel_from_csv(tmp_path / "panel.csv", arity),
                 "structural": lambda: dataclasses.replace(make_d1(), treatment_arity=arity),
                 "discrete": lambda: DiscreteDGP(treatment_arity=arity)}[where]
        with pytest.raises(ValueError, match=r"^treatment_arity must be "):
            build()

    def test_numpy_integer_arities_are_accepted_as_ints(self, tmp_path):
        arity = np.int64(3)
        panel = panel_from_arrays(np.zeros((2, 3)), np.ones((2, 3), dtype=int),
                                  np.zeros((2, 3)), arity)
        panel_to_csv(panel, tmp_path / "panel.csv")
        for built in (panel, panel_from_csv(tmp_path / "panel.csv", arity)):
            assert type(built.treatment_arity) is int and built.treatment_arity == 3
        assert DiscreteDGP(treatment_arity=np.int32(2)).treatment_arity == 2


class TestEncodeHistory:
    def test_hand_layout_t1(self):
        codec = FeatureCodec(max_len=3, cov_dim=1, treatment_arity=2)
        tr = Trajectory([0.7, -1.0, 2.0], [1, 0, 1], [5.0, 6.0, 7.0])
        vec = encode_history(HistoryView(tr, 1), codec)
        expected = [0.7, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1]
        np.testing.assert_array_equal(vec, expected)

    def test_differing_past_treatment_gives_distinct_vectors(self):
        codec = FeatureCodec(max_len=3, cov_dim=1, treatment_arity=2)
        tr1 = Trajectory([0.5, 0.5], [0, 0], [1.0, 1.0])
        tr2 = Trajectory([0.5, 0.5], [1, 0], [1.0, 1.0])
        v1 = encode_history(HistoryView(tr1, 2), codec)
        v2 = encode_history(HistoryView(tr2, 2), codec)
        assert not np.array_equal(v1, v2)

    def test_deterministic(self):
        codec = FeatureCodec(max_len=4, cov_dim=2, treatment_arity=3)
        rng = np.random.default_rng(3)
        tr = Trajectory(rng.normal(size=(4, 2)), rng.integers(0, 3, 4), rng.normal(size=4))
        h = HistoryView(tr, 3)
        np.testing.assert_array_equal(encode_history(h, codec), encode_history(h, codec))

    def test_history_exceeding_capacity_errors(self):
        codec = FeatureCodec(max_len=2, cov_dim=1)
        tr = Trajectory([0.0, 1.0, 2.0], [0, 1, 0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="exceeds codec capacity"):
            encode_history(HistoryView(tr, 3), codec)

    def test_mask_marks_real_slots(self):
        codec = FeatureCodec(max_len=5, cov_dim=1, treatment_arity=2)
        tr = Trajectory(np.arange(5.0), [0, 1, 0, 1, 0], np.arange(5.0))
        for t in range(1, 6):
            vec = encode_history(HistoryView(tr, t), codec)
            mask_off = 5 * 1 + 4 * 1 + 4
            mask = vec[mask_off:mask_off + 5]
            np.testing.assert_array_equal(mask, (np.arange(5) < t).astype(float))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(11)
        codec = FeatureCodec(max_len=4, cov_dim=2, treatment_arity=3)
        X = rng.normal(size=(7, 4, 2))
        A = rng.integers(0, 3, size=(7, 4))
        Y = rng.normal(size=(7, 4))
        for t in (1, 2, 4):
            batch = encode_block(X, A, Y, t, codec)
            for i in range(7):
                single = encode_history(HistoryView(Trajectory(X[i], A[i], Y[i]), t), codec)
                np.testing.assert_array_equal(batch[i], single)

    def test_decode_round_trip_bit_exact(self):
        rng = np.random.default_rng(7)
        codec = FeatureCodec(max_len=5, cov_dim=3, treatment_arity=4)
        for _ in range(50):
            T = int(rng.integers(1, 6))
            tr = Trajectory(rng.normal(size=(T, 3)) * 10.0 ** rng.integers(-2, 3),
                            rng.integers(0, 4, T), rng.normal(size=T))
            t = int(rng.integers(1, T + 1))
            vec = encode_history(HistoryView(tr, t), codec)
            x, a, y, t_dec = decode_history(vec, codec)
            assert t_dec == t
            np.testing.assert_array_equal(x, tr.covariates[:t])
            np.testing.assert_array_equal(a, tr.treatments[:t - 1])
            np.testing.assert_array_equal(y, tr.outcomes[:t - 1])


class TestPooledRows:
    """The pooled (trajectory, t) rows of a RowTable on short ragged panels."""

    def test_row_count_two_length5_tau1(self):
        rng = np.random.default_rng(1)
        panel = random_panel(rng, n=2, lengths=[5, 5], d=1, arity=2)
        table = build_row_table(panel, tau=1)
        assert table.n_rows == 8
        assert table.features(0).shape[0] == 8

    def test_boundary_tau4_one_row_each(self):
        rng = np.random.default_rng(2)
        panel = random_panel(rng, n=3, lengths=[5, 5, 5], d=1, arity=2)
        table = build_row_table(panel, tau=4)
        assert table.y_term.shape[0] == 3
        np.testing.assert_array_equal(table.t, [1, 1, 1])

    def test_uniform_weights_sum_to_one(self):
        rng = np.random.default_rng(4)
        panel = random_panel(rng, n=5, lengths=[5, 4, 3, 5, 2], d=2, arity=2)
        table = build_row_table(panel, tau=1)
        expected_rows = sum(T - 1 for T in [5, 4, 3, 5, 2])
        assert table.n_rows == expected_rows
        # the response and history fits weight their rows uniformly
        weight = _normalized_weights(None, table.n_rows)
        np.testing.assert_allclose(weight, 1 / expected_rows)
        assert weight.sum() == pytest.approx(1.0, abs=1e-15)

    def test_target_is_future_outcome(self):
        panel = panel_from_arrays(np.zeros((1, 4)), np.zeros((1, 4), dtype=int),
                                  [[10.0, 20.0, 30.0, 40.0]])
        table = build_row_table(panel, tau=2)
        np.testing.assert_array_equal(table.y_term, [30.0, 40.0])

    def test_horizon_too_long_errors(self):
        rng = np.random.default_rng(6)
        panel = random_panel(rng, n=2, lengths=[5, 3], d=1, arity=2)
        with pytest.raises(ValueError, match="horizon too long"):
            build_row_table(panel, tau=3)

    def test_rows_ordered_by_trajectory_then_time(self):
        rng = np.random.default_rng(8)
        panel = random_panel(rng, n=3, lengths=[4, 2, 3], d=1, arity=2)
        table = build_row_table(panel, tau=1)
        np.testing.assert_array_equal(table.traj_id, [0, 0, 0, 1, 2, 2])
        np.testing.assert_array_equal(table.t, [1, 2, 3, 1, 1, 2])


class TestInterventionPair:
    def test_tau_from_length(self):
        pair = InterventionPair((0, 1), (1, 0))
        assert pair.tau == 1

    def test_mismatched_lengths_error(self):
        with pytest.raises(ValueError, match="share length"):
            InterventionPair((0, 1), (1,))

    def test_equal_sequences_allowed(self):
        pair = InterventionPair((1,), (1,))
        assert pair.a_seq == pair.b_seq

    @pytest.mark.parametrize("a,b,where", [
        ((0, 1.5), (1, 0), r"a_seq\[1\]"), ((True, 0), (1, 0), r"a_seq\[0\]"),
        ((0, 1), (1, np.float64(0.0)), r"b_seq\[1\]"), ((0, 1), (np.True_, 0), r"b_seq\[0\]"),
        (("0", 1), (1, 0), r"a_seq\[0\]")])
    def test_arms_that_are_not_integers_are_rejected_naming_the_position(self, a, b, where):
        with pytest.raises(ValueError, match=where):
            InterventionPair(a, b)

    def test_python_and_numpy_integers_accepted(self):
        pair = InterventionPair((np.int64(0), 1), (np.int32(1), np.uint8(0)))
        assert pair == InterventionPair((0, 1), (1, 0))
        assert all(type(v) is int for v in pair.a_seq + pair.b_seq)


class TestCsvRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        panel = random_panel(rng, n=8, d=3, arity=3)
        path = tmp_path / "panel.csv"
        panel_to_csv(panel, path)
        back = panel_from_csv(path, treatment_arity=3)
        assert back.n == panel.n
        for tr0, tr1 in zip(panel.trajectories, back.trajectories):
            np.testing.assert_array_equal(tr0.covariates, tr1.covariates)
            np.testing.assert_array_equal(tr0.treatments, tr1.treatments)
            np.testing.assert_array_equal(tr0.outcomes, tr1.outcomes)

    @staticmethod
    def row_by_row(panel):
        """The file of the row-by-row formatter the writer replaced."""
        tid = np.repeat(np.arange(panel.n), panel.lengths())
        t = np.arange(tid.size) - panel.offsets[tid] + 1
        lines = ["traj_id,t," + ",".join(f"x_{j + 1}" for j in range(panel.covariate_dim))
                 + ",a,y"]
        lines += [f"{i},{s},{','.join(f'{v:.17g}' for v in x)},{a},{y:.17g}" for i, s, x, a, y
                  in zip(tid.tolist(), t.tolist(), panel.X.tolist(), panel.A.tolist(),
                         panel.Y.tolist())]
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("d", [1, 3])
    def test_writes_the_bytes_of_the_row_by_row_formatter(self, tmp_path, d):
        # a ragged arity-3 panel with signed zeros, subnormals and 1e+-300
        panel = random_panel(np.random.default_rng(11), n=40, d=d, arity=3)
        X, Y = panel.X.copy(), panel.Y.copy()
        special = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, 2.5e-308, 0.1, 1 / 3]
        X.flat[:len(special)] = special
        Y[-len(special):] = special
        panel = Panel(X, panel.A, Y, panel.offsets, 3)
        path = tmp_path / "panel.csv"
        panel_to_csv(panel, path)
        assert path.read_bytes() == self.row_by_row(panel)
        back = panel_from_csv(path, treatment_arity=3)
        assert back.X.tobytes() == X.tobytes() and back.Y.tobytes() == Y.tobytes()

    @pytest.mark.parametrize("d", [0, 2])
    def test_integer_valued_reals_and_no_covariates_keep_the_per_field_bytes(self, tmp_path, d):
        # reals that are integers print without a point, and a panel without
        # covariates writes one empty field between t and a
        rng = np.random.default_rng(12)
        X, Y = rng.normal(size=(5, 4, d)), rng.normal(size=(5, 4))
        special = [-0.0, 1e-300, 1e300, 3.0, -7.0, 2.0 ** 53, 1e16, 0.0]
        X.flat[:min(X.size, len(special))] = special[:X.size]
        Y.flat[:len(special)] = special
        panel = panel_from_arrays(X, rng.integers(0, 2, (5, 4)), Y)
        path = tmp_path / "panel.csv"
        panel_to_csv(panel, path)
        assert path.read_bytes() == self.row_by_row(panel)
        if d == 0:
            assert path.read_text().splitlines()[1] == "0,1,,%d,-0" % panel.A[0]

    def test_header_layout(self, tmp_path):
        panel = panel_from_arrays(np.zeros((1, 2, 2)), np.zeros((1, 2), dtype=int),
                                  np.zeros((1, 2)))
        path = tmp_path / "p.csv"
        panel_to_csv(panel, path)
        header = path.read_text().splitlines()[0]
        assert header == "traj_id,t,x_1,x_2,a,y"

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            panel_from_csv(path)


class TestCsvStrictIngest:
    """Malformed panel CSVs fail at ingest with the line or (traj_id, t)."""

    @staticmethod
    def written_lines(tmp_path):
        panel = random_panel(np.random.default_rng(10), n=3, lengths=[5, 5, 5],
                             d=1, arity=2)
        path = tmp_path / "panel.csv"
        panel_to_csv(panel, path)
        return path, path.read_text().splitlines(keepends=True)

    def rewrite_and_read(self, tmp_path, edit):
        path, lines = self.written_lines(tmp_path)
        path.write_text("".join(edit(lines)))
        return panel_from_csv(path)

    def test_missing_time_is_rejected(self, tmp_path):
        # ls[8] is traj 1, t 3: dropping it used to read back a length-4 trajectory
        with pytest.raises(ValueError, match=r"traj_id 1, t 3: missing"):
            self.rewrite_and_read(tmp_path, lambda ls: ls[:8] + ls[9:])

    def test_repeated_time_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"traj_id 1, t 3: repeated on line 10"):
            self.rewrite_and_read(tmp_path, lambda ls: ls[:9] + [ls[8]] + ls[9:])

    def test_times_must_start_at_one(self, tmp_path):
        def shift(ls):
            out = ls[:1]
            for line in ls[1:]:
                tid, t, rest = line.split(",", 2)
                out.append(f"{tid},{int(t) + 1},{rest}")
            return out
        with pytest.raises(ValueError, match=r"traj_id 0: times start at t 2"):
            self.rewrite_and_read(tmp_path, shift)

    def test_wrong_field_count_names_the_line(self, tmp_path):
        with pytest.raises(ValueError, match=r"line 4: 4 fields, the header has 5"):
            self.rewrite_and_read(tmp_path, lambda ls: ls[:3]
                                  + [ls[3].rsplit(",", 1)[0] + "\n"] + ls[4:])

    def test_arm_outside_arity_is_rejected(self, tmp_path):
        def arm5(ls):
            fields = ls[7].split(",")
            fields[-2] = "5"
            return ls[:7] + [",".join(fields)] + ls[8:]
        with pytest.raises(ValueError, match=r"traj_id 1, t 2: arm 5 outside \[0, 2\)"):
            self.rewrite_and_read(tmp_path, arm5)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field,column", [("covariate", 2), ("outcome", -1)])
    def test_non_finite_value_is_rejected(self, tmp_path, value, field, column):
        # ls[7] is traj 1, t 2; nan and inf parse as floats but must not fit
        def poison(ls):
            fields = ls[7].rstrip("\n").split(",")
            fields[column] = value
            return ls[:7] + [",".join(fields) + "\n"] + ls[8:]
        with pytest.raises(ValueError, match=r"traj_id 1, t 2: non-finite covariate "
                                             r"or outcome on line 8"):
            self.rewrite_and_read(tmp_path, poison)
