"""Special functions, quadrature, bound states, and ladder-action numerics."""

import itertools
import math
import re
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ladder_forge import coulomb as cl
from ladder_forge import factorizations as fz
from ladder_forge import generators as gen
from ladder_forge import opalgebra as oa

from test_opalgebra import _SAL, _SBE, _SETA, _SR, _SS, _sympy_apply

GENERATORS = {
    op[0] + ("+" if op.endswith("plus") else "-"): expr
    for family in (gen.build_T(), gen.build_AB())
    for op, expr in family.items() if op != "T0"
}


def _hand_profile(state, rho):
    """P, P' and P'' written out by hand, with scipy's Laguerre polynomials."""
    n, a, p = state.degree, state.alpha, float(state.power)
    lag = [(-1) ** k * scipy.special.eval_genlaguerre(n - k, a + k, rho) if n >= k
           else np.zeros_like(rho) for k in range(3)]
    N = math.sqrt(state.norm_sq)
    return (
        N * rho**p * lag[0],
        N * (p * rho ** (p - 1) * lag[0] + rho**p * lag[1]),
        N * (p * (p - 1) * rho ** (p - 2) * lag[0] + 2 * p * rho ** (p - 1) * lag[1]
             + rho**p * lag[2]),
    )


def _hand_action(state, operator, rho):
    """The six generator actions on the profile, written out by hand."""
    P, dP, _ = _hand_profile(state, rho)
    if operator == "T+":
        return -rho * dP + (rho - float(state.principal)) * P
    if operator == "T-":
        return rho * dP - float(state.principal) * P
    mu, nu = state.labels
    c = {"A+": nu - mu - 1, "A-": nu - mu + 1, "B+": mu - nu - 1, "B-": mu - nu + 1}[operator] / 2
    if operator.endswith("+"):
        return np.sqrt(rho) * (dP - P + c * P / rho)
    return np.sqrt(rho) * (-dP + c * P / rho)


def _hand_casimir(state, rho):
    """The Casimir on the profile, written out by hand."""
    P, dP, d2P = _hand_profile(state, rho)
    return rho**2 * (d2P - dP) + float(state.principal) * rho * P


class TestLaguerre:
    def test_degree_zero_is_one(self):
        x = np.linspace(0.0, 9.0, 7)
        assert np.all(cl._table(0, 2.5, x)[0] == 1.0)

    def test_textbook_convention(self):
        x = np.array([0.0, 1.0, 3.5])
        assert cl._table(1, 1, x)[1] == pytest.approx(2.0 - x)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="^degree must be nonnegative"):
            cl._table(-1, 0, 1.0)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 12), st.floats(-0.9, 6.0), st.floats(0.0, 40.0))
    def test_matches_reference_implementation(self, n, alpha, x):
        mine = float(cl._table(n, alpha, x)[n])
        ref = float(scipy.special.eval_genlaguerre(n, alpha, x))
        assert mine == pytest.approx(ref, rel=1e-10, abs=1e-10)


def _running_sum(rows):
    """The running sums of ``rows``, added one after another."""
    out, total = [], np.zeros_like(rows[0])
    for row in rows:
        total = total + row
        out.append(total)
    return out


class TestLaguerreTable:
    """One upward recurrence gives the table of L^(a)_k, k <= n; L^(a+i)_(n-i) for every derivative
    order i is the last of i running sums over its first n-i+1 rows, and row n is L^(a)_n itself.
    At the quadrature nodes each (order, alpha) keeps one window of that table: its rows L_lo ... L_hi
    and the running sums carried into lo."""

    RHO = np.linspace(0.0, 120.0, 41)  # rho = 0 included
    ALPHAS = (0, 1, 5, 41, 120)

    @pytest.mark.parametrize("alpha", [0, 0.5, 1, 4, 9])
    def test_rows_match_reference(self, alpha):
        for n in range(61):
            rows = cl._rows(cl._table(n, alpha, self.RHO), n, 3)
            assert len(rows) == 3
            for i, row in enumerate(rows):
                if n < i:
                    assert np.all(row == 0.0), (n, i)
                    continue
                ref = scipy.special.eval_genlaguerre(n - i, alpha + i, self.RHO)
                assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(np.abs(ref)), (n, i)
                if alpha == int(alpha):  # L^(b)_m(0) = C(m + b, m)
                    assert row[0] == pytest.approx(math.comb(n + alpha, n - i), rel=1e-13), (n, i)

    def test_row_zero_is_laguerre_bit_for_bit(self):
        rho = np.concatenate([[0.0], cl.gauss_laguerre(cl.DEFAULT_QUAD_ORDER)[0], [1e3]])
        for n in range(0, 80, 3):
            for alpha in (0, 1, 2.5, 40):
                for rows in (1, 2, 3):
                    assert np.array_equal(cl._rows(cl._table(n, alpha, rho), n, rows)[0],
                                          cl._table(n, alpha, rho)[n]), (n, alpha, rows)

    # (degree read, the window (lo, hi) held after it): cold, above, below, below again, inside, above, down to L_0
    WINDOWS = [(30, (29, 30)), (31, (29, 31)), (7, (7, 31)), (3, (3, 31)), (30, (3, 31)), (69, (3, 69)), (0, (0, 69))]

    @pytest.mark.parametrize("order", [cl.DEFAULT_QUAD_ORDER, 61])
    def test_column_entries_are_laguerre_bit_for_bit(self, order):
        # a cold read keeps its degree and the one below, a read above grows the window to exactly that degree, and a
        # read below rebuilds it down to that degree: every row held, every carried sum and every read is a fresh
        # _table's bit for bit, and the window owns its arrays
        cl._columns.clear()
        nodes = cl.gauss_laguerre(order)[0]
        for alpha in self.ALPHAS:
            for degree, (lo, hi) in self.WINDOWS:
                window = cl._node_table(order, cl.state_munu(degree, degree + alpha))
                assert (window.lo, window.hi) == (lo, hi), (alpha, degree)
                assert not window.rows.flags.writeable and not window.sums.flags.writeable, (alpha, degree)
                assert window.rows.base is None and window.sums.base is None  # no view keeps a whole table alive
                table = cl._table(hi, alpha, nodes)
                for k, row in enumerate(window.rows, window.lo):
                    assert row.tobytes() == table[k].tobytes() == window[k].tobytes(), (alpha, degree, k)
                carried = cl._rows(table, window.lo, 3)[1:] if window.lo else []
                assert [row.tobytes() for row in window.sums] == [row.tobytes() for row in carried], (alpha, degree)
                for count in (1, 2, 3):
                    reads = zip(cl._rows(window, degree, count), cl._rows(table, degree, count))
                    assert all(got.tobytes() == want.tobytes() for got, want in reads), (alpha, degree, count)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([40, 41, 47, 62]), st.integers(0, 120),
           st.lists(st.tuples(st.integers(0, 70), st.integers(1, 3)), min_size=1, max_size=8))
    def test_read_sequences_are_fresh_rows_bit_for_bit(self, order, alpha, reads):
        # the reads go up, come back down and repeat, so the window is built, grown and rebuilt below in turn; the
        # other windows the suite has left in the store stay, and the byte count follows every change
        nodes = cl.gauss_laguerre(order)[0]
        for degree, count in reads + reads[::-1] + reads:
            rows = cl._rows(cl._node_table(order, cl.state_munu(degree, degree + alpha)), degree, count)
            table = cl._rows(cl._table(degree, alpha, nodes), degree, count)
            fresh = cl._fresh_rows(degree, alpha, nodes, count)
            assert len(rows) == len(table) == len(fresh) == count, (degree, count)
            for i, row in enumerate(rows):
                assert row.tobytes() == table[i].tobytes() == fresh[i].tobytes(), (degree, count, i)
            assert cl._columns.nbytes == sum(window.nbytes for window in cl._columns.values()) <= cl.COLUMN_BYTES

    def test_derivative_rows_are_sequential_running_sums(self):
        # the last row is one sum and an earlier one the end of a cumsum, so rows = 2 and rows = 3 read row 1
        # by different paths: each must be the explicit running sum, and the fresh rows, bit for bit
        nodes = cl.gauss_laguerre(cl.DEFAULT_QUAD_ORDER)[0]
        for alpha in self.ALPHAS:
            for n in range(70):
                column = cl._node_table(cl.DEFAULT_QUAD_ORDER, cl.state_munu(n, n + alpha))
                sums = [cl._table(k, alpha, nodes)[k] for k in range(n + 1)]
                wants = [sums[n]]
                for i in (1, 2):
                    sums = _running_sum(sums[:n - i + 1]) if n >= i else []
                    wants.append(sums[-1] if sums else np.zeros_like(nodes))
                for count in (1, 2, 3):
                    rows, fresh = cl._rows(column, n, count), cl._fresh_rows(n, alpha, nodes, count)
                    assert len(rows) == len(fresh) == count, (alpha, n, count)
                    for i, (row, want) in enumerate(zip(rows, wants)):
                        assert row.tobytes() == want.tobytes() == fresh[i].tobytes(), (alpha, n, count, i)

    def test_action_report_target_profile_is_scaled_profile(self, monkeypatch):
        # the target is the independent side of the check: its P at the nodes, read off a column that
        # other states grew, is the one scaled_profile computes afresh; and the action the report reads
        # off the source's column is the one act steps afresh, so the column path is the fresh path
        seen, acted = [], []
        profile, act = cl.QuantumState._profile, cl._act

        def recorded(state, rho, log_rho, lag):
            seen.append((state, rho, profile(state, rho, log_rho, lag)))
            return seen[-1][-1]

        def recorded_act(op, state, rho, table=None, log_rho=None):
            acted.append((op, state, rho, table, act(op, state, rho, table, log_rho)))
            return acted[-1][-1]

        monkeypatch.setattr(cl.QuantumState, "_profile", recorded)
        monkeypatch.setattr(cl, "_act", recorded_act)
        cl._columns.clear()
        for t in range(1, 13):
            for m in range(t):
                for op in ("T+", "T-"):
                    report = cl.action_report(cl.state_tm(t, m), op)
                    state, rho, P = seen[-1]
                    assert state.labels == (report.target or report.source), (t, m, op)
                    assert P.tobytes() == state.scaled_profile(rho).tobytes(), (t, m, op)
                    generator, source, nodes, table, lhs = acted[-1]
                    assert source.labels == report.source and table is not None, (t, m, op)
                    assert lhs.tobytes() == cl.act(generator, source, nodes).tobytes(), (t, m, op)

    CHECKS = [
        ((cl.action_report, cl.state_tm(7, 2), "T+"), [cl.state_tm(7, 2), cl.state_tm(8, 2)]),
        ((cl.action_report, cl.state_tm(7, 6), "T-"), [cl.state_tm(7, 6)]),
        ((cl.action_report, cl.state_munu(3, 8), "A-"), [cl.state_munu(3, 8), cl.state_munu(2, 8)]),
    ] + [((check, cl.state_munu(3, 8)), [cl.state_munu(3, 8)])
         for check in (cl.casimir_residual, cl.schrodinger_residual, cl.normalization_residual)]
    CHECK_IDS = ["ladder", "annihilation", "two-columns", "casimir", "schrodinger", "normalization"]

    @staticmethod
    def _steps(monkeypatch):
        """A dict (order, alpha) -> recurrence steps taken, filled as ``_recurrence`` runs: a table's, a window's
        growth from its top degree ``start`` or a fresh one's."""
        steps = {}
        recurrence = cl._recurrence

        def counted(n, alpha, x, first, start):
            key = (len(x), alpha)
            for row in recurrence(n, alpha, x, first, start):
                steps[key] = steps.get(key, 0) + 1
                yield row

        monkeypatch.setattr(cl, "_recurrence", counted)
        return steps

    @pytest.mark.parametrize("call,readers", CHECKS, ids=CHECK_IDS)
    def test_warm_check_runs_no_recurrence_step(self, monkeypatch, call, readers):
        check, *args = call
        check(*args)
        steps = self._steps(monkeypatch)
        check(*args)
        assert sum(steps.values()) == 0, steps

    @pytest.mark.parametrize("call,readers", CHECKS, ids=CHECK_IDS)
    def test_cold_check_runs_at_most_degree_plus_one_steps_per_column(self, monkeypatch, call, readers):
        check, *args = call
        check(*args)  # warms the quadrature cache, whose nodes take recurrences of their own
        cl._columns.clear()
        steps = self._steps(monkeypatch)
        check(*args)
        assert sum(steps.values()) >= max(s.degree for s in readers), steps  # the counter sees the cold reads
        for (_, alpha), count in steps.items():
            assert count <= max(s.degree for s in readers if s.alpha == alpha) + 1, (alpha, steps)

    def test_column_cache_stays_bounded(self):
        # the store is bounded in bytes: a cold read, a read growing the window and one inside it, at every step among
        # orders 40-184 and alpha 0-200, keep it within COLUMN_BYTES and hold the window just returned; a hot window
        # read again between the cold reads is never dropped or rebuilt, and a dropped window, once rebuilt, reads the
        # rows its first build read bit for bit
        cl._columns.clear()
        hot = cl._node_table(cl.DEFAULT_QUAD_ORDER, cl.state_munu(30, 31))
        first, grown = {}, 0
        for order, alpha in itertools.product(range(40, 185, 4), range(0, 201, 25)):
            for degree in (2, 60, 17):
                window = cl._node_table(order, cl.state_munu(degree, degree + alpha))
                if degree == 60:
                    first[order, alpha] = [row.tobytes() for row in cl._rows(window, 60, 3)]
                    grown += window.nbytes
                assert cl._columns[order, alpha] is window, (order, alpha, degree)
                held = sum(w.nbytes for w in cl._columns.values())
                assert held == cl._columns.nbytes <= cl.COLUMN_BYTES, (order, alpha, degree)
                assert cl._node_table(cl.DEFAULT_QUAD_ORDER, cl.state_munu(30, 31)) is hot, (order, alpha)
        assert grown > 2 * cl.COLUMN_BYTES  # so most windows were dropped
        dropped = [key for key in first if key not in cl._columns]
        assert len(dropped) > len(first) // 2, len(dropped)
        for order, alpha in dropped:
            window = cl._node_table(order, cl.state_munu(60, 60 + alpha))
            assert [row.tobytes() for row in cl._rows(window, 60, 3)] == first[order, alpha], (order, alpha)

    def test_column_past_the_bound_is_returned_unstored(self, monkeypatch):
        # under a bound that holds the one-row window of L_0, a cold read's window (two rows and two sums) is larger:
        # it is returned read-only and reads a fresh table's rows, and the store keeps what it held
        cl._columns.clear()
        kept = cl._node_table(cl.DEFAULT_QUAD_ORDER, cl.state_munu(0, 1))
        monkeypatch.setattr(cl, "COLUMN_BYTES", kept.nbytes + 100)
        nodes = cl.gauss_laguerre(cl.DEFAULT_QUAD_ORDER)[0]
        window = cl._node_table(cl.DEFAULT_QUAD_ORDER, cl.state_munu(5, 7))
        assert window.nbytes > cl.COLUMN_BYTES and window.lo <= 5 <= window.hi
        assert not window.rows.flags.writeable and not window.sums.flags.writeable
        for count in (1, 2, 3):
            reads = zip(cl._rows(window, 5, count), cl._rows(cl._table(5, 2, nodes), 5, count))
            assert all(got.tobytes() == want.tobytes() for got, want in reads), count
        assert list(cl._columns) == [(cl.DEFAULT_QUAD_ORDER, 1)] and cl._columns[cl.DEFAULT_QUAD_ORDER, 1] is kept
        assert cl._columns.nbytes == kept.nbytes

    def test_threads_share_the_store_without_error(self, monkeypatch):
        # four threads read interleaved (order, alpha) pairs under a bound that holds a few windows, so they drop,
        # regrow and rebuild windows below while the others reorder them: a race may cost a regrowth, never an
        # exception, a read that is not a fresh table's, or a byte count that drifts from the windows held
        monkeypatch.setattr(cl, "COLUMN_BYTES", 40_000)
        reads = [(order, alpha, degree) for degree in (3, 20, 9, 41) for order in (40, 47, 53) for alpha in range(6)]
        tables = {(order, alpha): cl._table(41, alpha, cl.gauss_laguerre(order)[0]) for order, alpha, _ in reads}
        fresh = {(order, alpha, degree): [row.tobytes() for row in cl._rows(tables[order, alpha], degree, 3)]
                 for order, alpha, degree in reads}
        cl._columns.clear()
        barrier, errors, wrong = threading.Barrier(4), [], []

        def reader(shift):
            try:
                barrier.wait(timeout=60)
                for _ in range(5):
                    for order, alpha, degree in reads[shift:] + reads[:shift]:
                        window = cl._node_table(order, cl.state_munu(degree, degree + alpha))
                        rows, got = tables[order, alpha][window.lo:window.hi + 1], cl._rows(window, degree, 3)
                        if (not window.lo <= degree <= window.hi or window.rows.tobytes() != rows.tobytes()
                                or [row.tobytes() for row in got] != fresh[order, alpha, degree]):
                            wrong.append((order, alpha, degree))
            except Exception as error:  # any exception in a reader fails the test
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            threads = [threading.Thread(target=reader, args=(shift,)) for shift in (0, 7, 19, 31)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and wrong == [], (errors, wrong[:5])
        assert sum(w.nbytes for w in cl._columns.values()) == cl._columns.nbytes <= cl.COLUMN_BYTES

    def test_every_window_a_benchmark_pass_reads_stays_held(self, monkeypatch):
        # one pass of every node check over the coulomb-checks state shapes (su11 t <= 60, m <= t - 10 included, with
        # T+-, the normalization, Casimir and Schrodinger residuals; weyl mu < 20 at odd and even gaps below 40, with
        # A+- and B+-) leaves every (order, alpha) it read held within COLUMN_BYTES, so a second pass runs no
        # recurrence step: whole tables for these reads would take about 12 MiB, twice the bound
        su11 = [cl.state_tm(t, m) for t in range(1, 61) for m in range(t)]
        weyl = [cl.state_munu(mu, mu + gap) for mu in range(20) for gap in range(1, 40)]
        checks = ([(cl.action_report, state, op) for state in su11 for op in ("T+", "T-")]
                  + [(check, state) for state in su11
                     for check in (cl.normalization_residual, cl.casimir_residual, cl.schrodinger_residual)]
                  + [(cl.action_report, state, op) for state in weyl for op in ("A+", "A-", "B+", "B-")])
        read, node_table = set(), cl._node_table

        def recorded(order, state):
            read.add((order, state.alpha))
            return node_table(order, state)

        monkeypatch.setattr(cl, "_node_table", recorded)
        cl._columns.clear()
        for check, *args in checks:
            check(*args)
        assert read <= set(cl._columns) and cl._columns.nbytes <= cl.COLUMN_BYTES, len(read - set(cl._columns))
        steps = self._steps(monkeypatch)
        for check, *args in checks:
            check(*args)
        assert sum(steps.values()) == 0, steps


class _CountedNumpy:
    """numpy, with each call of ``log`` and ``exp`` counted by name."""

    def __init__(self):
        self.calls = {"log": 0, "exp": 0}

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, *args, **kwargs):
        self.calls["log"] += 1
        return np.log(*args, **kwargs)

    def exp(self, *args, **kwargs):
        self.calls["exp"] += 1
        return np.exp(*args, **kwargs)


class TestNodeKernel:
    """Each quadrature order keeps log rho, exp(-rho/2) and rho**2 at its nodes (``_node_arrays``), so a warm check
    takes no log or exp of the nodes but its profile prefactors, and any other rho caches nothing."""

    # each check's profile prefactors N rho**q: the action's and P's, or P's alone for the normalization
    PREFACTORS = [(call, 1 if call[0] is cl.normalization_residual else 2) for call, _ in TestLaguerreTable.CHECKS]

    @pytest.mark.parametrize("call,prefactors", PREFACTORS, ids=TestLaguerreTable.CHECK_IDS)
    def test_warm_check_takes_no_log_or_exp_past_the_prefactors(self, monkeypatch, call, prefactors):
        check, *args = call
        check(*args)
        counted = _CountedNumpy()
        monkeypatch.setattr(cl, "np", counted)
        check(*args)
        assert counted.calls["log"] == 0 and counted.calls["exp"] <= prefactors, counted.calls

    def test_fresh_radii_leave_the_node_store_unchanged(self):
        state = cl.state_tm(7, 2)
        cl.action_report(state, "T+")
        size, columns = cl._node_arrays.cache_info().currsize, len(cl._columns)
        for k in range(1000):
            cl.act(GENERATORS["T+"], state, np.linspace(0.0, 30.0, 9) + k * 1e-3)
        assert (cl._node_arrays.cache_info().currsize, len(cl._columns)) == (size, columns)

    @pytest.mark.parametrize("order", [1, cl.DEFAULT_QUAD_ORDER, cl.DEFAULT_QUAD_ORDER + 1, cl.MAX_QUAD_ORDER])
    def test_node_arrays_are_the_nodes_own_bit_for_bit(self, order):
        nodes, weights, *derived = cl._node_arrays(order)
        assert (nodes, weights) == cl.gauss_laguerre(order)
        for array, want in zip(derived, (np.log(nodes), np.exp(-nodes / 2), nodes**2)):
            assert array.tobytes() == want.tobytes() and not array.flags.writeable, order


class TestFloatPath:
    """A float check reads its numbers off the integer labels, each the correctly rounded value of the exact
    rational the state reports; one report derives one step; and a fresh table holds only the rows it reads."""

    def test_float_numbers_equal_the_exact_ones(self, monkeypatch):
        # n, mu, nu and p of act, l(l+1) of the Casimir and the quadrature order over source and target
        # (the source alone for an annihilation), at both gap parities and at nu == mu
        for mu in range(61):
            for nu in range(mu, 121):
                state, alpha = cl.state_munu(mu, nu), nu - mu
                n, p, lsq = state.principal, state.power, state.angular * (state.angular + 1)
                assert ((mu + nu + 1) / 2, float(mu), float(nu)) == tuple(map(float, state.windings)), (mu, nu)
                assert (alpha + 1) / 2 == float(p) and (alpha - 1) * (alpha + 1) / 4 == float(lsq), (mu, nu)
                assert cl.normalization_order((mu + nu + 1) // 2) == cl.normalization_order(n), (mu, nu)
                for op in ("A+", "A-", "B+", "B-"):
                    ref = cl.shifted_state(state, op) if cl.action_radicand(state, op)[1] else state
                    order = cl.normalization_order((max(mu + nu, sum(ref.munu)) + 1) // 2)
                    assert order == cl.normalization_order(max(n, ref.principal)), (mu, nu, op)
        # and the checks call the order with exactly that argument
        read = []
        order = cl.normalization_order
        monkeypatch.setattr(cl, "normalization_order", lambda n: read.append(n) or order(n))
        for (mu, nu), op in [((39, 40), "A+"), ((0, 120), "B+"), ((60, 60), "B-"), ((60, 119), "A-"), ((0, 0), "A-")]:
            state = cl.state_munu(mu, nu)
            ref = cl.shifted_state(state, op) if cl.action_radicand(state, op)[1] else state
            cl.action_report(state, op)
            cl.normalization_residual(ref)
            assert read[-2:] == [math.floor(max(state.principal, ref.principal)), math.floor(ref.principal)]

    def test_one_step_per_report(self, monkeypatch):
        calls = []
        step = cl._step
        monkeypatch.setattr(cl, "_step", lambda state, operator: calls.append(operator) or step(state, operator))
        reports = cl.sweep_su11(8) + cl.sweep_weyl(4, 9) + [
            cl.action_report(cl.state_munu(mu, nu), op)
            for mu in range(4) for nu in (mu, mu + 2) for op in ("A+", "A-", "B+", "B-")]
        assert len(calls) == len(reports), (len(calls), len(reports))
        assert {r.operator for r in reports if r.annihilation} == {"T-", "A-", "B-"}

    def test_fresh_rows_hold_only_the_rows_they_read(self):
        # away from the nodes the recurrence keeps two rows and one running sum per derivative order, so the
        # peak grows as rows * len(rho): 16.0 and 31.3 MiB here when a fresh table held all degree + 1 rows
        state, rho = cl.state_munu(100, 101), np.linspace(0.0, 400.0, 20_000)
        for name, call in [("scaled_profile", lambda: state.scaled_profile(rho)),
                           ("act A+", lambda: cl.act(GENERATORS["A+"], state, rho))]:
            call()  # the rho-form cache fills outside the measurement
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 2**20, (name, peak / 2**20)


class TestQuadrature:
    def test_matches_reference_nodes_and_weights(self):
        for order in (5, 17, 40):
            x, w = cl.gauss_laguerre(order)
            xr, wr = scipy.special.roots_laguerre(order)
            assert x == pytest.approx(xr, rel=1e-13, abs=1e-13)
            assert w == pytest.approx(wr, rel=1e-12)
        # relative bounds only, down to the least weight (2.4e-305 at order 184): the worst errors against
        # scipy at these orders read 1.7e-13 for a node and 1.4e-11 for a weight, a margin of about 6
        for order in (1, 2, 61, 120, cl.MAX_QUAD_ORDER):
            x, w = cl.gauss_laguerre(order)
            xr, wr = scipy.special.roots_laguerre(order)
            assert x == pytest.approx(xr, rel=1e-12, abs=0), order
            assert w == pytest.approx(wr, rel=1e-10, abs=0), order

    def test_cold_quadrature_builds_at_most_four_tables(self, monkeypatch):
        # each of the three Newton steps reads L_order and L'_order = -L^(1)_(order-1) off one table, and
        # the weights read L_(order+1) off one more
        calls = []
        table = cl._table

        def counted(n, alpha, x):
            calls.append((n, alpha))
            return table(n, alpha, x)

        monkeypatch.setattr(cl, "_table", counted)
        for order in (1, cl.DEFAULT_QUAD_ORDER, cl.MAX_QUAD_ORDER):
            calls.clear()
            cl.gauss_laguerre.__wrapped__(order)
            assert 0 < len(calls) <= 4, (order, calls)

    def test_moments_are_factorials(self):
        # exactness bound is degree 2*order - 1
        for order in (8, 40):
            x, w = cl.gauss_laguerre(order)
            for k in (0, 1, order, 2 * order - 1):
                assert float(w @ x**k) == pytest.approx(
                    math.factorial(k), rel=5e-13)

    def test_basic_shape(self):
        x, w = cl.gauss_laguerre(12)
        assert np.all(np.diff(x) > 0) and np.all(x > 0) and np.all(w > 0)
        assert float(w.sum()) == pytest.approx(1.0, rel=1e-14)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            cl.gauss_laguerre(0)

    def test_order_ceiling(self):
        # finite and warning-free up to the limit; one order more overflows
        x, w = cl.gauss_laguerre(cl.MAX_QUAD_ORDER)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))
        with pytest.raises(ValueError, match="order 185 is past the float limit 184"):
            cl.gauss_laguerre(185)

    def test_cached_arrays_are_frozen(self):
        x, _ = cl.gauss_laguerre(12)
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_float_order_refused_after_an_equal_fraction(self):
        # 3.0 == Fraction(3): only a typed cache keeps the float from the Fraction's entry
        cl.gauss_laguerre(Fraction(3))
        with pytest.raises(TypeError, match="^order must be"):
            cl.gauss_laguerre(3.0)

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_orthogonality_norms(self, alpha):
        x, w = cl.gauss_laguerre(cl.DEFAULT_QUAD_ORDER)
        for n in range(9):
            for m in range(9):
                value = float(w @ (x**alpha
                                   * cl._table(n, alpha, x)[n]
                                   * cl._table(m, alpha, x)[m]))
                expected = math.gamma(n + alpha + 1) / math.factorial(n) if n == m else 0.0
                assert value == pytest.approx(expected, rel=1e-12, abs=1e-10)


class TestEnergy:
    def test_examples(self):
        assert cl.energy(1, 1) == Fraction(-1, 2)
        assert cl.energy(2, 2) == Fraction(-1, 2)

    def test_matches_factorization_rule(self):
        # 2 E(Z, n) equals the class I eigenvalue of the Coulomb-like family
        for Z in (1, 2, 6):
            for n in range(1, 9):
                lam = fz.eigenvalue(fz.TypeF(-Z), n - 1)
                assert 2 * cl.energy(Z, n) == lam

    def test_invalid_principal(self):
        with pytest.raises(ValueError):
            cl.energy(1, 0)


class TestStates:
    def test_ground_state_profile(self):
        state = cl.state_tm(1, 0)
        assert state.gamma == 2 and state.energy == Fraction(-1, 2)
        assert state.norm_sq == 1
        assert float(state.scaled_profile(2.5)) == pytest.approx(2.5)

    @pytest.mark.parametrize("Z", [1, 2])
    def test_ground_state_matches_textbook_radial(self, Z):
        state = cl.state_tm(1, 0, Z)
        r = np.linspace(0.05, 8.0, 40)
        textbook = 2.0 * Z**1.5 * r * np.exp(-Z * r)
        assert state.radial(r) == pytest.approx(textbook, rel=1e-13)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            cl.state_tm(0, 0)
        with pytest.raises(ValueError):
            cl.state_tm(2, 2)
        with pytest.raises(ValueError):
            cl.state_munu(3, 2)
        with pytest.raises(ValueError):
            cl.state_munu(-1, 0)
        with pytest.raises(ValueError):
            cl.make_state("su2", (1, 0))
        with pytest.raises(ValueError):
            cl.state_tm(1, 0, 0)

    def test_charge_range_of_the_float_layer(self):
        for Z in (Fraction(1, 2**64), 2**64):
            assert math.isfinite(cl.normalization_residual(cl.state_tm(3, 1, Z)))
        for Z in (Fraction(1, 2**65), 2**64 + 1, Fraction(10**400)):
            with pytest.raises(ValueError, match=r"charge must lie in \[2\*\*-64, 2\*\*64\]"):
                cl.state_tm(3, 1, Z)

    @pytest.mark.parametrize("sweep", [lambda Z: cl.sweep_su11(2, Z), lambda Z: cl.sweep_weyl(1, 2, Z=Z)],
                             ids=["su11", "weyl"])
    def test_sweep_refuses_a_charge_its_steps_would_drag_out_of_range(self, sweep):
        # a step drags Z by n'/n in [1/2, 2]: the sweep refuses Z up front, naming the charge given
        for Z in (2**64, Fraction(1, 2**64)):
            with pytest.raises(ValueError, match=rf"^a sweep's charge must lie in \[2\*\*-63, 2\*\*63\], .*, got {Z}$"):
                sweep(Z)
        for Z in (2**63, Fraction(1, 2**63)):
            assert all(rep.passed for rep in sweep(Z))

    def test_even_gap_state_is_representable(self):
        # single A/B steps leave the shared grid; labels stay valid
        state = cl.state_munu(1, 1)
        assert state.principal == Fraction(3, 2)
        assert state.gamma == Fraction(4, 3)
        assert cl.normalization_residual(state) <= 1e-12

    def test_exact_bookkeeping_match_between_labelings(self):
        for t in range(1, 13):
            for m in range(t):
                a = cl.state_tm(t, m)
                b = cl.state_munu(t - m - 1, t + m)
                for name in ("principal", "angular", "power", "alpha", "degree",
                             "windings", "gamma", "norm_sq"):
                    assert getattr(a, name) == getattr(b, name), (t, m, name)

    def test_profiles_match_between_labelings(self):
        nodes, _ = cl.gauss_laguerre(24)
        for t, m in [(1, 0), (2, 0), (3, 1), (5, 2)]:
            a = cl.state_tm(t, m).scaled_profile(nodes)
            b = cl.state_munu(t - m - 1, t + m).scaled_profile(nodes)
            assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("t", range(1, 9))
    def test_normalization(self, t):
        for m in range(t):
            assert cl.normalization_residual(cl.state_tm(t, m)) <= 1e-12

    def test_normalization_past_default_order(self):
        # the integrand has degree 2t, past order 40's exact degree 79 from t = 40
        for t in range(40, 61):
            for m in range(t):
                assert cl.normalization_residual(cl.state_tm(t, m)) <= 1e-12, (t, m)

    @pytest.mark.parametrize("t", [90, 100, 120])
    def test_normalization_at_large_labels(self, t):
        # norm_sq is below the smallest float here, and from t = 120 rho**p
        # alone overflows at the top nodes
        for m in (0, 1, t // 2, t - 2, t - 1):
            assert cl.normalization_residual(cl.state_tm(t, m)) <= 1e-12, (t, m)

    def test_normalization_weyl(self):
        for mu in range(6):
            for nu in range(mu, 8):
                assert cl.normalization_residual(cl.state_munu(mu, nu)) <= 1e-12


class TestActionCoefficients:
    def test_frozen_examples(self):
        assert cl.action_coefficient(cl.state_tm(1, 0), "T+") == -2.0
        assert cl.action_coefficient(cl.state_tm(2, 1), "T+") == pytest.approx(
            -math.sqrt(6), rel=1e-15)
        assert cl.action_coefficient(cl.state_munu(0, 1), "A+") == pytest.approx(
            math.sqrt(1.5), rel=1e-15)
        assert cl.action_coefficient(cl.state_munu(1, 2), "A+") == pytest.approx(
            math.sqrt(2.5), rel=1e-15)
        assert cl.action_coefficient(cl.state_munu(0, 1), "B+") == pytest.approx(
            -math.sqrt(3), rel=1e-15)

    def test_step_past_nu_equal_mu_folds_with_the_reflection_sign(self):
        # (mu + 1, mu) folds to (mu, mu + 1) and (mu, mu - 1) to (mu - 1, mu);
        # L^(-1)_n = -(rho/n) L^(1)_(n-1) flips the LADDERS sign
        state = cl.state_munu(2, 2)
        assert cl.action_radicand(state, "A+") == (-1, Fraction(18, 5))
        assert cl.action_radicand(state, "B-") == (1, Fraction(8, 5))
        assert cl.shifted_state(state, "A+").labels == (2, 3)
        assert cl.shifted_state(state, "B-").labels == (1, 2)
        assert cl.action_radicand(state, "A-")[0] == 1
        assert cl.action_radicand(state, "B+")[0] == -1

    def test_step_is_the_folded_ladder_move(self):
        # _step keeps generators.ladder_move's radicand and n'/n; a target past nu == mu is swapped and its
        # sign flipped, and any other is the move's as it is
        folded = 0
        states = [cl.state_tm(t, m) for t in range(1, 10) for m in range(t)]
        states += [cl.state_munu(mu, nu) for nu in range(10) for mu in range(nu + 1)]
        for state in states:
            for op, lad in gen.LADDERS.items():
                if lad.kind != state.family:
                    continue
                sign, radicand, (mu, nu), ratio = gen.ladder_move(op, state.munu)
                if mu > nu:
                    folded += 1
                    assert cl._step(state, op) == (-sign, radicand, (nu, mu), ratio), (state.munu, op)
                else:
                    assert cl._step(state, op) == (sign, radicand, (mu, nu), ratio), (state.munu, op)
        assert folded == 20  # A+ and B- at each of the ten states mu == nu

    def test_lowering_edge_is_exact_zero(self):
        assert cl.action_radicand(cl.state_tm(3, 2), "T-")[1] == 0
        assert cl.action_radicand(cl.state_munu(0, 4), "A-")[1] == 0

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cl.action_coefficient(cl.state_tm(2, 0), "A+")
        with pytest.raises(ValueError):
            cl.action_coefficient(cl.state_munu(0, 1), "T-")
        with pytest.raises(ValueError):
            cl.action_coefficient(cl.state_tm(2, 0), "Q+")


    def test_T_composes_from_A_then_B(self):
        # on the weyl labels T+- steps (mu, nu) by (+-1, +-1), which is A+-
        # followed by B+-; coefficient, target and dragged charge all agree
        for t in range(1, 13):
            for m in range(t):
                state = cl.state_tm(t, m, 3)
                weyl = cl.state_munu(t - m - 1, t + m, 3)
                for d in "+-":
                    sign, radicand = cl.action_radicand(state, "T" + d)
                    sign_a, rad_a = cl.action_radicand(weyl, "A" + d)
                    if rad_a == 0:
                        assert radicand == 0, (t, m, d)
                        continue
                    mid = cl.shifted_state(weyl, "A" + d)
                    sign_b, rad_b = cl.action_radicand(mid, "B" + d)
                    assert sign * radicand == sign_a * rad_a * sign_b * rad_b, (t, m, d)
                    target = cl.shifted_state(state, "T" + d)
                    end = cl.shifted_state(mid, "B" + d)
                    tt, tm = target.labels
                    assert end.labels == (tt - tm - 1, tt + tm), (t, m, d)
                    assert end.Z == target.Z, (t, m, d)


class TestActions:
    def test_su11_sweep(self):
        reports = cl.sweep_su11(6)
        assert len(reports) == 2 * sum(range(1, 7))
        for rep in reports:
            assert rep.passed, rep
            if not rep.annihilation:
                assert rep.coefficient_error <= 1e-10
                assert rep.profile_residual <= 1e-8
                assert rep.target == cl.shifted_state(
                    cl.state_tm(*rep.source), rep.operator).labels

    def test_weyl_sweep(self):
        reports = cl.sweep_weyl(5, 7)
        assert all(rep.passed for rep in reports)
        ops = {rep.operator for rep in reports}
        assert ops == {"A+", "A-", "B+", "B-"}

    @pytest.mark.parametrize("name", ["coeff_tol", "profile_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("check", [
        lambda **tol: cl.action_report(cl.state_tm(3, 1), "T+", **tol),
        lambda **tol: cl.action_report(cl.state_tm(3, 2), "T-", **tol),
        lambda **tol: cl.sweep_su11(2, **tol),
        lambda **tol: cl.sweep_weyl(1, 2, **tol),
    ], ids=["action", "annihilation", "sweep-su11", "sweep-weyl"])
    def test_non_finite_tolerance_refused(self, check, name, value):
        # a NaN tolerance failed every check, an infinite one passed every check, and a
        # zero or negative one failed a correct action; one tol bounds both checks, and
        # the per-bound name is not taken
        with pytest.raises(ValueError, match=f"^tol must be finite and positive, got {re.escape(str(value))}$"):
            check(tol=value)
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            check(**{name: value})

    @pytest.mark.parametrize("check", [
        lambda tol: [cl.action_report(cl.state_tm(3, 1), "T+", tol=tol)],
        lambda tol: [cl.action_report(cl.state_tm(3, 2), "T-", tol=tol)],
        lambda tol: cl.sweep_su11(2, tol=tol),
        lambda tol: cl.sweep_weyl(1, 2, tol=tol),
    ], ids=["action", "annihilation", "sweep-su11", "sweep-weyl"])
    def test_one_tolerance_bounds_every_verdict(self, check):
        # tol stands for both bounds, the coefficient error's and the profile
        # residual's (an annihilation's norm is both); None keeps the named ones
        for rep in check(None):
            assert rep.passed == (rep.coefficient_error <= cl.COEFF_TOL and rep.profile_residual <= cl.PROFILE_TOL)
        for tol in (1e-300, 1e-16, 2e-16, 1e-13, 1.0):
            for rep in check(tol):
                assert rep.passed == (max(rep.coefficient_error, rep.profile_residual) <= tol), (tol, rep)

    def test_weyl_reports_pass_at_every_gap(self):
        # odd and even gaps nu - mu, the nu == mu edge included: report,
        # coefficient and shifted state name the same folded target
        for mu in range(16):
            for nu in range(mu, 16):
                state = cl.state_munu(mu, nu)
                for op in ("A+", "A-", "B+", "B-"):
                    rep = cl.action_report(state, op)
                    assert rep.passed, rep
                    if not rep.annihilation:
                        assert rep.expected == cl.action_coefficient(state, op), rep
                        assert rep.target == cl.shifted_state(state, op).labels
                        assert cl.charge_shift(state, op).target == rep.target

    def test_annihilating_steps_raise_before_building_a_state(self):
        states = [cl.state_tm(t, m) for t in range(1, 9) for m in range(t)]
        states += [cl.state_munu(mu, nu) for mu in range(16) for nu in range(mu, 16)]
        annihilating = 0
        for state in states:
            for op, lad in gen.LADDERS.items():
                if lad.kind != state.family or cl.action_radicand(state, op)[1]:
                    continue
                annihilating += 1
                message = re.escape(f"{op} annihilates {state.family} state {state.labels}")
                for call in (cl.shifted_state, cl.charge_shift):
                    with pytest.raises(ValueError, match=f"^{message}$"):
                        call(state, op)
        assert annihilating == 8 + 16 + 1  # T- at m = t - 1, A- at mu = 0, B- at (0, 0)

    def test_annihilation_norms(self):
        for m in range(6):
            rep = cl.action_report(cl.state_tm(m + 1, m), "T-")
            assert rep.annihilation and rep.target is None
            assert rep.measured <= 1e-10
        for nu in (1, 3, 5):
            rep = cl.action_report(cl.state_munu(0, nu), "A-")
            assert rep.annihilation and rep.measured <= 1e-10

    def test_fold_target_at_the_default_order_passes(self):
        # (40, 40) carries L^(0)_40, which vanishes at every order-40 node
        for state, op in ((cl.state_munu(39, 40), "A+"), (cl.state_munu(40, 41), "B-")):
            rep = cl.action_report(state, op)
            assert rep.target == (40, 40) and rep.passed, rep

    def test_every_fold_target_passes_up_to_the_float_ceiling(self):
        # the order is normalization_order at the larger principal label, k + 1 for A+ from
        # (k - 1, k) and k + 2 for B- from (k, k + 1); one step past the ceiling is refused
        for src, op, top in (((-1, 0), "A+", cl.MAX_QUAD_ORDER - 1), ((0, 1), "B-", cl.MAX_QUAD_ORDER - 2)):
            for k in range(1, top + 1):
                rep = cl.action_report(cl.state_munu(src[0] + k, src[1] + k), op)
                assert rep.target == (k, k) and rep.passed, rep
            with pytest.raises(ValueError, match=f"^quadrature order {cl.MAX_QUAD_ORDER + 1} is past"):
                cl.action_report(cl.state_munu(src[0] + top + 1, src[1] + top + 1), op)

    def test_order_past_the_float_limit_refused(self):
        with pytest.raises(ValueError, match="^quadrature order 502 is past the float limit 184$"):
            cl.action_report(cl.state_munu(0, 1001), "B+")

    def test_unsound_quadrature_norm_refused(self, monkeypatch):
        # at order 1 the one node is rho = 1, the root of L^(0)_1, so the target (1, 1) reads 0 there
        monkeypatch.setattr(cl, "normalization_order", lambda n: 1)
        message = "the quadrature norm of weyl state (1, 1) is 0.0 at order 1, integrand degree 3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cl.action_report(cl.state_munu(0, 1), "A+")

    def test_raising_then_lowering_composes(self):
        state = cl.state_tm(3, 1)
        up = cl.shifted_state(state, "T+")
        product = (cl.action_coefficient(state, "T+")
                   * cl.action_coefficient(up, "T-"))
        t, m = 3, 1
        closed = math.sqrt((t + 1) * (t - m) * (t + m + 1) / t) * math.sqrt(
            t * (t + 1 + m) * (t - m) / (t + 1))
        assert product == pytest.approx(closed, rel=1e-14)
        nodes, w = cl.gauss_laguerre(cl.DEFAULT_QUAD_ORDER)
        stepped = cl.action_coefficient(state, "T+") * cl.act(GENERATORS["T-"], up, nodes)
        src = state.scaled_profile(nodes)
        measured = float(w @ (stepped * src)) / float(w @ src**2)
        assert measured == pytest.approx(product, abs=1e-10)


class TestDerivedActions:
    """``act`` derives every action from the symbolic generators; the hand
    formulas it replaced stay here as the reference."""

    SU11 = [cl.state_tm(t, m) for t in range(1, 13) for m in range(t)]
    # odd and even gaps nu - mu, the nu == mu edge included
    WEYL = [cl.state_munu(mu, nu) for mu in range(7) for nu in range(mu, 11)]

    NODES = cl.gauss_laguerre(cl.DEFAULT_QUAD_ORDER)[0]

    def _deviation(self, state, derived, hand):
        """max |derived - hand| relative to max |P| on the quadrature nodes."""
        return np.max(np.abs(derived - hand)) / np.max(np.abs(state.scaled_profile(self.NODES)))

    @pytest.mark.parametrize("operator", list(GENERATORS))
    def test_actions_match_hand_formulas(self, operator):
        for state in self.SU11 if operator[0] == "T" else self.WEYL:
            derived = cl.act(GENERATORS[operator], state, self.NODES)
            hand = _hand_action(state, operator, self.NODES)
            assert self._deviation(state, derived, hand) <= 1e-12, state

    def test_casimir_matches_hand_formula(self):
        op = gen.casimir()[0]
        for state in self.SU11 + self.WEYL:
            derived = cl.act(op, state, self.NODES)
            hand = _hand_casimir(state, self.NODES)
            assert self._deviation(state, derived, hand) <= 1e-10, state

    def test_windings(self):
        assert cl.state_tm(4, 1).windings == (4, 2, 5)
        assert cl.state_munu(2, 5).windings == (4, 2, 5)
        assert cl.state_munu(1, 1).windings == (Fraction(3, 2), 1, 1)

    def test_rho_form_rejects_what_leaves_the_state_class(self):
        state = cl.state_tm(3, 1)
        rho = np.array([0.5, 2.0])
        with pytest.raises(ValueError, match="gamma-degree"):
            cl.act(oa.s_sym(), state, rho)
        with pytest.raises(ValueError, match="non-real"):
            cl.act(oa.deriv("eta"), state, rho)
        with pytest.raises(ValueError, match="phase"):
            cl.act(oa.identity() + oa.phase("eta", 1), state, rho)

    @pytest.mark.parametrize("power,rho", [(-1100, 0.5), (1100, 2.0)])
    def test_rho_form_refuses_a_coefficient_past_the_float_range(self, power, rho):
        # s**p r**p is (rho/2)**p: 2**1100 overflows a float, and 2**-1100 rounds to 0.0 though
        # (rho/2)**1100 is 1 at rho = 2; 2**-1000 lies inside the range and acts
        state = cl.state_tm(3, 1)
        with pytest.raises(ValueError, match=rf"^rho-form atom rho\^\({2 * power}/2\)\*\(d/drho\)\^0: "
                                             r"coefficient outside \[2\*\*-1022, 2\*\*1022\]$"):
            cl.act(oa.s_sym(power) * oa.r_power(power), state, [rho])
        assert cl.act(oa.s_sym(1000) * oa.r_power(1000), state, [2.0]) == pytest.approx(state.scaled_profile([2.0]))

    def test_action_coefficient_past_the_float_range_refused(self):
        # 2**1022 rho**-1021 d/drho lies inside the rho-form's range, but times p = 41/2 from rho**p its
        # rho**(p-1022) coefficient is 41 * 2**1021, past the float range: refused by value, not OverflowError
        with pytest.raises(ValueError, match=r"^the action leaves the float range at rho = 1\.0$"):
            cl.act(oa.s_sym(-1022) * oa.r_power(-1021) * oa.deriv("r"), cl.state_munu(0, 40), [1.0, 2.0])


@st.composite
def _state_operator_and_rho(draw):
    """A state with t <= 8, or mu <= 5 and nu <= 9 (nu == mu included), at a
    small rational charge, one of its ladders or the Casimir, and a rho array
    that contains 0."""
    Z = draw(st.fractions(Fraction(1, 8), 8, max_denominator=12))
    if draw(st.booleans()):
        t = draw(st.integers(1, 8))
        state, names = cl.state_tm(t, draw(st.integers(0, t - 1)), Z), ["T+", "T-", "C"]
    else:
        mu = draw(st.integers(0, 5))
        state, names = cl.state_munu(mu, draw(st.integers(mu, 9)), Z), ["A+", "A-", "B+", "B-", "C"]
    name = draw(st.sampled_from(names))
    op = gen.casimir()[0] if name == "C" else GENERATORS[name]
    rest = draw(st.lists(st.floats(1e-6, 30.0), max_size=4))
    rho = np.array(draw(st.permutations([0.0, *rest])))
    return state, op, rho


class TestActionAtZero:
    @settings(max_examples=150, deadline=None)
    @given(_state_operator_and_rho())
    def test_finite_at_zero_and_continuous(self, case):
        state, op, rho = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = cl.act(op, state, rho)
        assert np.all(np.isfinite(out))
        # the entries at rho > 0 are computed exactly as without the zero
        assert np.array_equal(out[rho > 0], cl.act(op, state, rho[rho > 0]))
        near = cl.act(op, state, np.array([1e-9]))[0]
        assert abs(out[rho == 0][0] - near) <= 1e-4

    @settings(max_examples=100, deadline=None)
    @given(_state_operator_and_rho())
    def test_reports_end_in_a_verdict_at_any_charge(self, case):
        state = case[0]
        checks = [(cl.action_report, name) for name, lad in gen.LADDERS.items()
                  if lad.kind == state.family]
        checks += [(cl.casimir_residual,), (cl.schrodinger_residual,), (cl.normalization_residual,)]
        for check, *args in checks:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                verdict = check(state, *args)
            if isinstance(verdict, cl.ActionReport):
                verdict = (verdict.measured, verdict.coefficient_error, verdict.profile_residual)
            assert np.all(np.isfinite(verdict)), (state, check.__name__, *args)

    def test_identity_is_the_profile(self):
        rho = np.array([0.0, 1e-9, 0.3, 2.5, 17.0, 60.0])
        states = [cl.state_tm(t, m) for t in range(1, 9) for m in range(t)]
        states += [cl.state_munu(mu, nu) for mu in range(6) for nu in range(mu, 10)]
        for state in states:
            out = cl.act(oa.identity(), state, rho)
            assert out.tobytes() == state.scaled_profile(rho).tobytes(), state

    def test_reproductions(self):
        aplus = gen.build_AB()["Aplus"]
        out = cl.act(aplus, cl.state_munu(1, 2), [0.0, 0.5])
        assert out[0] == 0.0 and out[1] == cl.act(aplus, cl.state_munu(1, 2), [0.5])[0]
        ground = cl.state_tm(1, 0)
        assert ground.scaled_profile(0.0) == 0.0
        profile = ground.scaled_profile([0.0, 2.5])
        assert profile[0] == 0.0 and profile[1] == ground.scaled_profile(2.5)

    def test_infinite_at_zero_raises(self):
        from ladder_forge import opdsl

        op = opdsl.parse("s^-2*r^-2")
        with pytest.raises(ValueError, match="rho = 0"):
            cl.act(op, cl.state_munu(1, 1), [0.0, 1.0])
        assert np.isfinite(cl.act(op, cl.state_munu(1, 1), [0.5, 1.0])).all()

    @pytest.mark.parametrize("call,message", [
        (lambda rho: cl.act(gen.build_T()["Tplus"], cl.state_tm(2, 0), rho), "rho must be nonnegative, got -1.0"),
        (lambda rho: cl.act(oa.zero(), cl.state_tm(2, 0), rho), "rho must be nonnegative, got -1.0"),
        (lambda rho: cl.state_tm(2, 0).scaled_profile(rho), "rho must be nonnegative, got -1.0"),
        (lambda r: cl.state_tm(2, 0).radial(r), "r must be nonnegative, got -1.0"),
    ], ids=["act", "act-zero", "scaled-profile", "radial"])
    def test_negative_rho_refused(self, call, message):
        # a negative rho is outside the profiles' domain: a rho power of it is NaN;
        # the message names the least value, past a NaN and in any shape
        for rho in ([-1.0], -1.0, [0.0, 2.0, -0.5, -1.0], [[np.nan, 1.0], [-1.0, 0.0]]):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(rho)
        assert np.isfinite(call([0.0, 2.0])).all()

    @pytest.mark.parametrize("call,message", [
        (lambda rho: cl.act(gen.build_T()["Tplus"], cl.state_tm(2, 0), rho), "rho must be nonnegative, got nan"),
        (lambda rho: cl.state_tm(2, 0).scaled_profile(rho), "rho must be nonnegative, got nan"),
        (lambda r: cl.state_tm(2, 0).radial(r), "r must be nonnegative, got nan"),
    ], ids=["act", "scaled-profile", "radial"])
    def test_nan_rho_refused(self, call, message):
        # a NaN rho is no point of the profiles' domain: it is refused as one, not
        # reported as a value past the float range
        for rho in ([np.nan], np.nan, [0.0, np.nan, 2.0], [[1.0, 0.0], [np.nan, 3.0]]):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(rho)

    @pytest.mark.parametrize("call,rho", [
        (lambda rho: cl.act(gen.build_T()["Tplus"], cl.state_tm(2, 0), rho), 1e308),
        (lambda rho: cl.state_tm(2, 0).scaled_profile(rho), 1e200),
        (lambda r: cl.state_tm(2, 0).radial(r), 1e308),  # gamma = 1, so rho = r
    ], ids=["act", "scaled-profile", "radial"])
    def test_rho_past_the_float_range_refused(self, call, rho):
        # N rho**q times the Laguerre values passes the float range at a huge finite rho,
        # where it read -inf or NaN; the message names the first such rho, in any shape,
        # and no RuntimeWarning is raised on the way
        for rhos in ([rho], rho, [0.0, 2.0, rho, 10 * rho], [[1.0, rho], [10 * rho, 0.0]]):
            with pytest.raises(ValueError, match=f"leaves the float range at rho = {re.escape(str(rho))}$"):
                call(rhos)
        assert np.isfinite(call([0.0, 2.0, 100.0])).all()


class TestEigenequationResiduals:
    @pytest.mark.parametrize("t,m", [(1, 0), (3, 1)])
    def test_named_states(self, t, m):
        assert cl.schrodinger_residual(cl.state_tm(t, m)) <= 1e-8

    def test_all_small_states(self):
        for t in range(1, 7):
            for m in range(t):
                assert cl.schrodinger_residual(cl.state_tm(t, m)) <= 1e-8
        for mu in range(4):
            for nu in range(mu + 1, 8, 2):
                assert cl.schrodinger_residual(cl.state_munu(mu, nu)) <= 1e-8

    @pytest.mark.parametrize("Z", [1000, 10**5, 2**63, 2**64])
    def test_large_charge_residual_in_rho_units(self, Z):
        # the residual is measured in rho = gamma r units, so it does not grow as gamma**2
        state = cl.state_tm(3, 1, Z)
        assert cl.schrodinger_residual(state) <= 1e-8
        assert abs(cl.schrodinger_residual(state, 0.1) - 0.1) <= 1e-6

    def test_detuned_eigenvalue_is_detected(self):
        for t, m in [(1, 0), (4, 2)]:
            assert cl.schrodinger_residual(cl.state_tm(t, m), 0.1) >= 1e-2

    @pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
    def test_non_finite_shift_refused(self, shift):
        with pytest.raises(ValueError, match=f"^lambda_shift must be finite, got {shift}$"):
            cl.schrodinger_residual(cl.state_tm(3, 1), lambda_shift=shift)

    @pytest.mark.parametrize("t", [cl.MAX_QUAD_ORDER, 1000, 30000, 10**7])
    @pytest.mark.parametrize("check", [cl.casimir_residual, cl.schrodinger_residual])
    def test_residual_past_the_quadrature_ceiling_is_refused_before_any_step(self, monkeypatch, check, t):
        # the normalization's order t + 1 is past the float limit: at order-40 nodes a degree-999 profile
        # cancels to a residual of 9.25e-8 for a correct state, and t = 10**7 would grow a 3.2 GB column
        steps = []

        def recurrence(n, alpha, x, first, start):
            steps.append((n, alpha))
            raise AssertionError("a Laguerre recurrence ran")

        monkeypatch.setattr(cl, "_recurrence", recurrence)
        cl._columns.clear()
        with pytest.raises(ValueError, match=f"^quadrature order {t + 1} is past the float limit 184$"):
            check(cl.state_tm(t, 0))
        assert steps == [] and not cl._columns

    @pytest.mark.parametrize("k", range(36, 45))
    def test_residuals_pass_on_the_diagonal_around_the_default_order(self, k):
        # (40, 40) carries L^(0)_40, zero at every order-40 node, so its residuals read the order-41 nodes: at order 40
        # a correct state read 7814.5 and 330.5, and its detuned control 330.5
        state = cl.state_munu(k, k)
        assert cl.casimir_residual(state) <= cl.PROFILE_TOL and cl.schrodinger_residual(state) <= cl.PROFILE_TOL
        assert abs(cl.schrodinger_residual(state, 0.1) - 0.1) <= 1e-9

    def test_residual_at_the_quadrature_ceiling_passes(self):
        for check in (cl.casimir_residual, cl.schrodinger_residual):
            assert check(cl.state_tm(cl.MAX_QUAD_ORDER - 1, 0)) <= 1e-8

    def test_casimir_eigenvalue(self):
        # the invariant reads off m(m+1); zero for the ground state
        assert cl.casimir_residual(cl.state_tm(1, 0)) <= 1e-8
        for t in range(1, 7):
            for m in range(t):
                assert cl.casimir_residual(cl.state_tm(t, m)) <= 1e-8
        for mu in range(4):
            for nu in range(mu + 1, 8, 2):
                assert cl.casimir_residual(cl.state_munu(mu, nu)) <= 1e-8


class TestChargeShift:
    def test_example_values(self):
        report = cl.charge_shift(cl.state_tm(2, 0, 6), "T+")
        assert report.charge_out == 9
        assert report.gamma_invariant and report.energy_invariant
        assert report.integer_charge
        assert cl.state_tm(3, 0, 9).energy == Fraction(-9, 2) == cl.state_tm(2, 0, 6).energy

    @pytest.mark.parametrize("state,op,dragged", [
        (cl.state_tm(1, 0, 2**64), "T+", "36893488147419103232"),
        (cl.state_munu(0, 1, Fraction(1, 2**64)), "B-", "1/36893488147419103232"),
    ], ids=["T+", "B-"])
    def test_dragged_charge_refused_before_the_action(self, state, op, dragged, monkeypatch):
        # the target is taken before act runs, and the message names the step, the state and Z n'/n
        monkeypatch.setattr(cl, "act", None)
        message = re.escape(f"{op} drags the charge of {state.family} state {state.labels} at Z = {state.Z} "
                            f"to {dragged}, outside [2**-64, 2**64]")
        for call in (cl.action_report, cl.shifted_state, cl.charge_shift):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call(state, op)

    def test_annihilation_at_the_charge_bound_ends_in_a_verdict(self):
        report = cl.action_report(cl.state_tm(1, 0, 2**64), "T-")
        assert report.annihilation and report.target is None and report.passed

    def test_half_step_keeps_scale(self):
        state = cl.state_munu(1, 2)
        target = cl.shifted_state(state, "A+")
        assert target.principal == state.principal + Fraction(1, 2)
        assert target.gamma == state.gamma
        assert not cl.charge_shift(state, "A+").integer_charge

    def test_matches_coupling_shift_rule(self):
        # dual route through the transform module's q' formula, q = -Z
        for t in range(1, 7):
            for m in range(t):
                state = cl.state_tm(t, m, 3)
                for op, d in (("T+", 1), ("T-", -1)):
                    if cl.action_radicand(state, op)[1] == 0:
                        continue
                    q_shift = fz.shifted_charge(-state.Z, t, d)
                    assert cl.shifted_state(state, op).Z == -q_shift
        for mu in range(4):
            for nu in range(mu + 1, 8, 2):
                state = cl.state_munu(mu, nu, 2)
                for op, d in (("A+", 1), ("A-", -1), ("B+", 1), ("B-", -1)):
                    if cl.action_radicand(state, op)[1] == 0:
                        continue
                    q_shift = fz.shifted_charge(-state.Z, mu + nu + 1, d)
                    assert cl.shifted_state(state, op).Z == -q_shift

    def test_every_sweep_row_preserves_energy_exactly(self):
        for rep in cl.sweep_su11(6) + cl.sweep_weyl():
            if rep.annihilation:
                continue
            state = cl.make_state(rep.family, rep.source)
            shift = cl.charge_shift(state, rep.operator)
            assert shift.gamma_invariant and shift.energy_invariant


# Independent route for the rho-form: apply each ladder, T0 and the Casimir
# with sympy's calculus to a state-like function whose profile F is rho**q
# times a polynomial, all symbolic, and compare with the form's sum.

_RHO, _GAMMA = sympy.symbols("rho gamma", positive=True)
_N, _MU, _NU, _Q = sympy.symbols("n mu nu q")
_F = sympy.Lambda(_RHO, _RHO**_Q * sum(a * _RHO**k for k, a in enumerate(sympy.symbols("a0:3"))))
_FORM_OPS = {**GENERATORS, "T0": gen.build_T()["T0"], "casimir": gen.casimir()[0]}


@pytest.mark.parametrize("name", list(_FORM_OPS))
def test_rho_form_matches_sympy_calculus(name):
    # op on exp(i(n eta + mu alpha + nu beta)) exp(-gamma r/2) F(gamma r), at
    # s = gamma/2 and r = rho/gamma, is op's phase times the state's times
    # exp(-rho/2) sum c n**de mu**da nu**db rho**(k/2) F^(j)(rho)
    op = _FORM_OPS[name]
    (ke, ka, kb), = {mono[1:4] for mono, *_ in op.atoms()}
    phase = sympy.exp(sympy.I * ((_N + ke) * _SETA + (_MU + ka) * _SAL + (_NU + kb) * _SBE))
    state = sympy.exp(sympy.I * (_N * _SETA + _MU * _SAL + _NU * _SBE)) * sympy.exp(-_GAMMA * _SR / 2)
    applied = _sympy_apply(op, state * _F(_GAMMA * _SR)).subs(_SS, _GAMMA / 2).subs(_SR, _RHO / _GAMMA)
    form = sum(sympy.Rational(Fraction(c)) * _N**de * _MU**da * _NU**db * _RHO ** sympy.Rational(k, 2)
               * sympy.diff(_F(_RHO), _RHO, j) for k, j, (de, da, db), c in cl._rho_form(op))
    defect = sympy.expand(applied / (phase * sympy.exp(-_RHO / 2))) - sympy.expand(form)
    assert sympy.simplify(sympy.powsimp(defect, force=True)) == 0


_G = sympy.Function("G")
_LEIBNIZ_OPS = {**_FORM_OPS, **gen.sp4_bilinears()}


@pytest.mark.parametrize("p", [Fraction(1, 2), 1, Fraction(3, 2), 5])
@pytest.mark.parametrize("name", list(_LEIBNIZ_OPS))
def test_leibniz_terms_match_sympy_expansion(name, p):
    # act's cached terms sum c rho**e (-1)**i L^(i), with c = num/den (2n)**de mu**da nu**db summed over
    # the parts; on a profile rho**p G they must be sympy's expansion of the rho-form applied to it, and
    # list their keys in the order a term-by-term Leibniz expansion of the form first reaches them
    op, alpha = _LEIBNIZ_OPS[name], int(2 * p - 1)
    form = cl._rho_form(op)
    profile = _RHO ** sympy.Rational(p) * _G(_RHO)
    applied = sum(sympy.Rational(c) * _N**de * _MU**da * _NU**db * _RHO ** sympy.Rational(k, 2)
                  * sympy.diff(profile, _RHO, j) for k, j, (de, da, db), c in form)
    den, terms = cl._leibniz(op, alpha)
    cached = sum(sympy.Rational(num, den) * (2 * _N) ** de * _MU**da * _NU**db * _RHO ** sympy.Rational(e2, 2)
                 * (-1) ** i * sympy.diff(_G(_RHO), _RHO, i)
                 for e2, i, parts in terms for num, de, da, db in parts)
    assert sympy.expand(sympy.powsimp(sympy.expand(applied) - sympy.expand(cached), force=True)) == 0
    reached = dict.fromkeys((k + alpha + 1 - 2 * (j - i), i) for k, j, *_ in form for i in range(j + 1))
    kept = [(e2, i) for e2, i, parts in terms if parts]
    assert kept == [key for key in reached if key in kept]
