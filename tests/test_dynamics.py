import csv
import errno
import os

import numpy as np
import pytest

from nuds import dynamics
from nuds.dynamics import (
    FORK_MIN_ENTRIES,
    LatticeWindow,
    SystemSpec,
    bs_membership,
    data_matrix,
    data_matrix_to_csv,
    first_nonfinite_step,
    simulate,
    stationary_deviation,
    sup_row_norm,
    trajectory_to_csv,
    window_to_csv,
)
from nuds.frames import FrameAnalysis, VectorFamily, analysis
from nuds.lattice import (
    Branch,
    LambdaIndex,
    SpectralParams,
    branch_of,
    index_label,
    power_of,
    window,
)
from nuds.linalg import NumericalError

from oracles import closed_form_resolvent_state, closed_form_state, recurrence_residual


def _spec_1d():
    return SystemSpec(
        params=SpectralParams(N=2, r=1),
        A=[[0.5]],
        g=VectorFamily(vectors=np.array([[1.0]])),
        W_basis=[[1.0]],
        w=[1.0],
        x0=[0.0],
        xm2=[2.0],
        K=1,
    )


def _random_spec(rng, dim, K, spectral_scale=0.8):
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    A *= spectral_scale / max(np.abs(np.linalg.eigvals(A)).max(), 1e-6)
    g = rng.standard_normal((2 * dim, dim)) + 1j * rng.standard_normal((2 * dim, dim))
    return SystemSpec(
        params=SpectralParams(N=2, r=1),
        A=A,
        g=VectorFamily(vectors=g),
        W_basis=np.eye(dim),
        w=rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
        x0=rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
        xm2=rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
        K=K,
    )


def test_spec_validation():
    spec = _spec_1d()
    assert spec.dim == 1
    assert FrameAnalysis(spec.g).bounds.beta == pytest.approx(1.0)
    with pytest.raises(ValueError, match="orthonormal"):
        SystemSpec(
            params=spec.params, A=[[0.5]], g=spec.g,
            W_basis=[[2.0]], w=[1.0], x0=[0.0], xm2=[0.0], K=1,
        )
    with pytest.raises(ValueError, match="lie in W"):
        SystemSpec(
            params=spec.params, A=np.eye(2) * 0.5,
            g=VectorFamily(vectors=np.eye(2)),
            W_basis=[[1.0], [0.0]], w=[0.0, 1.0],
            x0=[0.0, 0.0], xm2=[0.0, 0.0], K=1,
        )
    with pytest.raises(ValueError, match="sampling vectors have dim 2, expected 1"):
        SystemSpec(
            params=spec.params, A=[[0.5]],
            g=VectorFamily(vectors=np.eye(2)),
            W_basis=np.eye(2), w=[1.0, 0.0],
            x0=[0.0, 0.0], xm2=[0.0, 0.0], K=1,
        )


@pytest.mark.parametrize(
    "A, shape", [(np.zeros((2, 3)), "(2, 3)"), (np.zeros((0, 0)), "(0, 0)")], ids=["2x3", "empty"]
)
def test_spec_refuses_an_A_that_is_not_nonempty_square_naming_its_shape(A, shape):
    # The state space is the one A acts on, so A alone sets dim.
    with pytest.raises(ValueError) as err:
        SystemSpec(
            params=SpectralParams(N=2, r=1), A=A, g=VectorFamily(vectors=np.eye(2)),
            W_basis=np.eye(2), w=[1.0, 0.0], x0=[0.0, 0.0], xm2=[0.0, 0.0], K=1,
        )
    assert str(err.value) == f"A must be a nonempty square matrix, got shape {shape}"


def test_simulate_hand_checked():
    # A = 1/2, w = 1, x0 = 0, xm2 = 2 on the K=1 window:
    # x_0 = 0, x_{1/2} = 1, x_{-2} = 2, x_{-2+1/2} = 0.5*2 + 1 = 2
    traj = simulate(_spec_1d())
    assert traj.order == tuple(window(1))
    assert traj.row(LambdaIndex(0, 0))[0] == pytest.approx(0.0)
    assert traj.row(LambdaIndex(0, 1))[0] == pytest.approx(1.0)
    assert traj.row(LambdaIndex(-1, 0))[0] == pytest.approx(2.0)
    assert traj.row(LambdaIndex(-1, 1))[0] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        traj.row(LambdaIndex(5, 0))


def test_simulated_trajectory_satisfies_recurrence():
    rng = np.random.default_rng(2)
    spec = _random_spec(rng, dim=5, K=4)
    traj = simulate(spec)
    assert len(traj.order) == 16
    assert recurrence_residual(traj, spec.A, spec.w) == 0.0
    # initial states are stored verbatim
    np.testing.assert_array_equal(traj.row(LambdaIndex(0, 0)), spec.x0)
    np.testing.assert_array_equal(traj.row(LambdaIndex(-1, 0)), spec.xm2)


def test_recurrence_residual_flags_tampering():
    spec = _spec_1d()
    traj = simulate(spec)
    traj.row(LambdaIndex(0, 1))[:] += 0.25
    assert recurrence_residual(traj, spec.A, spec.w) == pytest.approx(0.25)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_closed_form_matches_simulation(seed):
    rng = np.random.default_rng(seed)
    spec = _random_spec(rng, dim=4, K=3)
    traj = simulate(spec)
    for idx in traj.order:
        np.testing.assert_allclose(
            closed_form_state(spec, idx), traj.row(idx), atol=1e-9
        )


def test_resolvent_form_matches_power_form():
    rng = np.random.default_rng(7)
    spec = _random_spec(rng, dim=4, K=5, spectral_scale=0.9)
    for idx in window(spec.K):
        np.testing.assert_allclose(
            closed_form_resolvent_state(spec, idx),
            closed_form_state(spec, idx),
            atol=1e-9,
        )


def test_resolvent_form_rejects_unit_eigenvalue():
    spec = _spec_1d()
    spec.A = np.eye(1, dtype=complex)  # 1 in the spectrum
    with pytest.raises(NumericalError, match="spectrum"):
        closed_form_resolvent_state(spec, LambdaIndex(0, 1))


def test_data_matrix_against_direct_inner_products():
    rng = np.random.default_rng(12)
    spec = _random_spec(rng, dim=3, K=2)
    traj = simulate(spec)
    D = data_matrix(traj, spec.g)
    for idx in D.order:
        x = traj.row(idx)
        expected = [np.vdot(gk, x) for gk in spec.g.vectors]
        np.testing.assert_allclose(D.row(idx), expected, atol=1e-12)
    with pytest.raises(ValueError):
        data_matrix(traj, VectorFamily(vectors=np.eye(4)))


@pytest.mark.parametrize("branch", list(Branch))
def test_data_matrix_matches_per_row_analysis(branch):
    # Reference: one analysis() call per state.  The batched product sums
    # in another order, so rows agree to a bound fixed from the dtype,
    # 64 eps max||x_lambda|| max||g_j||, on random frames of random size.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(311)
    for _ in range(10):
        dim = int(rng.integers(2, 13))
        count = int(rng.integers(dim, 3 * dim + 1))
        K = int(rng.integers(1, 6))
        traj = simulate(_random_spec(rng, dim, K))
        g = VectorFamily(
            vectors=rng.standard_normal((count, dim))
            + 1j * rng.standard_normal((count, dim))
        )
        D = data_matrix(traj, g)
        assert D.values.shape == (4 * K, count)
        tol = (
            64 * eps
            * float(np.linalg.norm(traj.values, axis=1).max())
            * float(np.linalg.norm(g.vectors, axis=1).max())
        )
        points = [idx for idx in window(K) if branch_of(idx) is branch]
        assert points
        for idx in points:
            reference = analysis(traj.row(idx), g)
            assert float(np.abs(D.row(idx) - reference).max()) <= tol


def test_operator_norms_hand_checked():
    rows = [
        [3.0, 4.0],  # norm 5
        [0.0, 1.0],
        [1.0, 0.0],
        [0.0, 0.0],
    ]
    D = LatticeWindow(np.array(rows))
    assert sup_row_norm(D) == pytest.approx(5.0)


def test_bs_membership_constant_rows():
    order = tuple(window(2))
    row = np.array([1.0 + 1j, -2.0])
    D = LatticeWindow(np.tile(row, (len(order), 1)))
    tl = bs_membership(D)
    assert tl.member and tl.tail_gap == 0.0
    assert tl.nonfinite_step is None and first_nonfinite_step(D) is None
    np.testing.assert_array_equal(tl.limit_row, row)


def test_bs_membership_sees_cross_end_disagreement():
    # Rows settle to a at the left end and b at the right end; each end is
    # internally Cauchy but the two limits differ, so the gap is ||a - b||.
    order = tuple(window(2))
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    rows = [a if i < 4 else b for i in range(len(order))]
    tl = bs_membership(LatticeWindow(np.array(rows)))
    assert tl.tail_gap == pytest.approx(float(np.linalg.norm(a - b)))
    assert not tl.member
    np.testing.assert_allclose(tl.limit_row, (a + b) / 2)


def test_bs_membership_gap_spans_all_four_rows_of_a_K1_window():
    # At K = 1 the TAIL = 2 rows of each end are the whole window, so the
    # widest pair, the two inner rows, sets the gap; the limit row is still
    # the mean of the outermost rows.
    D = LatticeWindow(np.array([[0.0], [1.0], [-1.0], [0.0]]))
    tl = bs_membership(D)
    assert tl.tail_gap == 2.0
    np.testing.assert_array_equal(tl.limit_row, [0.0])


def test_overflowing_orbits_are_silent_and_name_their_first_non_finite_step():
    # x -> 10 x + 1 overflows at step 310 from 0 and at step 9 from 1e300;
    # the warning filter of this suite turns any numpy warning into an error.
    spec = _spec_1d()
    spec.A = np.array([[10.0 + 0j]])
    spec.xm2 = np.array([1e300 + 0j])
    spec.K = 200
    D = data_matrix(simulate(spec), spec.g)
    want = min(
        power_of(idx)
        for idx, row in zip(window(spec.K), D.values)
        if not np.isfinite(row).all()
    )
    assert want == 9
    assert first_nonfinite_step(D) == want
    tl = bs_membership(D)
    assert not np.isfinite(tl.tail_gap) and not tl.member
    assert tl.nonfinite_step == want


def test_stationary_deviation():
    # stationary start: x = Ax + w with A = 1/2, w = 1 gives x = 2
    spec = _spec_1d()
    spec.x0 = np.array([2.0 + 0j])
    spec.xm2 = np.array([2.0 + 0j])
    traj = simulate(spec)
    assert stationary_deviation(traj, np.array([2.0])) == pytest.approx(0.0)
    assert stationary_deviation(traj, np.array([1.0])) == pytest.approx(1.0)


def test_csv_exports(tmp_path):
    rng = np.random.default_rng(9)
    spec = _random_spec(rng, dim=3, K=2)
    traj = simulate(spec)
    D = data_matrix(traj, spec.g)

    tpath = tmp_path / "traj.csv"
    dpath = tmp_path / "data.csv"
    trajectory_to_csv(traj, spec.params, tpath)
    data_matrix_to_csv(D, spec.params, dpath)

    with open(tpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "j", "re", "im"]
    assert len(rows) == 1 + 8 * spec.dim  # 4K lattice rows, dim coords each
    # first lattice point of the K=2 window is -4; entries reparse exactly
    assert rows[1][0] == "-4"
    z = traj.row(LambdaIndex(-2, 0))[0]
    assert (float(rows[1][2]), float(rows[1][3])) == (z.real, z.imag)
    labels = {r[0] for r in rows[1:]}
    assert "-4+1/2" in labels and "0" in labels

    with open(dpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "j", "re", "im"]
    assert len(rows) == 1 + 8 * spec.g.count
    z = D.row(LambdaIndex(-2, 0))[0]
    assert (float(rows[1][2]), float(rows[1][3])) == (z.real, z.imag)


def _csv_module_reference(rows, params, path):
    # The csv.writer loop that the row-block writer replaced.
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "j", "re", "im"])
        for idx, row in zip(rows.order, rows.values):
            label = index_label(idx, params)
            for j, z in enumerate(row):
                writer.writerow([label, j, repr(float(z.real)), repr(float(z.imag))])


def _extreme_window(shape, seed=17):
    # Magnitudes from 1e-300 to 1e300, signed zeros and a large exponent.
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape) + 1j * (
        rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    )
    values[0, :4] = [complex(-0.0, -0.0), 1e-300, -2.5e17, complex(0.0, -2.5e17)]
    values[-1, -1] = complex(-0.0, 1e-300)
    return LatticeWindow(values)


def _assert_matches_reference(tmp_path, rows, write=window_to_csv):
    params = SpectralParams(N=3, r=5)
    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    write(rows, params, out)
    _csv_module_reference(rows, params, ref)
    data = out.read_bytes()
    assert data == ref.read_bytes()
    assert data.startswith(b"lambda,j,re,im\r\n-6,0,-0.0,-0.0\r\n-6,1,1e-300,0.0\r\n")
    assert b"\r\n-6,2,-2.5e+17,0.0\r\n" in data
    assert b"\r\n-4+5/3,10," in data
    assert data.endswith(f",{rows.values.shape[1] - 1},-0.0,1e-300\r\n".encode())


@pytest.mark.parametrize("write", [data_matrix_to_csv, trajectory_to_csv])
def test_csv_writer_matches_csv_module_byte_for_byte(tmp_path, write):
    _assert_matches_reference(tmp_path, _extreme_window((12, 11)), write)  # K = 3


# A K = 3 window just above the size floor, so that its back half is
# formatted in a forked child wherever two CPUs are usable.
LARGE = (12, FORK_MIN_ENTRIES // 12 + 1)


@pytest.mark.parametrize("write", [data_matrix_to_csv, trajectory_to_csv])
def test_two_process_writer_matches_csv_module(tmp_path, forks, write):
    rows = _extreme_window(LARGE)
    assert rows.values.size >= FORK_MIN_ENTRIES
    _assert_matches_reference(tmp_path, rows, write)
    assert len(forks) == 1 and forks[0][1] == 0


def test_writer_falls_back_when_fork_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    calls = []

    def refuse():
        calls.append(1)
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refuse)
    _assert_matches_reference(tmp_path, _extreme_window(LARGE))
    assert calls == [1]


def test_writer_falls_back_when_the_child_fails(tmp_path, monkeypatch, forks):
    parent, real_blocks = os.getpid(), dynamics._row_blocks

    def blocks_failing_in_child(labels, values):
        for block in real_blocks(labels, values):
            if os.getpid() != parent:
                raise RuntimeError("formatting failed in the child")
            yield block

    monkeypatch.setattr(dynamics, "_row_blocks", blocks_failing_in_child)
    _assert_matches_reference(tmp_path, _extreme_window(LARGE))
    assert len(forks) == 1 and forks[0][1] == 1


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, OSError])
def test_writer_reaps_the_child_when_the_parent_fails(tmp_path, monkeypatch, forks, interrupt):
    parent, real_blocks = os.getpid(), dynamics._row_blocks

    def blocks_failing_in_parent(labels, values):
        for block in real_blocks(labels, values):
            if os.getpid() == parent:
                raise interrupt("interrupted")
            yield block

    monkeypatch.setattr(dynamics, "_row_blocks", blocks_failing_in_parent)
    with pytest.raises(interrupt):
        window_to_csv(_extreme_window(LARGE), SpectralParams(N=3, r=5), tmp_path / "x.csv")
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "cpus, shape",
    [({0}, LARGE), ({0, 1}, (4, FORK_MIN_ENTRIES // 4 - 1))],
    ids=["one-cpu", "below-floor"],
)
def test_writer_does_not_fork_where_it_cannot_pay(tmp_path, monkeypatch, cpus, shape):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    rows = _extreme_window(shape)
    params = SpectralParams(N=3, r=5)
    out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
    window_to_csv(rows, params, out)
    _csv_module_reference(rows, params, ref)
    assert out.read_bytes() == ref.read_bytes()
