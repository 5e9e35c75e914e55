import numpy as np
import pytest

from sdstab.errors import DomainError
from sdstab.numerics import _RANGE, is_pos_def, lam_max, pencil_max_eig, sym_eigvals

from oracles import jacobi_eigh


def random_sym(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    return 0.5 * (a + a.T)


class TestLamMax:
    def test_symmetric_part(self, rng):
        # the largest eigenvalue of 0.5 (A + A^T), bit for bit
        a = rng.normal(size=(4, 4)) * 1e-10 + np.eye(4)
        assert lam_max(a) == lam_max(0.5 * (a + a.T))
        assert is_pos_def(a) and not is_pos_def(-a)

    def test_rejects_non_square_and_non_finite(self):
        bad = [np.zeros((2, 3)), np.zeros((0, 0)), np.zeros(3), [[np.nan, 0.0], [0.0, 1.0]],
               [[np.inf, 0.0], [0.0, 1.0]], [[0.0, -np.inf], [0.0, 0.0]],
               [[0.0, 1.5e308], [1.5e308, 0.0]]]  # finite, but its symmetric part overflows
        for m in bad:
            with pytest.raises(DomainError):
                lam_max(m)
            with pytest.raises(DomainError):
                is_pos_def(m)

    def test_matches_jacobi_oracle(self, rng):
        # 200 symmetric matrices, n <= 8, entries from 1e-100 to 1e100: the
        # verdict compares lam_max with tol (1 + ||M||_F), so that is the scale
        for k in range(200):
            n = 1 + k % 8
            a = rng.normal(size=(n, n))
            s = (a @ a.T + 0.1 * np.eye(n) if k % 2 else 0.5 * (a + a.T)) * 10.0 ** rng.uniform(-100, 100)
            w, _ = jacobi_eigh(s)
            bound = 1e-12 * (1.0 + np.linalg.norm(s))
            assert abs(lam_max(s) - w[-1]) <= bound
            if abs(w[0]) > bound:
                assert is_pos_def(s) == (w[0] > 0.0)
            if k % 2:
                assert is_pos_def(s)


class TestSymEig:
    # the independent cyclic-Jacobi oracle that every margin is checked against
    def test_identity(self):
        w, _ = jacobi_eigh(np.eye(2))
        assert np.allclose(w, [1.0, 1.0], atol=0)

    def test_diagonal(self):
        w, _ = jacobi_eigh(np.diag([-3.0, 5.0]))
        assert np.allclose(w, [-3.0, 5.0], atol=1e-14)

    def test_reconstruction_oracle(self, rng):
        s = random_sym(rng, 4, scale=3.0)
        w, v = jacobi_eigh(s)
        bound = 1e-10 * (1.0 + np.linalg.norm(s))
        assert np.abs((v * w) @ v.T - s).max() <= bound
        assert np.abs(v.T @ v - np.eye(4)).max() <= 1e-10

    def test_eigenvalues_sorted(self, rng):
        for _ in range(10):
            w, _ = jacobi_eigh(random_sym(rng, 5))
            assert np.all(np.diff(w) >= 0)

    def test_quadratic_form_identity(self, rng):
        # v' S v == sum_i w_i (v' u_i)^2 on a grid of unit vectors
        s = random_sym(rng, 4, scale=2.0)
        w, u = jacobi_eigh(s)
        bound = 1e-8 * (1.0 + np.linalg.norm(s))
        vs = rng.normal(size=(200, 4))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        for v in vs:
            direct = v @ s @ v
            spectral = float(np.sum(w * (v @ u) ** 2))
            assert abs(direct - spectral) <= bound

    def test_matches_dense_oracle(self, rng):
        for n in (1, 2, 3, 6, 8):
            s = random_sym(rng, n)
            assert np.allclose(jacobi_eigh(s)[0], np.linalg.eigvalsh(s), atol=1e-11)


class TestIsPosDef:
    def test_identity(self):
        assert is_pos_def(np.eye(3))

    def test_zero_boundary(self):
        assert not is_pos_def(np.zeros((2, 2)))

    def test_reported_certificate(self):
        p = np.array([[2.2173, 0.8212], [0.8212, 6.1228]])
        assert is_pos_def(p)


class TestPencilMaxEig:
    def test_scaled_identity(self):
        assert pencil_max_eig(2.0 * np.eye(3), np.eye(3)) == pytest.approx(2.0, abs=1e-12)

    def test_diagonal_ratio(self):
        assert pencil_max_eig(np.diag([1.0, 8.0]), np.diag([1.0, 4.0])) == pytest.approx(2.0, abs=1e-12)

    def test_dense_oracle(self, rng):
        a = random_sym(rng, 4)
        m = rng.normal(size=(4, 4))
        b = m @ m.T + 4 * np.eye(4)
        lam = pencil_max_eig(a, b)
        oracle = np.max(np.linalg.eigvals(np.linalg.solve(b, a)).real)
        assert lam == pytest.approx(oracle, abs=1e-8)
        # A - lam*B is negative semidefinite at the returned lam
        assert lam_max(a - lam * b) <= 1e-9 * (1 + np.linalg.norm(a))

    def test_congruence_invariance(self, rng):
        a = random_sym(rng, 3)
        w = rng.normal(size=(3, 3))
        b = w @ w.T + 3 * np.eye(3)
        lam = pencil_max_eig(a, b)
        for _ in range(5):
            m = rng.normal(size=(3, 3)) + 0.5 * np.eye(3)
            lam_c = pencil_max_eig(m.T @ a @ m, m.T @ b @ m)
            assert lam_c == pytest.approx(lam, rel=1e-7, abs=1e-7)

    def test_stack_matches_single(self, rng):
        b = random_sym(rng, 3) + 6.0 * np.eye(3)
        stack = np.array([random_sym(rng, 3) for _ in range(6)]).reshape(2, 3, 3, 3)
        lam = pencil_max_eig(stack, b)
        assert lam.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert lam[idx] == pytest.approx(pencil_max_eig(stack[idx], b), rel=1e-14, abs=1e-14)
        bad = stack.copy()
        bad[1, 2, 0, 0] = np.inf
        with pytest.raises(DomainError):
            pencil_max_eig(bad, b)

    def test_stacked_denominator_matches_single(self, rng):
        # numerator and denominator stacks broadcast against each other
        a = np.array([random_sym(rng, 2) for _ in range(4)]).reshape(4, 1, 2, 2)
        b = np.array([random_sym(rng, 2) + 4.0 * np.eye(2) for _ in range(3)])
        lam = pencil_max_eig(a, b)
        assert lam.shape == (4, 3)
        for i, j in np.ndindex(4, 3):
            assert lam[i, j] == pytest.approx(pencil_max_eig(a[i, 0], b[j]), rel=1e-14, abs=1e-14)
        shared = pencil_max_eig(a[0, 0], b)
        assert shared.shape == (3,)
        assert shared == pytest.approx(lam[0], rel=1e-14, abs=1e-14)
        bad = b.copy()
        bad[2] = np.diag([1.0, -1.0])
        with pytest.raises(DomainError):
            pencil_max_eig(a, bad)

    def test_indefinite_denominator_rejected(self):
        with pytest.raises(DomainError):
            pencil_max_eig(np.eye(2), np.diag([1.0, -1.0]))

    def test_nan_rejected(self):
        for i, j in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            bad = np.eye(2)
            bad[i, j] = np.nan
            with pytest.raises(DomainError):
                pencil_max_eig(bad, np.eye(2))
            with pytest.raises(DomainError):
                pencil_max_eig(np.eye(2), bad)


def _same_bits(m):
    ref, got = np.linalg.eigvalsh(m), sym_eigvals(m)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestSymEigvals:
    """sym_eigvals against np.linalg.eigvalsh, bit for bit in both eigenvalues."""

    BLOCKS = 1_200_000  # about 1e6 of them inside the closed form's range

    @pytest.mark.parametrize("case", ["symmetric", "psd", "off_1e-9", "off_1e-17", "off_0",
                                      "equal_diagonal", "zero_trace"])
    def test_two_by_two_blocks(self, case, rng):
        x = rng.normal(size=(self.BLOCKS, 2, 2))
        m = x @ x.swapaxes(1, 2) if case == "psd" else x + x.swapaxes(1, 2)
        if case.startswith("off_"):
            m[:, 0, 1] = m[:, 1, 0] = m[:, 1, 0] * float(case[4:])
        elif case == "equal_diagonal":
            m[:, 1, 1] = m[:, 0, 0]
        elif case == "zero_trace":
            m[:, 1, 1] = -m[:, 0, 0]
        m *= 10.0 ** rng.uniform(-110.0, 120.0, size=(self.BLOCKS, 1, 1))
        big = np.abs(m[:, (0, 1, 1), (0, 0, 1)]).max(axis=1)
        inside = (big >= _RANGE[0]) & (big <= _RANGE[1])
        assert inside.sum() >= 1_000_000
        _same_bits(m[inside])  # the closed form
        _same_bits(m[~inside])  # eigvalsh, where LAPACK scales first
        _same_bits(m[:1000])  # a stack that mixes both

    def test_non_finite_rows_and_other_sizes(self, rng):
        m = rng.normal(size=(1_000_000, 2, 2))
        m[::1000, 0, 0] = np.nan
        m[1::1000, 1, 0] = np.inf
        m[2::1000, 1, 1] = -np.inf
        _same_bits(m)
        for shape in ((300, 1, 1), (300, 3, 3), (4, 36, 3, 3), (1, 36, 2, 2), (50, 36, 2, 2), (2, 2)):
            a = rng.normal(size=shape)
            _same_bits(a + a.swapaxes(-1, -2))
