"""Matrix polynomial arithmetic: ring laws, calculus, serialization."""

import numpy as np
import pytest
import sympy as sp

from mvop.errors import InvalidParam, SizeMismatch
from mvop.matrix_poly import MatrixPolynomial, cauchy, conj_transpose, falling
from oracles import cauchy_loop, derivative_loop


def rand_poly(rng, size=2, deg=3):
    return MatrixPolynomial([rng.standard_normal((size, size))
                             + 1j * rng.standard_normal((size, size))
                             for _ in range(deg + 1)])


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestBasics:
    def test_zero_and_identity(self):
        z = MatrixPolynomial.zero(3)
        assert z.is_zero() and z.degree == 0
        e = MatrixPolynomial.identity(3)
        assert e.degree == 0 and np.allclose(e.coeffs[0], np.eye(3))

    def test_degree_trims_exact_zero_tail(self):
        p = MatrixPolynomial([np.eye(2), np.zeros((2, 2))])
        assert p.degree == 0

    def test_small_leading_coefficient_survives(self):
        # a tiny top coefficient next to a huge constant one must be kept
        p = MatrixPolynomial([1e20 * np.eye(2), 1e-8 * np.eye(2)])
        assert p.degree == 1

    def test_coeff_past_degree(self):
        p = MatrixPolynomial([np.eye(2)])
        assert np.all(p.coeff(5) == 0)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            MatrixPolynomial([np.eye(2)]) + MatrixPolynomial([np.eye(3)])


class TestRingLaws:
    def test_associativity(self, rng):
        p, q, r = (rand_poly(rng) for _ in range(3))
        lhs = (p * q) * r
        rhs = p * (q * r)
        assert (lhs - rhs).max_coeff_norm() <= 1e-12 * lhs.max_coeff_norm()

    def test_distributivity(self, rng):
        p, q, r = (rand_poly(rng) for _ in range(3))
        lhs = p * (q + r)
        rhs = p * q + p * r
        assert (lhs - rhs).max_coeff_norm() <= 1e-12 * lhs.max_coeff_norm()

    def test_noncommutative(self, rng):
        p, q = rand_poly(rng), rand_poly(rng)
        assert (p * q - q * p).max_coeff_norm() > 1e-6

    def test_identity_neutral(self, rng):
        p = rand_poly(rng)
        e = MatrixPolynomial.identity(2)
        assert ((p * e) - p).max_coeff_norm() == 0
        assert ((e * p) - p).max_coeff_norm() == 0

    def test_left_right_mul(self, rng):
        p = rand_poly(rng)
        m = rng.standard_normal((2, 2))
        got = p.left_mul(m)
        assert got.degree == p.degree
        assert np.allclose(got.coeffs, [m @ c for c in p.coeffs])


class TestCalculus:
    def test_leibniz(self, rng):
        p, q = rand_poly(rng), rand_poly(rng)
        lhs = (p * q).derivative()
        rhs = p.derivative() * q + p * q.derivative()
        assert (lhs - rhs).max_coeff_norm() <= 1e-12 * lhs.max_coeff_norm()

    def test_second_derivative_of_shift(self, rng):
        p = rand_poly(rng, deg=2)
        assert (p.shift(2).derivative(2)
                - (p * MatrixPolynomial([2 * np.eye(2)])
                   + p.derivative().shift(1) * MatrixPolynomial([4 * np.eye(2)])
                   + p.derivative(2).shift(2))).max_coeff_norm() < 1e-12 * \
            p.shift(2).derivative(2).max_coeff_norm()

    def test_derivative_drops_to_zero(self):
        p = MatrixPolynomial([np.eye(2)])
        assert p.derivative().is_zero()


class TestStackRoutines:
    """``cauchy`` and ``falling`` against the per-coefficient loops of
    ``oracles``: bit for bit on floats, exactly on sympy entries."""

    @pytest.mark.parametrize("N", [2, 3, 5])
    @pytest.mark.parametrize("rows,b_rows", [(1, 1), (1, 4), (7, 2),
                                             (17, 3), (40, 40)])
    def test_float_bit_identical(self, rng, N, rows, b_rows):
        a = (rng.standard_normal((3, rows, N, N))
             + 1j * rng.standard_normal((3, rows, N, N)))
        b = (rng.standard_normal((b_rows, N, N))
             + 1j * rng.standard_normal((b_rows, N, N)))
        got = cauchy(a, b)
        wide = cauchy(a, b, out=np.ones((3, rows + b_rows + 2, N, N),
                                        dtype=complex))
        assert wide[:, :got.shape[1]].tobytes() == got.tobytes()
        assert not wide[:, got.shape[1]:].any()
        for j in range(4):
            dj = falling(a, j)
            assert dj.shape == (3, max(rows - j, 0), N, N)
        for s in range(3):
            want = np.array(cauchy_loop(list(a[s]), list(b)))
            assert got[s].tobytes() == want.tobytes()
            for j in range(4):
                want = derivative_loop(list(a[s]), j)
                assert falling(a, j)[s].tobytes() == \
                    np.array(want, dtype=complex).reshape(-1, N, N).tobytes()

    def test_packed_falling(self, rng):
        # polynomials of 3, 4 and 6 powers back to back, each with two zero
        # top powers: the packed derivatives are the derivatives of each,
        # bit for bit, in the same rows, and a nan constant, which every
        # derivative drops, leaves no nan in the row above it
        sizes, N = [3, 4, 6], 2
        polys = [rng.standard_normal((k, N, N)) for k in sizes]
        for p in polys:
            p[-2:] = 0
        powers = np.concatenate([np.arange(k) for k in sizes])
        starts = np.cumsum(sizes) - sizes
        packed = np.concatenate(polys)
        packed[starts[1]] = np.nan
        for j in range(1, 3):
            got = falling(packed, j, powers)
            assert got.shape == (sum(sizes) - j, N, N)
            for s, p, k in zip(starts, polys, sizes):
                want = np.zeros((k, N, N))
                want[:k - j] = falling(p, j)
                assert got[s:s + k][:len(got) - s].tobytes() == \
                    want[:len(got) - s].tobytes()
            assert np.isfinite(got).all()

    def test_exact(self):
        r = np.random.default_rng(5)

        def stack(*shape):
            return np.array([sp.Rational(int(v), int(w)) for v, w in
                             zip(r.integers(-9, 10, np.prod(shape)),
                                 r.integers(1, 8, np.prod(shape)))],
                            dtype=object).reshape(shape)
        a, b = stack(2, 5, 3, 3), stack(4, 3, 3)
        got = cauchy(a, b)
        assert got.dtype == object
        for s in range(2):
            want = cauchy_loop(list(a[s]), list(b))
            assert all(sp.expand(x - y) == 0
                       for x, y in zip(got[s].flat, np.array(want).flat))
            for j in range(3):
                want = np.array(derivative_loop(list(a[s]), j))
                got_j = falling(a, j)[s]
                assert got_j.dtype == object and got_j.shape == want.shape
                assert all(x == y for x, y in zip(got_j.flat, want.flat))


class TestExactBackend:
    def test_exact_arithmetic(self):
        half = sp.Rational(1, 2)
        a = np.array([[half, 0], [0, 1]], dtype=object)
        p = MatrixPolynomial([a])
        q = p * p
        assert q.coeffs[0][0, 0] == sp.Rational(1, 4)

    def test_exactness_is_the_dtype(self):
        third = sp.Rational(1, 3)
        p = MatrixPolynomial([np.array([[third, 0], [0, 1]], dtype=object)])
        assert p.exact and not MatrixPolynomial.identity(2).exact
        # a float zero does not round an exact operand
        q = MatrixPolynomial.zero(2) + p
        assert q.exact and q.coeffs[0][0, 0] == third

    def test_float_values_do_not_mix_with_exact_ones(self):
        # numpy would round 1/3 to a sympy Float and still call it exact
        third = MatrixPolynomial([[[sp.Rational(1, 3), 0], [0, 1]]])
        one = MatrixPolynomial.identity(2)
        for op in (lambda: third * one, lambda: one * third,
                   lambda: third + one, lambda: one - third,
                   lambda: third * 2.0, lambda: one * sp.Rational(1, 3),
                   lambda: cauchy(third.coeffs, one.coeffs)):
            with pytest.raises(InvalidParam, match="do not mix"):
                op()
        # Python ints and sympy numbers keep an exact operand exact
        two = MatrixPolynomial.identity(2, exact=True) * 2
        assert two.exact and two.coeffs[0][0, 0] == 2
        q = third * sp.Rational(3, 2) * MatrixPolynomial.identity(2, True)
        assert q.exact and q.coeffs[0][0, 0] == sp.Rational(1, 2)

    def test_conj_transpose_object(self):
        a = np.array([[sp.I, 1], [0, 2]], dtype=object)
        at = conj_transpose(a)
        assert at[0, 0] == -sp.I and at[1, 0] == 1

    def test_to_float(self):
        p = MatrixPolynomial([np.array([[sp.Rational(1, 4), 0], [0, 1]],
                                       dtype=object)])
        assert np.allclose(p.to_float().coeffs[0],
                           np.array([[0.25, 0], [0, 1.0]]))


class TestSerialization:
    def test_csv_round_trip(self, rng, tmp_path):
        p = rand_poly(rng)
        path = tmp_path / "p.csv"
        p.dump_csv(path)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == p.degree + 1
        # column-major entries, complex formatted as re+imi
        first = rows[0].split(",")
        assert len(first) == 1 + 4
        z = complex(first[1].replace("i", "j"))
        assert z == pytest.approx(complex(p.coeffs[0][0, 0]))
