import numpy as np
import pytest

from rigidlab import jets as jt
from rigidlab.jets import Jet, JetDomainError, derivative_view


def make_xy(point, order=3):
    x = Jet.variable(np.asarray(point)[..., 0], 0, 2, order)
    y = Jet.variable(np.asarray(point)[..., 1], 1, 2, order)
    return x, y


def test_polynomial_jet_exact():
    x, y = make_xy([2.0, -1.0])
    f = x**3 * y + y**2   # f = x^3 y + y^2
    assert f.value == pytest.approx(-7.0)
    assert f.grad == pytest.approx([3 * 4 * (-1.0), 8.0 + (-2.0)])
    assert f.hess[0, 0] == pytest.approx(6 * 2 * (-1.0))
    assert f.hess[0, 1] == pytest.approx(12.0)
    assert f.hess[1, 1] == pytest.approx(2.0)
    assert f.third[0, 0, 0] == pytest.approx(-6.0)
    assert f.third[0, 0, 1] == pytest.approx(12.0)


def test_product_rule_matches_manual_leibniz():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, (7, 2))
    x, y = make_xy(pts)
    a = jt.sin(x) + y * y
    b = jt.exp(y) * x
    prod = a * b
    assert prod.hess == pytest.approx(
        a.value[..., None, None] * b.hess
        + b.value[..., None, None] * a.hess
        + a.grad[..., :, None] * b.grad[..., None, :]
        + a.grad[..., None, :] * b.grad[..., :, None])
    # full symmetry of the third-order block
    t = prod.third
    for perm in [(0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)]:
        assert t == pytest.approx(np.transpose(t, perm))


@pytest.mark.parametrize("fn,ref,dref", [
    (jt.sin, np.sin, np.cos),
    (jt.cos, np.cos, lambda u: -np.sin(u)),
    (jt.exp, np.exp, np.exp),
    (jt.tan, np.tan, lambda u: 1.0 / np.cos(u) ** 2),
])
def test_unary_chain_rule(fn, ref, dref):
    x, y = make_xy([0.4, 0.2])
    u = x * y + x
    g = fn(u)
    assert g.value == pytest.approx(ref(u.value))
    assert g.grad == pytest.approx(dref(u.value) * u.grad)


def test_division_and_negative_powers():
    x, _ = make_xy([2.0, 1.0])
    inv = 1.0 / x
    powm = x ** -1
    assert inv.value == pytest.approx(0.5)
    assert inv.grad[0] == pytest.approx(-0.25)
    assert inv.hess[0, 0] == pytest.approx(0.25)
    assert inv.third[0, 0, 0] == pytest.approx(-0.375)
    assert powm.value == pytest.approx(inv.value)
    assert powm.third == pytest.approx(inv.third)


def test_third_order_finite_difference_cross_check():
    def f(p):
        return np.exp(np.sin(p[..., 0])) * np.cos(p[..., 1]) + p[..., 0] ** 3

    p0 = np.array([0.31, -0.47])
    x, y = make_xy(p0)
    jet = jt.exp(jt.sin(x)) * jt.cos(y) + x ** 3
    h = 1e-3
    for i in range(2):
        for j in range(2):
            for k in range(2):
                val = 0.0
                for si in (1, -1):
                    for sj in (1, -1):
                        for sk in (1, -1):
                            q = p0.copy()
                            q[i] += si * h
                            q[j] += sj * h
                            q[k] += sk * h
                            val += si * sj * sk * f(q)
                fd = val / (8 * h ** 3)
                assert jet.third[i, j, k] == pytest.approx(fd, abs=5e-5)


def test_domain_errors():
    x, _ = make_xy([-1.0, 0.0])
    with pytest.raises(JetDomainError):
        jt.log(x)
    with pytest.raises(JetDomainError):
        jt.sqrt(x)
    zero = Jet.constant(0.0, 2, 3)
    with pytest.raises(JetDomainError):
        zero ** -2
    with pytest.raises(JetDomainError):
        x / zero
    with pytest.raises(TypeError):
        x ** 0.5


def test_truncate_and_derivative_view():
    x, y = make_xy([0.7, 0.3])
    f = jt.sin(x * y)
    low = f.truncate(1)
    assert low.order == 1 and low.hess is None
    dx = derivative_view(f, 0)
    assert dx.order == 2
    assert dx.value == pytest.approx(f.grad[0])
    assert dx.grad == pytest.approx(f.hess[0])
    assert dx.hess == pytest.approx(f.third[0])


def _parts(jet):
    return [jet.value, jet.grad, jet.hess, jet.third]


@pytest.mark.parametrize("c", [2.5, -3, np.float64(0.7), np.array(-1.25)])
def test_scalar_arithmetic_is_bitwise_the_product_rule(c):
    rng = np.random.default_rng(11)
    x, y = make_xy(rng.uniform(-1, 1, (9, 2)))
    f = jt.exp(x) * jt.sin(y) + x * x * y
    k = Jet.constant(c, 2, 3, batch_shape=f.value.shape)
    pairs = [(f * c, f * k), (c * f, k * f), (f + c, f + k), (c + f, k + f),
             (f - c, f - k), (c - f, k - f), (f / c, f * k.reciprocal()),
             (c / f, k * f.reciprocal())]
    for fast, slow in pairs:
        for a, b in zip(_parts(fast), _parts(slow)):
            assert a.tobytes() == b.tobytes()
        # the result owns its arrays
        for a, b in zip(_parts(fast), _parts(f)):
            assert not np.shares_memory(a, b)
    with pytest.raises(JetDomainError):
        f / 0
