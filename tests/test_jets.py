import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from rigidlab import jets as jt
from rigidlab.expressions import evaluate_jet, parse_expression
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


@pytest.mark.parametrize("fn,ref,dref", [
    (jt.sin, np.sin, np.cos),
    (jt.cos, np.cos, lambda u: -np.sin(u)),
    (jt.tan, np.tan, lambda u: 1.0 + np.tan(u) * np.tan(u)),
    (jt.exp, np.exp, np.exp),
    (jt.log, np.log, lambda u: 1.0 / u),
    (jt.sqrt, np.sqrt, lambda u: 0.5 / np.sqrt(u)),
    (Jet.reciprocal, lambda u: 1.0 / u, lambda u: -(1.0 / u) * (1.0 / u)),
], ids=["sin", "cos", "tan", "exp", "log", "sqrt", "reciprocal"])
def test_low_order_unary_jets_are_bitwise_the_chain_rule(fn, ref, dref):
    """At orders 0 and 1 a unary jet is f(u) and f'(u) grad u, bit for
    bit, and the order-3 jet truncated to that order."""
    pts = np.random.default_rng(21).uniform(0.1, 1.0, (64, 2))

    def argument(order):
        x, y = make_xy(pts, order)
        return x * y + 0.5 * x

    full = fn(argument(3))
    for order in (0, 1):
        u = argument(order)
        jet = fn(u)
        assert jet.value.tobytes() == ref(u.value).tobytes()
        if order:
            assert jet.grad.tobytes() == \
                (dref(u.value)[:, None] * u.grad).tobytes()
        assert jet.coef.tobytes() == full.truncate(order).coef.tobytes()


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


# -- random polynomials against exact derivatives ----------------------------

_MAX_DEGREE = 6


def _poly_mul(p, q):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(i + j for i, j in zip(a, b))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _poly_add(p, q):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0.0) + c
    return out


def _degree(p):
    return max((sum(k) for k, c in p.items() if c != 0.0), default=0)


@st.composite
def _polynomials(draw, n, depth):
    """A jet builder and the exact polynomial (exponent tuple -> coefficient)
    of a random expression in +, *, ** and reciprocal."""
    kind = draw(st.sampled_from(
        ["var", "const"] + (["+", "*", "**", "recip"] if depth else [])))
    if kind == "var":
        i = draw(st.integers(0, n - 1))
        exps = tuple(int(j == i) for j in range(n))
        return (lambda xs, i=i: xs[i]), {exps: 1.0}
    if kind == "const":
        c = draw(st.floats(-2.0, 2.0))
        return (lambda xs, c=c: Jet.constant(c, n, xs[0].order)), {(0,) * n: c}
    fa, pa = draw(_polynomials(n, depth - 1))
    if kind == "**":
        m = draw(st.integers(0, 3))
        if _degree(pa) * m > _MAX_DEGREE:
            m = 1
        pm = {(0,) * n: 1.0}
        for _ in range(m):
            pm = _poly_mul(pm, pa)
        return (lambda xs: fa(xs) ** m), pm
    if kind == "recip":
        # p q / q with q bounded away from zero on [-1, 1]^n: the
        # reciprocal enters, the function stays the polynomial p
        i = draw(st.integers(0, n - 1))
        c = draw(st.floats(-0.5, 0.5))

        def fq(xs):
            return 2.0 + c * xs[i] * xs[i]
        return (lambda xs: (fa(xs) * fq(xs)) * fq(xs).reciprocal()), pa
    fb, pb = draw(_polynomials(n, depth - 1))
    if kind == "*" and _degree(pa) + _degree(pb) <= _MAX_DEGREE:
        return (lambda xs: fa(xs) * fb(xs)), _poly_mul(pa, pb)
    return (lambda xs: fa(xs) + fb(xs)), _poly_add(pa, pb)


def _exact(poly, n, alpha, point):
    """d^alpha of the polynomial at ``point`` with numpy.polynomial."""
    coef = np.zeros((_MAX_DEGREE + 1,) * n)
    for k, c in poly.items():
        coef[k] += c
    for axis, m in enumerate(alpha):
        coef = npoly.polyder(coef, m, axis=axis)
    for x in point:
        coef = npoly.polyval(x, coef)
    return float(coef)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(st.data(), st.integers(2, 4), st.integers(0, 3))
def test_random_polynomial_jets_match_exact_derivatives(data, n, order):
    build, poly = data.draw(_polynomials(n, 3))
    point = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                                        max_size=n)))
    xs = [Jet.variable(point[i], i, n, order) for i in range(n)]
    jet = build(xs)
    # bounds every derivative of the polynomial on [-1, 1]^n
    scale = 1.0 + sum(abs(c) for c in poly.values()) * 720.0
    parts = [jet.value, jet.grad, jet.hess, jet.third]
    for d in range(order + 1):
        for idx in np.ndindex(*(n,) * d):
            alpha = tuple(idx.count(i) for i in range(n))
            assert parts[d][idx] == pytest.approx(
                _exact(poly, n, alpha, point), abs=1e-12 * scale)
    for low in range(order + 1):
        cut = jet.truncate(low)
        for d in range(low + 1):
            assert np.array_equal(_parts(cut)[d], parts[d])
        assert all(p is None for p in _parts(cut)[low + 1:])
    for i in range(n if order else 0):
        dv = derivative_view(jet, i)
        views = [dv.value, dv.grad, dv.hess]
        for d in range(order):
            np.testing.assert_allclose(views[d], np.take(parts[d + 1], i, 0),
                                       rtol=1e-14, atol=0)


def test_sphere_jets_do_not_depend_on_the_batch():
    comp = parse_expression("cos(x1)*cos(x2)", 2)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3.0, 3.0, (100000, 2))
    batch = evaluate_jet(comp, pts, order=3)
    # both sides of the first product block boundaries, and the last point
    block = max(jt._BLOCK // len(jt._product_table(2, 3)[0]), 1)
    for k in (0, block - 1, block, 2 * block + 1, len(pts) - 1):
        alone = evaluate_jet(comp, pts[k:k + 1], order=3)
        for a, b in zip(_parts(alone), _parts(batch)):
            assert a[0].tobytes() == b[k].tobytes()


def _same_jet(a, b):
    return a.coef.shape == b.coef.shape and a.coef.tobytes() == b.coef.tobytes()


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_frame_algebra_on_object_arrays_is_the_jet_arithmetic(n, order):
    """cofactor, contract and stacked take object arrays of jets, whose
    elementwise *, + and - are the jet product, sum and difference: each
    result is bitwise the same arithmetic written out by hand."""
    from rigidlab.linalg import cofactor, contract
    pts = np.random.default_rng(17).uniform(-1.0, 1.0, (6, 2))
    x, y = make_xy(pts, order)
    m = np.empty((n, n), dtype=object)
    for i, j in np.ndindex(n, n):
        m[i, j] = jt.sin(x * (i + 1.0) + y * (j - 0.5)) + x * y * (i - j)
    det, adj = cofactor(m)

    def minor(rows, cols):                 # 2x2, along its first row
        (r0, r1), (c0, c1) = rows, cols
        return m[r0, c0] * m[r1, c1] - m[r0, c1] * m[r1, c0]

    def others(k):
        return [t for t in range(n) if t != k]

    if n == 2:
        want_det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        want_adj = [[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]
    else:
        want_det = (m[0, 0] * minor((1, 2), (1, 2))
                    - m[0, 1] * minor((1, 2), (0, 2))
                    + m[0, 2] * minor((1, 2), (0, 1)))
        want_adj = [[minor(others(j), others(i)) * (-1.0) ** (i + j)
                     for j in range(n)] for i in range(n)]
    assert _same_jet(det, want_det)
    assert adj.shape == (n, n) and adj.dtype == object
    assert all(_same_jet(adj[i, j], want_adj[i][j])
               for i, j in np.ndindex(n, n))

    v = m[:, 0] * m[:, -1]
    prod = contract("...ij,...jk->...ik", m, m)
    pair = contract("...ij,...j->...i", m, v)
    for i, k in np.ndindex(n, n):
        want = m[i, 0] * m[0, k]
        for j in range(1, n):
            want = want + m[i, j] * m[j, k]
        assert _same_jet(prod[i, k], want)
    for i in range(n):
        want = m[i, 0] * v[0]
        for j in range(1, n):
            want = want + m[i, j] * v[j]
        assert _same_jet(pair[i], want)

    for arrays, lists in zip(jt.stacked(m, range(order + 1)),
                             jt.stacked(m.tolist(), range(order + 1))):
        assert arrays.shape == lists.shape
        assert arrays.strides == lists.strides
        assert arrays.tobytes() == lists.tobytes()
    value, grad = jt.stacked(m, (0, 1))
    assert value.shape == (6, n, n) and grad.shape == (6, n, n, 2)
    assert np.array_equal(value[:, 1, 0], m[1, 0].value)
    assert np.array_equal(grad[:, 0, 1], m[0, 1].grad)
