"""Generate the high-precision reference values frozen into the test suite.

Everything here is computed with mpmath at 50 significant digits, straight
from the defining formulas (or from independent numerics: quadrature,
argmax search) — never by importing the package under test. Run
`python tools/make_oracles.py` and paste the printed literals.
"""

import mpmath as mp

mp.mp.dps = 50


def a_minus(beta, t):
    rb = mp.sqrt(beta)
    return rb * mp.coth((1 - t) * rb)


def b_minus(beta, t):
    rb = mp.sqrt(beta)
    return rb / mp.sinh((1 - t) * rb)


def log_c_minus(beta, t):
    # per-dimension log normalizer
    rb = mp.sqrt(beta)
    return mp.log(2 * mp.pi * mp.sinh((1 - t) * rb) / rb) / 2


def a_plus(beta, t):
    rb = mp.sqrt(beta)
    return rb * mp.coth(t * rb)


def b_plus(beta, t):
    rb = mp.sqrt(beta)
    return rb / mp.sinh(t * rb)


def log_c_plus(beta, t):
    rb = mp.sqrt(beta)
    return mp.log(2 * mp.pi * mp.sinh(t * rb) / rb) / 2


def log_g_minus(beta, t, x, y):
    x = [mp.mpf(v) for v in x]
    y = [mp.mpf(v) for v in y]
    d = len(x)
    sx = sum(v * v for v in x)
    sy = sum(v * v for v in y)
    xy = sum(a * b for a, b in zip(x, y))
    return -a_minus(beta, t) / 2 * (sx + sy) + b_minus(beta, t) * xy - d * log_c_minus(beta, t)


def log_g_plus(beta, t, x, y):
    x = [mp.mpf(v) for v in x]
    y = [mp.mpf(v) for v in y]
    d = len(x)
    sx = sum(v * v for v in x)
    sy = sum(v * v for v in y)
    xy = sum(a * b for a, b in zip(x, y))
    return -a_plus(beta, t) / 2 * (sx + sy) + b_plus(beta, t) * xy - d * log_c_plus(beta, t)


def log_ratio(beta, t, x, y):
    zeros = [mp.mpf(0)] * len(y)
    return log_g_minus(beta, t, x, y) - log_g_plus(beta, 1, y, zeros)


def probe(beta, t):
    # precision h(t) and the mean denominator D(t) with mean = x / D
    rb = mp.sqrt(beta)
    h = rb * (mp.coth((1 - t) * rb) - mp.coth(rb))
    den = mp.cosh((1 - t) * rb) - mp.sinh((1 - t) * rb) * mp.coth(rb)
    return h, den


def show(label, value):
    print(f"{label} = {mp.nstr(value, 22)}")


print("# scalar kernels ------------------------------------------------")
show("log_g_minus(beta=1, d=1, t=0, x=0, y=0)", log_g_minus(1, 0, [0], [0]))
show("log_g_minus(beta=2, d=2, t=0.35, x=(0.4,-1.1), y=(0.9,0.3))",
     log_g_minus(2, mp.mpf("0.35"), ["0.4", "-1.1"], ["0.9", "0.3"]))
show("log_g_plus(beta=1, d=1, t=1, x=1, y=0)", log_g_plus(1, 1, [1], [0]))
show("log_g_plus(beta=1.3, d=2, t=0.8, x=(0.2,0.5), y=(-0.7,1.1))",
     log_g_plus(mp.mpf("1.3"), mp.mpf("0.8"), ["0.2", "0.5"], ["-0.7", "1.1"]))
show("log_ratio(beta=1.5, d=1, t=0.45, x=0.8, y=-0.6)",
     log_ratio(mp.mpf("1.5"), mp.mpf("0.45"), ["0.8"], ["-0.6"]))
show("log_ratio(beta=1.5, d=1, t=0.45, x=0, y=0)",
     log_ratio(mp.mpf("1.5"), mp.mpf("0.45"), ["0"], ["0"]))

print("# drift prefactors ----------------------------------------------")
show("c1(beta=1, t=0)", b_minus(1, 0))
show("c2(beta=1, t=0)", mp.cosh(1))
show("c1(beta=2.7, t=0.62)", b_minus(mp.mpf("2.7"), mp.mpf("0.62")))
show("c2(beta=2.7, t=0.62)", mp.cosh((1 - mp.mpf("0.62")) * mp.sqrt(mp.mpf("2.7"))))

print("# universal probe -----------------------------------------------")
h, den = probe(1, mp.mpf("0.5"))
show("probe mean(beta=1, t=0.5, x=1)", 1 / den)
show("probe precision(beta=1, t=0.5)", h)

# independent check: maximize the log-ratio in y at (beta=1, t=0.5, x=1)
f = lambda y: log_ratio(1, mp.mpf("0.5"), [mp.mpf(1)], [y])
ystar = mp.findroot(lambda y: mp.diff(f, y), mp.mpf("1.5"))
show("probe mean via argmax of the ratio (must match)", ystar)
d2 = -mp.diff(f, ystar, 2)
show("probe precision via -f''(y*) (must match)", d2)

print("# gaussian-target control closed form ---------------------------")
# E(y) = |y|^2/(2 s2); u = (c1^2/(h + 1/s2) - c1*c2) * x ; checked by quadrature
beta, t, s2, x = mp.mpf("0.8"), mp.mpf("0.45"), mp.mpf("0.6"), mp.mpf("0.7")
h, den = probe(beta, t)
c1 = b_minus(beta, t)
c2 = mp.cosh((1 - t) * mp.sqrt(beta))
u_closed = (c1 * c1 / (h + 1 / s2) - c1 * c2) * x
show("u(beta=0.8, s2=0.6, t=0.45, x=0.7) closed form", u_closed)

# split points keep the quadrature nodes near the integrand's bump
pts = [-30, -1, 0, 1, 2, 30]
num = mp.quad(lambda y: y * mp.exp(-y * y / (2 * s2) + log_ratio(beta, t, [x], [y])), pts)
dnm = mp.quad(lambda y: mp.exp(-y * y / (2 * s2) + log_ratio(beta, t, [x], [y])), pts)
xhat = num / dnm
u_quad = c1 * (xhat - c2 * x)
show("u same point via mpmath quadrature (must match)", u_quad)

print("# empirical softmax reference -----------------------------------")
beta, t, x = mp.mpf("1.2"), mp.mpf("0.35"), mp.mpf("0.4")
ys = [mp.mpf("-2.0"), mp.mpf("0.5"), mp.mpf("3.0")]
ells = [log_ratio(beta, t, [x], [y]) for y in ys]
m = max(ells)
ws = [mp.exp(e - m) for e in ells]
tot = sum(ws)
ws = [w / tot for w in ws]
for i, w in enumerate(ws):
    show(f"w[{i}](beta=1.2, t=0.35, x=0.4, ys=(-2,0.5,3))", w)
xhat = sum(w * y for w, y in zip(ws, ys))
show("xhat", xhat)
c1 = b_minus(beta, t)
c2 = mp.cosh((1 - t) * mp.sqrt(beta))
show("drift", c1 * (xhat - c2 * x))

print("# beta=0 sanity: u for N(0, s2=1/2) must equal -x/(2-t) ---------")
t, x = mp.mpf("0.3"), mp.mpf("1.2")
s2 = mp.mpf("0.5")
h = t / (1 - t)
c1 = 1 / (1 - t)
u = (c1 * c1 / (h + 1 / s2) - c1) * x
show("u(beta=0, s2=0.5, t=0.3, x=1.2)", u)
show("-x/(2-t)", -x / (2 - t))
