"""The number representation of ``repro.poly``: ``int`` when integral.

An exact number is canonical -- a plain ``int`` when integral, a
``Fraction`` only when its denominator is > 1 -- and a ``float`` never
enters.  Four angles:

(i)   a seeded differential test of expression arithmetic and constraint
      normalisation against a ``Fraction``-only model (the representation
      this replaced): equal values, equal hashes, equal coefficient order;
(ii)  ``ratio``, the one exact division;
(iii) an artefact walk: every number the compiler leaves behind in a
      ``FrontEnd`` and a ``CompileResult`` is canonical and none is a float;
(iv)  the pickle of an all-integral kernel's ``FrontEnd`` never mentions
      the ``fractions`` module.
"""

import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from repro.core import diskcache
from repro.core.compiler import AkgOptions, build
from repro.core.frontend import run_frontend
from repro.graph.subgraphs import paper_subgraphs
from repro.ir import ops
from repro.ir.tensor import placeholder
from repro.poly.affine import AffineExpr, Constraint, canonical, ratio


def is_canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


# -- (i) differential test against a Fraction-only model -----------------------


class Model:
    """What ``AffineExpr`` was: every number a ``Fraction``."""

    def __init__(self, coeffs, const):
        self.coeffs = {n: Fraction(c) for n, c in coeffs.items() if c != 0}
        self.const = Fraction(const)

    @staticmethod
    def _merge(coeffs, terms):
        for name, c in terms:
            c = coeffs.get(name, Fraction(0)) + c
            if c == 0:
                coeffs.pop(name, None)
            else:
                coeffs[name] = c

    def add(self, other):
        out = Model(self.coeffs, self.const + other.const)
        self._merge(out.coeffs, other.coeffs.items())
        return out

    def neg(self):
        return Model({n: -c for n, c in self.coeffs.items()}, -self.const)

    def mul(self, factor):
        factor = Fraction(factor)
        return Model({n: c * factor for n, c in self.coeffs.items()}, self.const * factor)

    def rename(self, mapping):
        out = Model({}, self.const)
        self._merge(out.coeffs, ((mapping.get(n, n), c) for n, c in self.coeffs.items()))
        return out

    def substitute(self, env):
        out = Model({}, self.const)
        for name, c in self.coeffs.items():
            if name not in env:
                self._merge(out.coeffs, [(name, c)])
            elif isinstance(env[name], Model):
                self._merge(out.coeffs, ((n, rc * c) for n, rc in env[name].coeffs.items()))
                out.const += env[name].const * c
            else:
                out.const += Fraction(env[name]) * c
        return out

    def normalized(self, is_equality):
        scale = lcm(self.const.denominator, *[c.denominator for c in self.coeffs.values()])
        coeffs = {n: c * scale for n, c in self.coeffs.items()}
        const = self.const * scale
        g = gcd(*[c.numerator for c in coeffs.values()])
        if is_equality and g > 1 and const.numerator % g != 0:
            g = 1
        if g > 1:
            coeffs = {n: c / g for n, c in coeffs.items()}
            const = Fraction(const.numerator // g)
        return Model(coeffs, const)

    def __hash__(self):
        return hash((tuple(sorted(self.coeffs.items())), self.const))


def _assert_same(expr, model):
    assert list(expr.coeffs.items()) == list(model.coeffs.items())  # values and order
    assert expr.const == model.const
    assert hash(expr) == hash(model)
    assert all(map(is_canonical, (*expr.coeffs.values(), expr.const)))


NAMES = "abcde"
SCALARS = [-3, -1, 0, 1, 2, 3, 6, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(4, 2)]


def _random_pair(rng):
    coeffs = {n: rng.choice(SCALARS) for n in rng.sample(NAMES, rng.randint(0, 4))}
    const = rng.choice(SCALARS)
    return AffineExpr(coeffs, const), Model(coeffs, const)


@pytest.mark.parametrize("seed", range(20))
def test_arithmetic_matches_the_fraction_model(seed):
    rng = random.Random(seed)
    pool = [_random_pair(rng) for _ in range(4)]
    for _ in range(40):
        (e, m), (e2, m2) = rng.choice(pool), rng.choice(pool)
        op = rng.choice(["add", "sub", "neg", "mul", "rename", "subst", "subst_num", "scalar"])
        if op == "add":
            got = e + e2, m.add(m2)
        elif op == "sub":
            got = e - e2, m.add(m2.neg())
        elif op == "neg":
            got = -e, m.neg()
        elif op == "mul":
            k = rng.choice(SCALARS)
            got = e * k, m.mul(k)
        elif op == "rename":
            mapping = {rng.choice(NAMES): rng.choice(NAMES) for _ in range(2)}
            got = e.rename(mapping), m.rename(mapping)
        elif op == "subst":
            name = rng.choice(NAMES)
            got = e.substitute({name: e2}), m.substitute({name: m2})
        elif op == "subst_num":
            env = {rng.choice(NAMES): rng.choice(SCALARS)}
            got = e.substitute(env), m.substitute(env)
        else:
            k = rng.choice(SCALARS)
            got = k - e + k, m.neg().add(Model({}, 2 * Fraction(k)))
        _assert_same(*got)
        pool.append(got)
        for is_equality in (False, True):
            _assert_same(Constraint(got[0], is_equality).expr, got[1].normalized(is_equality))
        env = {n: rng.choice(SCALARS) for n in NAMES}
        value = got[0].evaluate(env)
        assert value == got[1].substitute(env).const and is_canonical(value)


def test_floats_are_rejected_where_numbers_enter():
    e = AffineExpr({"i": 2}, 1)
    for bad in (
        lambda: AffineExpr({"i": 0.1}),
        lambda: AffineExpr({"i": 0.0}),
        lambda: AffineExpr({}, 1.0),
        lambda: e + 0.5,
        lambda: e - 0.5,
        lambda: 0.5 - e,
        lambda: e * 0.5,
        lambda: e * (1 / 2),
        lambda: e.substitute({"i": 2.0}),
        lambda: e.evaluate({"i": 0.5}),
        lambda: Constraint.ge(e, 1.5),
        lambda: canonical(3.0),
        lambda: ratio(1.0, 2),
    ):
        with pytest.raises(TypeError):
            bad()


# -- (ii) ratio ----------------------------------------------------------------


@pytest.mark.parametrize(
    "a, b, want",
    [
        (7, 1, 7),
        (7, -1, -7),
        (-1, -1, 1),
        (12, 4, 3),
        (-12, 4, -3),
        (12, -4, -3),
        (0, 5, 0),
        (1, 2, Fraction(1, 2)),
        (-1, 2, Fraction(-1, 2)),
        (1, -2, Fraction(-1, 2)),
        (6, 4, Fraction(3, 2)),
        (Fraction(3, 2), 3, Fraction(1, 2)),
        (Fraction(3, 2), Fraction(1, 2), 3),
        (3, Fraction(3, 2), 2),
        (Fraction(4, 2), 2, 1),
        (True, 1, 1),
    ],
)
def test_ratio(a, b, want):
    got = ratio(a, b)
    assert got == want and type(got) is type(want) and is_canonical(got)


def test_ratio_by_zero():
    with pytest.raises(ZeroDivisionError):
        ratio(1, 0)


# -- (iii) artefact walk ---------------------------------------------------------

# Where exact numbers do not live: tensor-expression constants
# (``scalar_mul(x, 1.5)``), hardware parameters, wall-clock records.
_OPAQUE = ("repro.ir.tensor", "repro.ir.expr", "repro.hw", "repro.core.resilience", "numpy")


def _numbers(root):
    """Every number reachable from ``root`` outside the ``_OPAQUE`` modules,
    with how many ``AffineExpr`` objects were passed on the way."""
    numbers, exprs, seen, stack = [], 0, set(), [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (int, float, Fraction)):
            numbers.append(obj)
            continue
        if obj is None or isinstance(obj, (str, bytes, type)) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif not type(obj).__module__.startswith(_OPAQUE):
            exprs += isinstance(obj, AffineExpr)
            stack.extend(getattr(obj, "__dict__", {}).values())
            for klass in type(obj).__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    stack.append(getattr(obj, slot, None))
    return numbers, exprs


def _conv2d():
    d = placeholder((1, 4, 8, 8), "fp16", name="D")
    w = placeholder((4, 4, 3, 3), "fp16", name="W")
    return ops.conv2d(d, w, stride=(1, 1), padding=(1, 1), name="out")


def _matmul():
    a = placeholder((16, 16), "fp16", name="A")
    b = placeholder((16, 16), "fp16", name="B")
    return ops.matmul(a, b, name="out")


def _softmax():
    return ops.softmax_last_axis(placeholder((8, 16), "fp16", name="X"), name="out")


KERNELS = {
    "conv2d": _conv2d,
    "matmul": _matmul,
    "softmax": _softmax,
    **{f"subgraph{s.index}": s.build for s in paper_subgraphs() if s.index <= 5},
}


@pytest.mark.parametrize("name", KERNELS)
def test_compiler_artefacts_hold_canonical_numbers(name):
    with diskcache.disabled():
        frontend = run_frontend(KERNELS[name](), name)
        result = build(KERNELS[name](), name, options=AkgOptions(emit_trace=True))
    artefacts = {
        "frontend": frontend,
        "deps": result.deps,
        "schedule tree": result.tree,
        "accesses": [(s.domain(), s.write, s.reads) for s in result.kernel.statements],
        "storage plans": result.plans,
        "result": result,
    }
    for label, root in artefacts.items():
        numbers, exprs = _numbers(root)
        assert numbers and (exprs or label == "storage plans"), label
        bad = [x for x in numbers if not (is_canonical(x) or type(x) is bool)]
        assert not bad, f"{label}: {bad[:5]}"


# -- (iv) pickles ----------------------------------------------------------------


def test_integral_frontend_pickles_without_fractions():
    with diskcache.disabled():
        frontend = run_frontend(_matmul(), "pickled")
    payload = pickle.dumps(frontend, protocol=pickle.HIGHEST_PROTOCOL)
    assert b"fractions" not in payload
    # The probe does see a Fraction when there is one.
    assert b"fractions" in pickle.dumps(AffineExpr({"i": Fraction(1, 2)}))
    clone = pickle.loads(payload)
    assert [d.relation.constraints for d in clone.deps] == [
        d.relation.constraints for d in frontend.deps
    ]
