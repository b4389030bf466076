"""Metamorphic relations from the paper's definitions, on drawn pairs.

Each pair is drawn like the growing benchmark pool: f and g are products of
one to three factors ``(x - c1*y^e1 - c2*y^e2)`` with c in {-2, -1, 1, 2}
and 1 <= e <= 4, and all roots of f*g are distinct.

- Swapping f and g negates the Jacobian and keeps the field, the verdict,
  the polar x-order and the multiset of (height, predicted total, m, n)
  over the bars.
- The coordinate change x -> x + phi(y), phi = 2*y - 1/3*y^2, has Jacobian
  determinant 1, so J(f o Phi, g o Phi) = J(f, g) o Phi; every root moves
  by the same series, so every contact order, bar height and prediction
  stays the same.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from polartree import analyze_pair, parse_expression

PHI = "(x + 2*y - 1/3*y^2)"

_coefficient = st.sampled_from((-2, -1, 1, 2))


@st.composite
def _root(draw) -> tuple[tuple[int, int], ...]:
    exponents = sorted(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True)))
    return tuple((e, draw(_coefficient)) for e in exponents)


def _factor(root) -> str:
    return "(x" + "".join(f" - ({c})*y^{e}" for e, c in root) + ")"


@st.composite
def pairs(draw) -> tuple[str, str]:
    roots = draw(st.lists(_root(), min_size=2, max_size=6, unique=True))
    split = draw(st.integers(max(1, len(roots) - 3), min(3, len(roots) - 1)))
    return "*".join(map(_factor, roots[:split])), "*".join(map(_factor, roots[split:]))


def _invariants(run):
    bars = Counter((bar.height, run.analyses[bar.id].predicted_total,
                    run.analyses[bar.id].m, run.analyses[bar.id].n)
                   for bar in run.tree.finite_bars())
    return run.field.conductor, run.verification.passed, run.oracle.x_order, bars


@settings(derandomize=True, max_examples=100, deadline=None)
@given(pairs())
def test_swapping_f_and_g_negates_the_jacobian_and_keeps_the_counts(pair):
    f, g = pair
    run, swapped = analyze_pair(f, g), analyze_pair(g, f)
    assert swapped.oracle.jac == -run.oracle.jac
    assert _invariants(swapped) == _invariants(run)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(pairs())
def test_a_shift_of_x_by_a_series_in_y_keeps_the_counts(pair):
    f, g = pair
    run = analyze_pair(f, g)
    moved = analyze_pair(f.replace("x", PHI), g.replace("x", PHI))
    assert moved.oracle.jac == parse_expression(str(run.oracle.jac).replace("x", PHI), moved.field)
    assert _invariants(moved) == _invariants(run)
