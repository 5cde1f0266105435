"""Tests for the linear structure shared by the four element kinds.

Covers the kind and basis checks of ``+``/``-``, pickling, immutability, and
the linearity of every function that extends a per-key map linearly.
"""
import itertools
import pickle

import pytest

from cuspline.classical import (
    ClassElt,
    CoStGenSymbol,
    CuspSymbol,
    StGenSymbol,
    gl_jacquet,
    induced,
    module_comult,
)
from cuspline.core import MixedBasisError, ms, seg
from cuspline.glhopf import (
    comult,
    delta_as_zeta,
    delta_key,
    derivative,
    zeta_as_delta,
    zeta_key,
)
from cuspline.halfint import hi


def one_of_each_kind():
    m = ms(seg(1, 1))
    y = ClassElt.cusp() + induced(m, CuspSymbol())
    return {
        "ring": delta_key(m),
        "ring tensor": comult(delta_key(ms(seg(0, 1)))),
        "module": y,
        "module tensor": module_comult(y),
    }


KINDS = ("ring", "ring tensor", "module", "module tensor")


class TestKinds:
    @pytest.mark.parametrize("left,right", list(itertools.permutations(KINDS, 2)))
    def test_add_and_sub_need_one_kind(self, left, right):
        values = one_of_each_kind()
        a, b = values[left], values[right]
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b

    def test_same_kind_other_basis_is_mixed_basis(self):
        d = comult(delta_key(ms(seg(0, 1))))
        z = comult(zeta_key(ms(seg(0, 1))))
        with pytest.raises(MixedBasisError):
            d + z
        with pytest.raises(MixedBasisError):
            d - z

    def test_zeros_of_different_kinds_differ(self):
        zeros = {kind: 0 * x for kind, x in one_of_each_kind().items()}
        for left, right in itertools.permutations(KINDS, 2):
            assert zeros[left] != zeros[right]

    @pytest.mark.parametrize("kind", KINDS)
    def test_pickle_round_trip(self, kind):
        x = one_of_each_kind()[kind]
        back = pickle.loads(pickle.dumps(x))
        assert type(back) is type(x)
        assert back == x
        assert back.basis == x.basis
        assert str(back) == str(x)
        assert back.to_jsonable() == x.to_jsonable()

    @pytest.mark.parametrize("kind", KINDS)
    def test_immutable_and_unhashable(self, kind):
        x = one_of_each_kind()[kind]
        with pytest.raises(AttributeError):
            x.terms = x.terms
        with pytest.raises(TypeError):
            hash(x)


# ---------------------------------------------------------------------------
# Linearity: f(3a - b + c - c) against 3 f(a) - f(b), added up key by key
# ---------------------------------------------------------------------------

def _keys(make, *keys):
    return [make(ms(*k)) for k in keys]


# Each case: the function and three single-key inputs a, b, c.  The images
# of a and b share keys (checked below), so the combination has to add up.
RING_KEYS = (
    (seg(0, 1),),
    (seg(0, 0), seg(1, 1)),
    (seg(2, 2), seg(0, 1)),
)
ST = StGenSymbol("rho", hi(1), 0)
COST = CoStGenSymbol("rho", hi(1), 1)
CASES = {
    "comult-delta": (comult, _keys(delta_key, *RING_KEYS)),
    "comult-zeta": (comult, _keys(zeta_key, *RING_KEYS)),
    "zeta_as_delta": (zeta_as_delta, _keys(zeta_key, *RING_KEYS)),
    "delta_as_zeta": (delta_as_zeta, _keys(delta_key, *RING_KEYS)),
    "derivative": (derivative, _keys(zeta_key, *RING_KEYS)),
    "module_comult": (
        module_comult,
        [
            induced(ms(seg(1, 1)), ST),
            induced(ms(seg(-1, -1)), ST),
            induced(ms(seg(2, 2)), COST),
        ],
    ),
    "gl_jacquet": (
        gl_jacquet,
        [
            induced(ms(seg(1, 2)), CuspSymbol()),
            induced(ms(seg(-1, -1), seg(2, 2)), CuspSymbol()),
            induced(ms(seg(1, 1)), CuspSymbol()),
        ],
    ),
}


def key_by_key(f, pieces):
    """The sum of scale * f(x) over (scale, x), added up key by key."""
    out = {}
    for scale, x in pieces:
        for k, c in f(x).terms.coeffs.items():
            out[k] = out.get(k, 0) + scale * c
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("name", sorted(CASES))
class TestLinearity:
    def test_combination_matches_key_by_key(self, name):
        f, (a, b, c) = CASES[name]
        x = 3 * a - b + c - c
        assert len(x.terms) == 2  # the multi-key path, c cancelled
        assert set(f(a).terms.coeffs) & set(f(b).terms.coeffs)
        got = f(x)
        assert got.terms.coeffs == key_by_key(f, [(3, a), (-1, b)])
        assert got.basis == f(a).basis
        assert type(got) is type(f(a))

    def test_zero_maps_to_zero(self, name):
        f, (a, _, _) = CASES[name]
        got = f(a - a)
        assert not got.terms
        assert got == 0 * f(a)

