"""Tests for the classical-side symbols and the module comultiplication."""
import copy
import dataclasses
import gc
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from cuspline import classical, clear_caches, sampling
from cuspline.core import (
    Context,
    EMPTY_MS,
    FormalSum,
    Line,
    Multisegment,
    Segment,
    ms,
)
from cuspline.classical import (
    ClassElt,
    CoStGenSymbol,
    CuspSymbol,
    DatumError,
    DeltaPM,
    IndTemp,
    InducedSymbol,
    LanglandsDatum,
    NotCuspidalBaseError,
    StGenSymbol,
    TauPM,
    TempBase,
    TensorClass,
    contragredient_datum,
    dominates,
    dual_sigma,
    exponent_vector,
    gl_jacquet,
    identify_point_of_reducibility,
    induced,
    module_comult,
    module_comult_base,
    mult_in,
    rtimes,
)
from cuspline.glhopf import comult, delta_key, twisted_comult, zeta_key
from cuspline.halfint import HalfInt, hi
from cuspline.jantzen import transport_class


def seg(b, e, line="rho"):
    return Segment(hi(b), hi(e), line)


def pairs(t: TensorClass):
    return {(str(l), str(r)): c for (l, r), c in t.terms.coeffs.items()}


CUSP = InducedSymbol(EMPTY_MS, CuspSymbol())


def atom(base) -> InducedSymbol:
    return InducedSymbol(EMPTY_MS, base)


def tsum(*entries):
    """Build a FormalSum over (left, right) pair keys; entries are
    (left, right) or (left, right, coeff)."""
    out = FormalSum.zero()
    for entry in entries:
        l, r = entry[0], entry[1]
        c = entry[2] if len(entry) > 2 else 1
        out = out + FormalSum.lift((l, r), c)
    return out


class TestBaseSymbols:
    def test_degrees(self):
        assert CuspSymbol().degree == 0
        assert StGenSymbol("rho", hi("1/2"), 2).degree == 3
        assert CoStGenSymbol("rho", hi(1), 0).degree == 1

    def test_distinct_atoms(self):
        a = StGenSymbol("rho", hi(1), 0)
        b = CoStGenSymbol("rho", hi(1), 0)
        assert a != b
        assert a.support() == b.support() == {("rho", hi(1)): 1}

    def test_negative_n_rejected(self):
        with pytest.raises(DatumError):
            StGenSymbol("rho", hi(0), -1)
        with pytest.raises(DatumError):
            CoStGenSymbol("rho", hi(0), -1)

    def test_induced_symbol_support_and_degree(self):
        sym = InducedSymbol(ms(seg(0, 1)), StGenSymbol("rho", hi(1), 1))
        assert sym.degree == 4
        assert sym.support() == {
            ("rho", hi(0)): 1,
            ("rho", hi(1)): 2,
            ("rho", hi(2)): 1,
        }


class TestRtimes:
    def test_merges_gl_parts(self):
        x = delta_key(ms(seg(0, 1)))
        y = induced(ms(seg(2, 2)), CuspSymbol())
        out = rtimes(x, y)
        assert out.terms == FormalSum.lift(
            InducedSymbol(ms(seg(0, 1), seg(2, 2)), CuspSymbol())
        )

    def test_requires_delta_semantics(self):
        with pytest.raises(NotCuspidalBaseError):
            rtimes(zeta_key(ms(seg(0, 0))), ClassElt.cusp())

    def test_bilinear(self):
        x = delta_key(ms(seg(0, 0))) + delta_key(ms(seg(1, 1)))
        y = ClassElt.cusp() + induced(ms(seg(2, 2)), CuspSymbol())
        out = rtimes(x, y)
        assert sum(out.terms.coeffs.values()) == 4


class TestModuleComultBase:
    def test_cusp_is_grouplike(self):
        t = module_comult_base(CuspSymbol())
        assert t.terms == FormalSum.lift((EMPTY_MS, CUSP))

    def test_stgen_n1(self):
        a = hi("1/2")
        t = module_comult_base(StGenSymbol("rho", a, 1))
        expected = tsum(
            (EMPTY_MS, atom(StGenSymbol("rho", a, 1))),
            (ms(seg("3/2", "3/2")), atom(StGenSymbol("rho", a, 0))),
            (ms(seg("1/2", "3/2")), CUSP),
        )
        assert t.terms == expected

    def test_costgen_n1(self):
        # Left factors are one-segment zeta classes in delta-basis keys:
        # the bottom term carries the signed two-key expansion.
        a = hi("1/2")
        t = module_comult_base(CoStGenSymbol("rho", a, 1))
        expected = tsum(
            (EMPTY_MS, atom(CoStGenSymbol("rho", a, 1))),
            (ms(seg("-3/2", "-3/2")), atom(CoStGenSymbol("rho", a, 0))),
            (ms(seg("-3/2", "-3/2"), seg("-1/2", "-1/2")), CUSP),
            (ms(seg("-3/2", "-1/2")), CUSP, -1),
        )
        assert t.terms == expected

    def test_term_counts(self):
        for n in range(4):
            assert len(module_comult_base(StGenSymbol("rho", hi(1), n)).terms) == n + 2
            # one unit term plus all signed tilings of the k < n left factors
            assert (
                len(module_comult_base(CoStGenSymbol("rho", hi(1), n)).terms)
                == 2 ** (n + 1)
            )


class TestModuleComult:
    def test_cuspidal_point(self):
        a = hi("1/2")
        y = induced(ms(seg(a, a)), CuspSymbol())
        t = module_comult(y)
        expected = tsum(
            (ms(seg(a, a)), CUSP),
            (ms(seg(-a, -a)), CUSP),
            (EMPTY_MS, InducedSymbol(ms(seg(a, a)), CuspSymbol())),
        )
        assert t.terms == expected

    def test_unit(self):
        t = module_comult(ClassElt.cusp())
        assert t.terms == FormalSum.lift((EMPTY_MS, CUSP))

    def test_grading(self):
        cases = [
            induced(ms(seg(0, 1)), CuspSymbol()),
            induced(ms(seg("1/2", "1/2")), StGenSymbol("rho", hi("1/2"), 1)),
            induced(EMPTY_MS, CoStGenSymbol("rho", hi(1), 2)),
        ]
        for y in cases:
            (sym,) = y.terms.coeffs
            for (l, r), c in module_comult(y).terms.coeffs.items():
                assert l.size + r.degree == sym.degree

    def test_factors_through_induction(self):
        m = ms(seg(0, 0))
        y = induced(ms(seg("1/2", "1/2")), StGenSymbol("rho", hi("1/2"), 1))
        lhs = module_comult(rtimes(delta_key(m), y))
        tw = twisted_comult(delta_key(m))
        rhs = tw.terms.combine(
            module_comult(y).terms,
            lambda xy, bc: (xy[0] + bc[0], InducedSymbol(xy[1] + bc[1].gl, bc[1].base)),
        )
        assert lhs.terms == rhs

    @pytest.mark.parametrize(
        "y",
        [
            induced(ms(seg("1/2", "1/2")), CuspSymbol()),
            induced(ms(seg(0, 1)), CuspSymbol()),
            induced(EMPTY_MS, StGenSymbol("rho", hi("1/2"), 1)),
            induced(ms(seg(1, 1)), CoStGenSymbol("rho", hi(1), 1)),
        ],
    )
    def test_comodule_law(self, y):
        # (coproduct (x) id) after the coaction == (id (x) coaction) after it.
        first = module_comult(y)
        lhs = FormalSum.zero()
        for (x, r), c in first.terms.coeffs.items():
            for (a, b), c2 in comult(delta_key(x)).terms.coeffs.items():
                lhs = lhs + FormalSum.lift((a, b, r), c * c2)
        rhs = FormalSum.zero()
        for (x, r), c in first.terms.coeffs.items():
            for (a, r2), c2 in module_comult(ClassElt.key(r)).terms.coeffs.items():
                rhs = rhs + FormalSum.lift((x, a, r2), c * c2)
        assert lhs == rhs


def module_comult_by_combine(y: ClassElt) -> TensorClass:
    """The earlier assembly of ``module_comult``, kept as its oracle: one
    bilinear ``FormalSum.combine`` per induced symbol, with the GL part of
    each base term's right symbol summed in, and ``bind`` over the symbols."""

    def restrict(sym: InducedSymbol) -> FormalSum:
        tw = twisted_comult(delta_key(sym.gl))
        return tw.terms.combine(
            module_comult_base(sym.base).terms,
            lambda xy, bc: (xy[0] + bc[0], InducedSymbol(xy[1] + bc[1].gl, bc[1].base)),
        )

    return TensorClass(y.terms.bind(restrict))


@st.composite
def base_symbols(draw):
    """A cusp, StGen or CoStGen base with n <= 3 on one of two lines."""
    kind = draw(st.sampled_from([None, StGenSymbol, CoStGenSymbol]))
    if kind is None:
        return CuspSymbol()
    line = draw(st.sampled_from(["rho", "tau"]))
    return kind(line, HalfInt(draw(st.integers(-4, 4))), draw(st.integers(0, 3)))


@st.composite
def module_elements(draw):
    """One to four induced symbols with signed coefficients."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        gl = sampling.random_multisegment(rng, ("rho", "tau"), 2, window=2, max_length=2)
        sym = InducedSymbol(gl, draw(base_symbols()))
        terms[sym] = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return ClassElt(FormalSum(terms))


class TestModuleComultAssembly:
    """``module_comult``'s nested loops against the ``combine`` oracle."""

    @given(module_elements())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_combine_oracle(self, y):
        got = module_comult(y)
        assert got == module_comult_by_combine(y)
        assert 0 not in got.terms.coeffs.values()

    def test_terms_of_two_symbols_cancel(self):
        # both symbols restrict to ([1/2], sigma) with coefficient 1: their
        # difference keeps no such term, not even with coefficient 0
        a = hi("1/2")
        cusp_side = InducedSymbol(ms(seg(a, a)), CuspSymbol())
        st_side = InducedSymbol(EMPTY_MS, StGenSymbol("rho", a, 0))
        shared = (ms(seg(a, a)), CUSP)
        for sym in (cusp_side, st_side):
            assert module_comult(ClassElt.key(sym)).terms.coeffs[shared] == 1
        y = ClassElt(FormalSum({cusp_side: 1, st_side: -1}))
        got = module_comult(y)
        assert got == module_comult_by_combine(y)
        assert shared not in got.terms.coeffs and len(got.terms) == 3

    def test_right_symbols_of_the_bases_have_the_empty_gl_part(self):
        # the loop pairs a twisted right key with the base symbol alone
        bases = [CuspSymbol(), CuspSymbol("sigma~")] + [
            cls(line, hi(a), n)
            for cls in (StGenSymbol, CoStGenSymbol)
            for line in ("rho", "tau")
            for a in ("-3/2", 0, "1/2", 2)
            for n in range(4)
        ]
        for base in bases:
            for _, right in module_comult_base(base).terms.coeffs:
                assert right.gl is EMPTY_MS


class TestGLJacquet:
    def test_cuspidal_point(self):
        # Full restriction to the GL factor: both signed exponents, no unit.
        a = hi("1/2")
        y = induced(ms(seg(a, a)), CuspSymbol())
        out = gl_jacquet(y)
        expected = delta_key(ms(seg(a, a))) + delta_key(ms(seg(-a, -a)))
        assert out == expected

    def test_rejects_noncuspidal(self):
        y = induced(EMPTY_MS, StGenSymbol("rho", hi(1), 0))
        with pytest.raises(NotCuspidalBaseError):
            gl_jacquet(y)


class TestPointOfReducibility:
    def test_substitution_matches_atom_sum(self):
        a = hi("1/2")
        y = induced(ms(seg(a, a)), CuspSymbol())
        substituted = identify_point_of_reducibility(module_comult(y), "rho", a)
        atoms = module_comult(
            ClassElt.key(atom(StGenSymbol("rho", a, 0)))
            + ClassElt.key(atom(CoStGenSymbol("rho", a, 0)))
        )
        assert substituted.terms == atoms.terms

    def test_leaves_other_terms_alone(self):
        y = induced(ms(seg(0, 1)), CuspSymbol())
        t = module_comult(y)
        assert identify_point_of_reducibility(t, "rho", hi(5)).terms == t.terms


class TestMultIn:
    def test_counts_left_key(self):
        a = hi("1/2")
        t = module_comult(induced(ms(seg(a, a)), CuspSymbol()))
        assert mult_in(t, ms(seg(a, a))) == 1
        assert mult_in(t, ms(seg(-a, -a))) == 1
        assert mult_in(t, ms(seg(a, a, "other"))) == 0

    def test_right_filter(self):
        a = hi("1/2")
        t = module_comult(
            ClassElt.key(atom(StGenSymbol("rho", a, 0)))
            + ClassElt.key(atom(CoStGenSymbol("rho", a, 0)))
        )
        assert mult_in(t, EMPTY_MS) == 2
        only_st = mult_in(
            t, EMPTY_MS, lambda r: isinstance(r.base, StGenSymbol)
        )
        assert only_st == 1


class TestTemperedSymbols:
    def test_sign_validation(self):
        with pytest.raises(DatumError):
            TauPM("rho", hi(1), 0)
        with pytest.raises(DatumError):
            DeltaPM(seg(-1, 1), 2)

    def test_ind_temp_requires_symmetric_segments(self):
        with pytest.raises(DatumError):
            IndTemp((seg(0, 1),), TempBase(CuspSymbol()))
        t = IndTemp((seg(-1, 1), seg("-1/2", "1/2")), TempBase(CuspSymbol()))
        assert len(t.segs) == 2

    def test_dual_sigma_involution(self):
        assert dual_sigma("sigma") == "sigma~"
        assert dual_sigma(dual_sigma("sigma")) == "sigma"

    def test_contragredient_datum(self):
        d = LanglandsDatum(
            ms(seg(1, 2)), TauPM("rho", hi(1), +1)
        )
        dd = contragredient_datum(d)
        assert dd.gl == d.gl
        assert dd.temp == TauPM("rho", hi(1), +1, "sigma~")
        assert contragredient_datum(dd) == d

    def test_contragredient_needs_selfdual_lines(self):
        ctx = Context(lines={"w": Line("w", selfdual=False)})
        d = LanglandsDatum(ms(seg(1, 1, "w")), TempBase(CuspSymbol()))
        from cuspline.core import LineError

        with pytest.raises(LineError):
            contragredient_datum(d, ctx)


class TestLanglandsDatum:
    def test_requires_positive_centers(self):
        # center 0 or negative, at integer and half-integer ends, alone or
        # after a valid segment, plain or dualized
        for b, e in [(-1, 1), ("-1/2", "1/2"), (0, 0), (-2, -1), (-3, 1), ("-3/2", "1/2")]:
            for gl in (ms(seg(b, e)), ms(seg(1, 2), seg(b, e))):
                for dualized in (False, True):
                    with pytest.raises(DatumError):
                        LanglandsDatum(gl, TempBase(CuspSymbol()), dualized)
        for b, e in [(0, 1), ("-1/2", "3/2"), ("1/2", "1/2"), (-2, 3)]:
            d = LanglandsDatum(ms(seg(b, e)), TempBase(CuspSymbol()))
            assert d.gl == ms(seg(b, e))

    def test_dualized_flag_in_equality(self):
        base = TempBase(CuspSymbol())
        a = LanglandsDatum(ms(seg(1, 1)), base)
        b = LanglandsDatum(ms(seg(1, 1)), base, dualized=True)
        assert a != b
        assert "dual[" in str(b)


class TestExponentVectors:
    def test_vector_layout(self):
        v = exponent_vector(ms(seg(2, 2), seg(0, 1)), total=5)
        assert v == (hi(2), hi("1/2"), hi("1/2"), hi(0), hi(0))

    def test_oversize_rejected(self):
        with pytest.raises(DatumError):
            exponent_vector(ms(seg(0, 3)), total=3)

    def test_dominance(self):
        v = exponent_vector(ms(seg(1, 1), seg(1, 1)), total=3)
        w = exponent_vector(ms(seg(2, 2)), total=3)
        assert dominates(v, w)
        assert not dominates(w, v)
        assert dominates(v, v)

    def test_dominance_length_mismatch(self):
        with pytest.raises(DatumError):
            dominates((hi(1),), (hi(1), hi(0)))


# ---------------------------------------------------------------------------
# Hash-consing of the module-side symbols
# ---------------------------------------------------------------------------

SIGMAS = ("sigma", "sigma~", "pi")


@st.composite
def sampled_value(draw, line="rho"):
    """The value of an induced symbol on one line, drawn with the package's
    sampler seeded by hypothesis: (key, base class, base fields)."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    gl = sampling.random_multisegment(rng, (line,), max_segments=3, max_length=2)
    sigma = rng.choice(SIGMAS)
    kind = rng.choice((CuspSymbol, StGenSymbol, CoStGenSymbol))
    if kind is CuspSymbol:
        return gl, kind, (sigma,)
    a = sampling.random_halfint(rng, "1/2", 2)
    return gl, kind, (line, a, rng.randint(0, 2), sigma)


def build(value) -> InducedSymbol:
    gl, kind, fields = value
    return InducedSymbol(gl, kind(*fields))


def base_value(base) -> tuple:
    return (type(base),) + dataclasses.astuple(base)


def fresh_base(base):
    """An equal base symbol built from fresh field values."""
    return type(base)(*(
        HalfInt(v.num2) if isinstance(v, HalfInt) else v for v in dataclasses.astuple(base)
    ))


def fresh(sym: InducedSymbol) -> InducedSymbol:
    """An equal induced symbol built from fresh segments and a fresh base."""
    segs = [Segment(HalfInt(s.b.num2), HalfInt(s.e.num2), s.line) for s in sym.gl]
    return InducedSymbol(Multisegment(reversed(segs)), fresh_base(sym.base))


def interned_over(prefix: str) -> int:
    """Entries of the symbol table whose key names a sigma label prefix*,
    directly or through the base symbol it holds."""
    def over(part) -> bool:
        return getattr(part, "sigma", part if isinstance(part, str) else "").startswith(prefix)
    return sum(any(over(part) for part in key) for key in classical._SYMBOLS)


TWO_LINES = Context(
    "sigma",
    {"rho": Line("rho", True, hi("1/2")), "tau": Line("tau", True, hi("1/2"))},
)


class TestInterning:
    """Base and induced symbols are hash-consed: every route to a value
    returns the one object, distinct values are distinct objects, and dead
    values leave the table."""

    @given(sampled_value())
    @settings(max_examples=150, deadline=None)
    def test_every_route_returns_the_one_object(self, value):
        sym = build(value)
        gl, base = sym.gl, sym.base
        assert gl is value[0] and base_value(base) == value[1:2] + value[2]
        assert build(value) is sym
        assert fresh(sym) is sym and fresh_base(base) is base
        assert dataclasses.replace(sym) is sym and dataclasses.replace(base) is base
        assert dataclasses.replace(sym, gl=fresh(sym).gl, base=fresh_base(base)) is sym
        [key] = induced(gl, base).terms.coeffs
        assert key is sym
        [key] = rtimes(delta_key(gl), induced(EMPTY_MS, base)).terms.coeffs
        assert key is sym
        flipped = classical._flip_sigma(base)
        assert flipped is dataclasses.replace(base, sigma=dual_sigma(base.sigma))
        assert classical._flip_sigma(flipped) is base
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(sym, protocol)) is sym
            assert pickle.loads(pickle.dumps(base, protocol)) is base
        assert copy.copy(sym) is sym and copy.deepcopy(sym) is sym
        assert copy.copy(base) is base and copy.deepcopy(base) is base

    @given(sampled_value())
    @settings(max_examples=60, deadline=None)
    def test_restriction_and_transport_return_the_one_object(self, value):
        sym = build(value)
        rights = [r for _l, r in module_comult(ClassElt.key(sym)).terms.coeffs]
        rights += [r for _l, r in module_comult_base(sym.base).terms.coeffs]
        assert any(r is sym for r in rights)  # the (1, sym) term
        for r in rights:
            assert fresh(r) is r
        y = ClassElt.key(sym)
        moved = transport_class(y, "rho", "tau", TWO_LINES)
        [there] = moved.terms.coeffs
        assert there.lines() <= {"tau"} and len(there.gl) == len(sym.gl)
        [back] = transport_class(moved, "tau", "rho", TWO_LINES).terms.coeffs
        assert back is sym
        [renamed] = transport_class(y, "rho", "tau", TWO_LINES, sigma_to="pi").terms.coeffs
        assert renamed is dataclasses.replace(
            there, base=dataclasses.replace(there.base, sigma="pi")
        )

    @given(sampled_value(), sampled_value())
    @settings(max_examples=150, deadline=None)
    def test_identity_is_value_equality(self, u, v):
        # each symbol is judged by the value it was built from
        x, y = build(u), build(v)
        same_base = u[1:] == v[1:]
        same = same_base and u[0] is v[0]  # multisegment identity is equality
        assert (x.base is y.base) is same_base and (x.base == y.base) is same_base
        assert (x is y) is same and (x == y) is same and (x != y) is not same
        assert len({x, y}) == 2 - same

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_steinberg_and_co_steinberg_atoms_stay_distinct(self, sigma):
        for n in range(3):
            st_atom = StGenSymbol("rho", hi(1), n, sigma)
            co_atom = CoStGenSymbol("rho", hi(1), n, sigma)
            assert st_atom is not co_atom and st_atom != co_atom
            assert type(st_atom) is StGenSymbol and type(co_atom) is CoStGenSymbol
            assert atom(st_atom) is not atom(co_atom)
            assert StGenSymbol("rho", hi(1), n, dual_sigma(sigma)) is not st_atom
            assert CuspSymbol(sigma) is not CuspSymbol(dual_sigma(sigma))

    def test_negative_n_raises_and_adds_no_entry(self):
        kept = [StGenSymbol("neg", hi(1), 0, "neg-sigma")]
        before = dict(classical._SYMBOLS)
        for cls in (StGenSymbol, CoStGenSymbol):
            for n in (-1, -3):
                with pytest.raises(DatumError):
                    cls("neg", hi(1), n, "neg-sigma")
                with pytest.raises(DatumError):
                    dataclasses.replace(kept[0], n=n)
        assert classical._SYMBOLS == before
        assert all(ref() is None or getattr(ref(), "n", 0) >= 0
                   for ref in classical._SYMBOLS.values())

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_dead_values_leave_the_table(self, seed):
        rng = random.Random(seed)
        assert interned_over("gc-") == 0
        made = []
        for i in range(30):
            sigma = f"gc-{i % 4}"
            gl = sampling.random_multisegment(rng, ("rho",), max_segments=3)
            made.append(InducedSymbol(gl, CuspSymbol(sigma)))
            made.append(induced(gl, StGenSymbol("rho", hi(1), i % 3, sigma)).terms)
        made.append(module_comult(ClassElt.key(made[0])))
        assert interned_over("gc-") > 0
        del made
        gc.collect()
        assert interned_over("gc-") == 0

    def test_identity_outlives_cache_clearing_and_churn(self):
        kept = InducedSymbol(ms(seg(0, 1)), CoStGenSymbol("rho", hi(1), 1, "churn"))
        rights = [r for _l, r in module_comult(ClassElt.key(kept)).terms.coeffs]
        clear_caches()
        alive = [InducedSymbol(ms(seg(0, i % 7)), CuspSymbol(f"churn-{i}")) for i in range(3000)]
        assert interned_over("churn-") == 2 * len(alive)
        assert InducedSymbol(ms(seg(0, 1)), CoStGenSymbol("rho", hi(1), 1, "churn")) is kept
        again = [r for _l, r in module_comult(ClassElt.key(kept)).terms.coeffs]
        assert len(again) == len(rights) and all(a is b for a, b in zip(again, rights))
        assert InducedSymbol(ms(seg(0, 3)), CuspSymbol("churn-3")) is alive[3]
        del alive, rights, again
        gc.collect()
        assert interned_over("churn-") == 0
