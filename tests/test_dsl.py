"""Tests for the expression language: parsing, evaluation, and errors."""

import itertools
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cuspline import core, dsl

from cuspline.classical import (
    ClassElt,
    CoStGenSymbol,
    CuspSymbol,
    InducedSymbol,
    StGenSymbol,
    TensorClass,
    induced,
    module_comult,
    module_comult_base,
)
from cuspline.core import Context, EMPTY_MS, Line, Multisegment, Segment, ms
from cuspline.dsl import (
    BaseAtom,
    Call,
    DslSyntaxError,
    DslTypeError,
    Induce,
    Prod,
    SegAtom,
    SigmaAtom,
    evaluate,
    parse,
)
from cuspline.glhopf import (
    DELTA,
    ZETA,
    GLElt,
    TensorGL,
    comult,
    comult_key,
    delta_key,
    mw_dual,
    trim_key,
    twisted_comult,
    zeta_key,
)
from cuspline.halfint import hi


def seg(b, e, line="rho"):
    return Segment(hi(b), hi(e), line)


class TestParsing:
    def test_segment_atom(self):
        ast = parse("d[0,1]@rho")
        assert isinstance(ast, SegAtom)
        assert ast.basis == "d"
        assert ast.b == hi(0)
        assert ast.e == hi(1)
        assert ast.line == "rho"

    def test_singleton_sugar(self):
        ast = parse("z[3/2]@tau")
        assert isinstance(ast, SegAtom)
        assert ast.basis == "z"
        assert ast.b == hi("3/2")
        assert ast.e == hi("3/2")
        assert ast.line == "tau"

    def test_function_call(self):
        ast = parse("mstar(d[0,1]@rho)")
        assert isinstance(ast, Call)
        assert ast.fn == "mstar"
        assert isinstance(ast.arg, SegAtom)

    def test_induction_expression(self):
        ast = parse("d[1/2,3/2]@rho |x| St(1/2,2)@rho")
        assert isinstance(ast, Induce)
        assert isinstance(ast.left, SegAtom)
        assert isinstance(ast.right, BaseAtom)
        assert ast.right.kind == "St"
        assert ast.right.a == hi("1/2")
        assert ast.right.n == 2

    def test_product_binds_tighter_than_induction(self):
        ast = parse("d[0]@rho * d[1]@rho |x| sigma")
        assert isinstance(ast, Induce)
        assert isinstance(ast.left, Prod)
        assert isinstance(ast.right, SigmaAtom)

    def test_induction_is_right_associative(self):
        ast = parse("d[0]@rho |x| d[1]@rho |x| sigma")
        assert isinstance(ast, Induce)
        assert isinstance(ast.left, SegAtom)
        assert isinstance(ast.right, Induce)

    def test_product_is_left_associative(self):
        ast = parse("d[0]@rho * d[1]@rho * d[2]@rho")
        assert isinstance(ast, Prod)
        assert isinstance(ast.left, Prod)
        assert isinstance(ast.right, SegAtom)

    def test_parentheses_override_precedence(self):
        ast = parse("(d[0]@rho |x| sigma)")
        assert isinstance(ast, Induce)

    def test_syntax_error_carries_position(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse("d[0")
        assert exc.value.pos == 3
        assert "']'" in str(exc.value)

    def test_unknown_function_name(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse("foo(d[0]@rho)")
        assert exc.value.pos == 0
        assert "foo" in str(exc.value)

    def test_trailing_input_rejected(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse("d[0]@rho extra")
        assert "extra" in str(exc.value)

    def test_missing_line_label(self):
        with pytest.raises(DslSyntaxError):
            parse("d[0,1]")

    def test_empty_input(self):
        with pytest.raises(DslSyntaxError):
            parse("")


class TestEvaluation:
    def test_delta_segment(self):
        value = evaluate("d[0,1]@rho")
        assert value == delta_key(ms(seg(0, 1)))

    def test_zeta_segment(self):
        value = evaluate("z[0,1]@rho")
        assert value == zeta_key(ms(seg(0, 1)))

    def test_product_merges_multisegments(self):
        value = evaluate("d[0,1]@rho * d[2]@rho")
        assert value == delta_key(ms(seg(0, 1), seg(2, 2)))

    def test_sigma_is_cuspidal_point(self):
        value = evaluate("sigma")
        assert isinstance(value, ClassElt)
        assert value == ClassElt.cusp("sigma")

    def test_induction_of_segment_on_sigma(self):
        value = evaluate("d[1/2,3/2]@rho |x| sigma")
        expected = ClassElt.key(
            InducedSymbol(ms(seg("1/2", "3/2")), CuspSymbol())
        )
        assert value == expected

    def test_induction_on_generalized_steinberg(self):
        value = evaluate("d[1/2,3/2]@rho |x| St(1/2,2)@rho")
        expected = ClassElt.key(
            InducedSymbol(
                ms(seg("1/2", "3/2")), StGenSymbol("rho", hi("1/2"), 2)
            )
        )
        assert value == expected

    def test_mstar_matches_comultiplication(self):
        value = evaluate("mstar(d[0,1]@rho)")
        assert isinstance(value, TensorGL)
        assert value == comult(delta_key(ms(seg(0, 1))))
        assert len(value.terms.coeffs) == 3

    def test_mustar_on_cuspidal_point(self):
        value = evaluate("mustar(d[1/2]@rho |x| sigma)")
        assert isinstance(value, TensorClass)
        # [1/2] x sigma restricts to 1 (x) pi, [1/2] (x) sigma, [-1/2] (x) sigma.
        keys = set(value.terms.coeffs)
        lefts = {k[0] for k in keys}
        assert EMPTY_MS in lefts
        assert ms(seg("1/2", "1/2")) in lefts
        assert ms(seg("-1/2", "-1/2")) in lefts
        assert len(keys) == 3

    def test_dual_negates_and_reverses(self):
        value = evaluate("dual(d[0,1]@rho)")
        assert value == delta_key(ms(seg(-1, 0)))

    def test_mw_matches_library_involution(self):
        value = evaluate("mw(z[0,1]@rho * z[1,2]@rho)")
        expected = zeta_key(ms(seg(0, 1), seg(1, 2))).map_keys(mw_dual)
        assert value == expected

    def test_derivative_on_zeta(self):
        value = evaluate("D(z[0,1]@rho)")
        assert isinstance(value, GLElt)
        assert value.basis == ZETA
        keys = set(value.terms.coeffs)
        assert ms(seg(0, 1)) in keys
        assert ms(seg(0, 0)) in keys

    def test_highest_derivative_trims_tops(self):
        value = evaluate("hd(z[0,1]@rho * z[1,2]@rho)")
        assert value == zeta_key(ms(seg(0, 0), seg(1, 1)))

    def test_custom_context_reaches_evaluation(self):
        ctx = Context(
            sigma="sig2", lines={"rho": Line("rho", selfdual=True)}
        )
        value = evaluate("sigma", ctx)
        assert value == ClassElt.cusp("sig2")

    def test_nested_functions(self):
        value = evaluate("mw(mw(z[0,1]@rho * z[1]@rho))")
        assert value == zeta_key(ms(seg(0, 1), seg(1, 1)))


class TestTypeErrors:
    def test_mixed_basis_product(self):
        with pytest.raises(DslTypeError) as exc:
            evaluate("d[0,1]@rho * z[0]@rho")
        assert "basis" in str(exc.value)

    def test_empty_segment(self):
        with pytest.raises(DslTypeError) as exc:
            evaluate("d[1,0]@rho")
        assert "empty" in str(exc.value)

    def test_parity_mixing_in_segment(self):
        with pytest.raises(DslTypeError):
            evaluate("d[0,1/2]@rho")

    def test_derivative_requires_zeta(self):
        with pytest.raises(DslTypeError) as exc:
            evaluate("D(d[0,1]@rho)")
        assert "zeta" in str(exc.value)

    def test_mustar_rejects_ring_elements(self):
        with pytest.raises(DslTypeError):
            evaluate("mustar(d[0,1]@rho)")

    def test_mstar_rejects_module_elements(self):
        with pytest.raises(DslTypeError):
            evaluate("mstar(d[1/2]@rho |x| sigma)")

    def test_functions_reject_tensor_arguments(self):
        with pytest.raises(DslTypeError):
            evaluate("mw(mstar(d[0,1]@rho))")

    def test_product_with_module_element(self):
        with pytest.raises(DslTypeError):
            evaluate("sigma * sigma")

    def test_induction_needs_module_on_right(self):
        with pytest.raises(DslTypeError):
            evaluate("d[0,1]@rho |x| d[0]@rho")

    def test_induction_rejects_zeta_left(self):
        with pytest.raises(DslTypeError):
            evaluate("z[0,1]@rho |x| sigma")

    def test_steinberg_atom_needs_nonnegative_level(self):
        with pytest.raises(DslTypeError):
            evaluate("St(1/2,-1)@rho")


class TestInputLimits:
    """Inputs just past a documented limit fail with a syntax error instead
    of overflowing the interpreter stack."""

    @staticmethod
    def nested(k):
        return "(" * k + "sigma" + ")" * k

    def test_nesting_at_the_limit_evaluates(self):
        assert evaluate(self.nested(dsl.MAX_NESTING)) == ClassElt.cusp()

    def test_nesting_past_the_limit(self):
        with pytest.raises(DslSyntaxError, match="nested deeper than"):
            parse(self.nested(dsl.MAX_NESTING + 1))

    def test_function_calls_count_as_nesting(self):
        k = dsl.MAX_NESTING + 1
        with pytest.raises(DslSyntaxError, match="nested deeper than"):
            parse("mw(" * k + "d[0]@rho" + ")" * k)

    def test_induction_chain_counts_as_nesting(self):
        text = "d[1]@rho |x| " * dsl.MAX_NESTING + "sigma"
        assert len(evaluate(text).terms) == 1
        with pytest.raises(DslSyntaxError, match="nested deeper than"):
            parse("d[1]@rho |x| " + text)

    def test_length_past_the_limit(self):
        text = "sigma".ljust(dsl.MAX_LENGTH + 1)
        assert parse(text[:-1]) == SigmaAtom(0)
        with pytest.raises(DslSyntaxError, match="longer than"):
            parse(text)

    def test_long_product_is_one_flat_node(self):
        # 1400 factors fit under the length limit; the tree compares and
        # prints without recursing once per factor
        text = "*".join(["d[0]@r"] * 1400)
        assert len(text) <= dsl.MAX_LENGTH
        tree = parse(text)
        assert tree == parse(text) and tree != parse(text + "*d[1]@r")
        assert tree.factors == tuple(
            SegAtom("d", hi(0), hi(0), "r", 7 * i) for i in range(1400)
        )
        assert repr(tree).count("SegAtom(") == 1400

    def test_product_longer_than_the_stack(self):
        k = sys.getrecursionlimit() + 1
        text = "*".join(["d[0]@rho"] * k)
        assert len(text) <= dsl.MAX_LENGTH
        assert evaluate(text) == delta_key(ms(*[seg(0, 0)] * k))


class TestTermBudget:
    """An expansion that could exceed ``MAX_TERMS`` terms is refused before
    any term is built; the bound is a product of one-segment counts."""

    @staticmethod
    def two_point_product(k):
        return "*".join(f"z[{2 * i},{2 * i + 1}]@rho" for i in range(k))

    @staticmethod
    def derivative_product(k):
        """k factors D(z[2i,2i+1]@rho) of two terms each."""
        return "*".join(f"D(z[{2 * i},{2 * i + 1}]@rho)" for i in range(k))

    def test_bound_just_under_and_just_past_the_cap(self):
        under = evaluate(self.two_point_product(16))
        past = evaluate(self.two_point_product(17))
        assert dsl.term_bound("D", under) == 2 ** 16 <= dsl.MAX_TERMS
        assert dsl.term_bound("D", past) == 2 ** 17 > dsl.MAX_TERMS
        # a product's bound multiplies its factors' term counts
        assert len(evaluate(self.derivative_product(16)).terms) == 2 ** 16
        with pytest.raises(DslTypeError, match="'\\*' could make up to 131072"):
            evaluate(self.derivative_product(17))
        # mustar's: 1 for sigma, n + 2 for St(a, n), 2^(n+1) for CoSt(a, n)
        at_cap = evaluate("St(1/2,99998)@rho")
        assert dsl.term_bound("mustar", at_cap) == dsl.MAX_TERMS
        assert dsl.term_bound("mustar", evaluate("CoSt(1/2,15)@rho")) == 2 ** 16

    def test_bound_sums_over_keys(self):
        x = zeta_key(ms(seg(0, 1), seg(3, 3))) + zeta_key(ms(seg(0, 2)))
        assert dsl.term_bound("D", x) == 4 + 2
        assert dsl.term_bound("mstar", x) == 3 * 2 + 4
        assert dsl.term_bound("Mstar", x) == 6 * 3 + 10
        y = (
            induced(ms(seg(0, 1), seg(3, 3)), StGenSymbol("rho", hi("1/2"), 1))
            + induced(ms(seg(0, 2)), CoStGenSymbol("rho", hi("1/2"), 2))
            + ClassElt.cusp()
        )
        assert dsl.term_bound("mustar", y) == 6 * 3 * 3 + 10 * 8 + 1

    @pytest.mark.parametrize("basis", [DELTA, ZETA])
    @pytest.mark.parametrize("b", [0, "1/2", -2, "-5/2"])
    def test_restriction_counts_bound_the_cached_tensors(self, basis, b):
        for length in range(1, 7):
            key = ms(Segment(hi(b), hi(b) + (length - 1), "rho"))
            x = GLElt.key(basis, key)
            # the coproduct count is exact; the twisted one can merge terms
            assert dsl.term_bound("mstar", x) == len(comult_key(key, basis).terms)
            assert dsl.term_bound("Mstar", x) >= len(twisted_comult(x).terms)
            # a base atom's count is exact: its closed restriction's terms
            for atom in (StGenSymbol, CoStGenSymbol):
                base = atom("rho", hi(b), length - 1)
                want = len(module_comult_base(base).terms)
                assert dsl.term_bound("mustar", induced(EMPTY_MS, base)) == want

    def test_restrictions_past_the_cap(self):
        # one segment of length 100000 has 100001 coproduct terms
        with pytest.raises(DslTypeError, match="mstar could make up to 100001"):
            evaluate("mstar(d[0,99999]@rho)")
        # and one of length 446 up to 447 * 448 / 2 = 100128 twisted ones
        with pytest.raises(DslTypeError, match="Mstar could make up to 100128"):
            evaluate("Mstar(z[0,445]@rho)")
        # St(a, n) restricts to n + 2 terms, CoSt(a, n) to 2^(n+1)
        with pytest.raises(DslTypeError, match="mustar could make up to 100001"):
            evaluate("mustar(St(1/2,99999)@rho)")
        with pytest.raises(DslTypeError, match="mustar could make up to 131072"):
            evaluate("mustar(CoSt(1/2,16)@rho)")
        # a huge n is counted as 2^64 without computing 2^(n+1)
        with pytest.raises(DslTypeError, match=f"mustar could make up to {2 ** 64} "):
            evaluate(f"mustar(CoSt(1/2,{10 ** 40})@rho)")
        # the GL part of each symbol counts as in Mstar: 15^5 for five [0,3]
        factors = "*".join(["d[0,3]@rho"] * 5)
        with pytest.raises(DslTypeError, match=f"up to {15 ** 5} terms"):
            evaluate(f"mustar({factors} |x| sigma)")
        # mw builds at most two new segments per exponent: 2 * 50001 here
        with pytest.raises(DslTypeError, match="mw could make up to 100002 new"):
            evaluate("mw(d[0,50000]@rho)")

    def test_positive_hd_is_not_bounded(self):
        # the fast path makes one term per key, however many segments
        text = self.two_point_product(17)
        (key,) = evaluate(text).terms.coeffs
        assert evaluate(f"hd({text})") == zeta_key(trim_key(key))

    def test_signed_hd_is_bounded(self):
        (key,) = evaluate(self.two_point_product(17)).terms.coeffs
        signed = zeta_key(key) - zeta_key(key + ms(seg(40, 40)))
        with pytest.raises(DslTypeError, match="hd could make up to"):
            dsl._apply("hd", signed, Context())


# (begin, length - 1) of a few short segments
SEGMENT_SPECS = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(0, 2)), min_size=1, max_size=3
)
FRESH_LINES = (f"fresh{i}" for i in itertools.count())


def segment_product(specs, line="rho", basis="d"):
    return "*".join(f"{basis}[{b},{b + n}]@{line}" for b, n in specs)


def checked_bounds(text):
    """Evaluate ``text``; return the bounds it checked, by what they bound."""
    with mock.patch.object(dsl, "_check_bound", wraps=dsl._check_bound) as spy:
        evaluate(text)
    return {call.args[0]: call.args[1] for call in spy.call_args_list}


class TestBoundsCoverTheirCounts:
    """Each bound is at least the count it bounds, on small inputs."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(SEGMENT_SPECS, st.booleans()), min_size=2, max_size=3))
    def test_product(self, factors):
        texts = [
            f"D({segment_product(specs, basis='z')})" if d
            else segment_product(specs, basis="z")
            for specs, d in factors
        ]
        text = "*".join(texts)
        assert checked_bounds(text)["'*'"] >= len(evaluate(text).terms)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(SEGMENT_SPECS, st.sampled_from(["sigma", "St", "CoSt"]),
                      st.integers(0, 3)),
            min_size=1, max_size=2,
        )
    )
    def test_mustar(self, symbols):
        atoms = {"St": StGenSymbol, "CoSt": CoStGenSymbol}
        parts = [
            induced(
                Multisegment(seg(b, b + k) for b, k in specs),
                atoms[kind]("rho", hi("1/2"), n) if kind in atoms else CuspSymbol(),
            )
            for specs, kind, n in symbols
        ]
        y = sum(parts[1:], parts[0])
        assert dsl.term_bound("mustar", y) >= len(module_comult(y).terms)

    @settings(max_examples=30, deadline=None)
    @given(SEGMENT_SPECS)
    def test_mw_new_segments(self, specs):
        text = segment_product(specs, line=next(FRESH_LINES))
        evaluate(text)  # enters the key's own segments
        before = len(core._SEGMENTS)
        bound = checked_bounds(f"mw({text})")["mw"]
        assert bound >= len(core._SEGMENTS) - before
