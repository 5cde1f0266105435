"""Tests for the expression language: parsing, evaluation, and errors."""

import sys

import pytest

from cuspline import dsl

from cuspline.classical import (
    ClassElt,
    CuspSymbol,
    InducedSymbol,
    StGenSymbol,
    TensorClass,
)
from cuspline.core import Context, EMPTY_MS, Line, Segment, ms
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

    def test_bound_just_under_and_just_past_the_cap(self):
        under = evaluate(self.two_point_product(16))
        past = evaluate(self.two_point_product(17))
        assert dsl.term_bound("D", under) == 2 ** 16 <= dsl.MAX_TERMS
        assert dsl.term_bound("D", past) == 2 ** 17 > dsl.MAX_TERMS

    def test_bound_sums_over_keys(self):
        x = zeta_key(ms(seg(0, 1), seg(3, 3))) + zeta_key(ms(seg(0, 2)))
        assert dsl.term_bound("D", x) == 4 + 2
        assert dsl.term_bound("mstar", x) == 3 * 2 + 4
        assert dsl.term_bound("Mstar", x) == 6 * 3 + 10

    @pytest.mark.parametrize("basis", [DELTA, ZETA])
    @pytest.mark.parametrize("b", [0, "1/2", -2, "-5/2"])
    def test_restriction_counts_bound_the_cached_tensors(self, basis, b):
        for length in range(1, 7):
            key = ms(Segment(hi(b), hi(b) + (length - 1), "rho"))
            x = GLElt.key(basis, key)
            # the coproduct count is exact; the twisted one can merge terms
            assert dsl.term_bound("mstar", x) == len(comult_key(key, basis).terms)
            assert dsl.term_bound("Mstar", x) >= len(twisted_comult(x).terms)

    def test_restrictions_past_the_cap(self):
        # one segment of length 100000 has 100001 coproduct terms
        with pytest.raises(DslTypeError, match="mstar could make up to 100001"):
            evaluate("mstar(d[0,99999]@rho)")
        # and one of length 446 up to 447 * 448 / 2 = 100128 twisted ones
        with pytest.raises(DslTypeError, match="Mstar could make up to 100128"):
            evaluate("Mstar(z[0,445]@rho)")

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
