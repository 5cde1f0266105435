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
    ZETA,
    GLElt,
    TensorGL,
    comult,
    delta_key,
    mw_dual,
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
