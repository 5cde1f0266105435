"""Exact symbolic calculus for induced representations on a cuspidal line.

The package computes in two exact structures and never floats anything:

* a graded ring of formal general-linear classes with two rigid bases
  (``glhopf``), carrying a comultiplication, a contragredient, derivative
  functionals, and a multisegment involution;
* a module over that ring spanned by classes induced from a fixed cuspidal
  point of a classical tower (``classical``), carrying a twisted restriction
  comultiplication.

On top of those sit mechanical certificate checkers for subquotient counting
(``subquotients``), line-splitting and transport utilities (``jantzen``),
a generic-unitarity decision procedure (``criteria``), a tiny expression
language (``dsl``), and seeded random generators for property tests
(``sampling``).  Everything is exact: exponents live in half-integers
(``halfint``) and coefficients in arbitrary-precision integers.

The names imported below, and ``clear_caches``, are the package's public
interface.
"""
from types import ModuleType

from .halfint import HalfInt, hi
from .core import (
    Context,
    CusplineError,
    CusplineError as Error,
    DEFAULT_CONTEXT,
    DEFAULT_LINE,
    EMPTY_MS,
    EmptySegmentError,
    FormalSum,
    Line,
    LineError,
    MixedBasisError,
    Multisegment,
    NonIntegralLengthError,
    Segment,
    ms,
)
from .glhopf import (
    DELTA,
    ZETA,
    GLElt,
    TensorGL,
    comult,
    contragredient,
    delta_as_zeta,
    delta_key,
    derivative,
    gl_twisted_part,
    highest_derivative,
    mw_dual,
    twisted_comult,
    zeta_as_delta,
    zeta_key,
)
from .classical import (
    ClassElt,
    CoStGenSymbol,
    CuspSymbol,
    DatumError,
    DeltaPM,
    IndTemp,
    InducedSymbol,
    LanglandsDatum,
    StGenSymbol,
    TauPM,
    TempBase,
    TensorClass,
    contragredient_datum,
    gl_jacquet,
    induced,
    module_comult,
    mult_in,
    rtimes,
)
from .subquotients import (
    CaseTag,
    CertReport,
    CertStep,
    SubqDatum,
    UnsupportedDatumError,
    aubert_pair,
    check_length_ge5,
    check_mult_le4,
    check_prop41,
    classify,
    enumerate_subquotients,
    verify_hd_identity,
)
from .jantzen import (
    LinePartition,
    SplitDatum,
    TransportError,
    combine_data,
    filtered_identity_sides,
    module_comult_filtered,
    require_transportable,
    split_datum,
    transport_class,
    transport_gl,
    transport_line,
    twisted_comult_filtered,
)
from .criteria import (
    CriterionResult,
    GenericDatum,
    MalformedDatumError,
    generic_unitarizable,
    half_point_reducible,
)
from .dsl import DslSyntaxError, DslTypeError, evaluate, parse

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every ``functools`` cache of this package's imported modules,
    module-level or on a class (the restriction and certification memos and
    the CLI parser), so that the next call recomputes: after replacing a
    function that a memo calls, or before timing a cold run.  It walks this
    package's own submodules, not the ``sys.modules`` entries of its name,
    so another copy loaded under that name neither hides it nor is cleared."""
    namespaces = [globals()] + [
        vars(m) for m in list(globals().values())
        if isinstance(m, ModuleType) and m.__name__.startswith(__name__ + ".")
    ]
    for namespace in namespaces:
        values = list(namespace.values())
        values += [v for c in values if isinstance(c, type) for v in vars(c).values()]
        for value in values:
            value = getattr(value, "__func__", value)
            if hasattr(value, "cache_clear"):
                value.cache_clear()
