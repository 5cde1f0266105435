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

The names imported below are the package's public interface.
"""

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
    GenericDescription,
    MalformedDatumError,
    generic_unitarizable,
    half_point_reducible,
)
from .dsl import DslSyntaxError, DslTypeError, evaluate, parse

__version__ = "0.1.0"
