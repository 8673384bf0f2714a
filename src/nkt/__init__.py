"""Exact-arithmetic toolkit for the eight-parameter curvature tensor family
on N(kappa)-contact metric manifolds.

Layers, bottom up:

* :mod:`nkt.scalar_algebra` - exact rationals and multivariate rational
  functions with the sqrt(n) extension and a linear solver;
* :mod:`nkt.frame_geometry` - left-invariant frame models, curvature,
  h-operator, contact audits and nullity fits, on a sparse contraction
  kernel whose work follows the nonzero entries;
* :mod:`nkt.t_tensor` - the coefficient presets, the sparse components of
  T at a point's curvature structure (a ``CurvatureData``), and the flatness
  residuals and two derivation operators as contractions on its slots;
* :mod:`nkt.classification` - the symbolic eta-Einstein classifications,
  Boeckx invariant, D-homothetic deformation and table reproduction;
* :mod:`nkt.cli` - the ``nkt`` command line tool.
"""

from .scalar_algebra import (
    DivisionByZero,
    ExprSyntaxError,
    LinearSolution,
    NonlinearInVariable,
    Rational,
    RationalExpr,
    UnboundIndeterminate,
    VARIABLES,
    ZeroDenominator,
    eval_at,
    expr,
    normalize,
    parse_expr,
    solve_linear,
    sqrt_expr,
    substitute,
)
from .frame_geometry import (
    AuditReport,
    CurvatureData,
    DegenerateFit,
    FrameModel,
    InvalidModel,
    ModelFormatError,
    NullityFit,
    build_model,
    contact_audit,
    curvature,
    levi_civita,
    nk_lie_group_3d,
    nullity_fit,
    parse_model,
    render_model,
)
from .t_tensor import (
    ConditionKind,
    PresetName,
    TCoeffs,
    UnevaluatedCoefficient,
    catalog,
    coeffs_from,
    flatness_residual,
    preset,
    preset_as_printed,
    t_dot_ricci,
    t_dot_riemann,
)
from .classification import (
    BoeckxRadical,
    ClassificationRow,
    EtaEinsteinForm,
    FormTag,
    SasakianInput,
    TableReport,
    ZeroDeformation,
    boeckx,
    boeckx_example,
    consistency_kappa,
    d_homothetic,
    phi_flat_form,
    quasi_flat_form,
    reproduce_table,
    t_dot_ricci_form,
    t_dot_riemann_form,
    t_flat_constraint,
    t_flat_kappa,
    xi_flat_form,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
