"""Horizontal p-mean curvature on subriemannian structures.

Subpackages:

- :mod:`subcurv.calculus`: symbolic expression engine (parse,
  differentiate, evaluate, compile).
- :mod:`subcurv.core`: cometric structures, covector norms, the
  weighted-divergence curvature, singular-set scans.
- :mod:`subcurv.heisenberg`: group law, isometries, builtin structures,
  and the explicit graph curvature operators.
- :mod:`subcurv.brackets`: Lie brackets, bracket-closure rank, tangent
  distributions, two-form rank criteria.
- :mod:`subcurv.smp`: the comparison harness (touching, curvature gap,
  propagation, classification) and builtin scenarios.
- :mod:`subcurv.cli`: the ``subcurv`` command-line front end.
"""

from .calculus import (
    CoordSystem,
    Expr,
    NonSmoothPoint,
    DivisionByZero,
    ParseError,
    differentiate,
    evaluate,
    parse_expr,
    simplify,
    unparse,
)
from .core import (
    GridSpec,
    ScalarField,
    SingularPoint,
    SubriemannianStructure,
    VectorFieldExpr,
    conorm,
    p_mean_curvature,
    raise_covector,
    singular_scan,
)
from .heisenberg import (
    HeisenbergPoint,
    cylinder_structure,
    graph_operator_HF,
    group_mul,
    standard_structure,
    drift_graph_structure,
)
from .brackets import (
    RankReport,
    bracket_generate_rank,
    lie_bracket,
    tangent_distribution_fields,
    two_form_rank,
    w_tensor_independence,
)
from .smp import (
    ComparisonScenario,
    ScenarioReport,
    builtin_scenario,
    curvature_gap,
    integrate_field,
    propagate_max,
    run_scenario,
    variation_check,
)

__version__ = "0.1.0"
