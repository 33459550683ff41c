"""qcoh: exact small quantum cohomology and quantum differential equations
for a family of worked examples (projective spaces, the flag variety F3,
the Hirzebruch surface Sigma_1, and Gr_2(C^4))."""

from .algebra import HLaurent, NovikovSeries, TPoly
from .model import (
    BUILTIN_NAMES,
    CohClass,
    InvalidModel,
    ModelError,
    ModelSpec,
    builtin_model,
    load_model,
    resolve_model,
    save_model,
)
from .operators import (
    ParseError,
    QDEOperator,
    RelPoly,
    apply_classical,
    apply_constq,
    apply_gauge,
    apply_gauge_many,
    builtin_operators,
    builtin_relations,
    builtin_rowspec,
    expression_substitutions,
    load_operators,
    load_relations,
    load_rowspec,
    parse_operator,
    parse_relation,
)
from .quantum import (
    QElem,
    check_associativity,
    check_flatness,
    eval_relation,
    exp_quantum,
)
from .sections import (
    CheckFailure,
    HMatrix,
    asymptotic_H,
    asymptotic_J,
    build_H_from_J,
    closed_form,
    descendent_level,
    extract_descendents,
    q_factorize,
    solve_fundamental,
    tpoly_matrix_json,
    verify_annihilated,
)
from .series import CohSeries, GaugeSeries

__version__ = "0.1.0"
