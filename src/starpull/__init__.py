"""starpull: exact ideal arithmetic and star-operation calculus on
pullback rings R = phi^-1(D) inside T = K[X] or K[X]_(X).

The library verifies structural facts about divisorial and t-ideals,
class-group maps, and Prufer multiplication behavior on a small catalog
of computable instances, certifying every closed form against
definitional membership oracles.
"""

from .base_domain import (
    BaseDomain,
    ClassLabel,
    DomainError,
    ExtDModule,
    class_label_D,
    dmod_arith,
    dmod_colon,
    dmod_from_generators,
    dmod_intersect,
    dmod_predicates,
    dmod_scale,
    dmod_v,
)
from .class_groups import (
    ClassGroupError,
    RClassWitness,
    alpha,
    class_equivalent_R,
    gamma,
    invertibility_R,
    is_principal_R,
)
from .exprlang import (
    ExprError,
    evaluate,
    parse_expression,
    pretty_value,
    value_to_expr,
)
from .harness import (
    Report,
    SampleParams,
    SUITES,
    replay_violation,
    run_suite,
    sample_ideals,
)
from .kernel import (
    FieldElem,
    KernelError,
    Poly,
    RatFunc,
    eval_at_zero,
    ord_at_zero,
    poly_gcd,
)
from .pullback import (
    PullbackError,
    PullbackInstance,
    RawIdeal,
    StructuredIdeal,
    colon_R,
    colon_generators,
    extend_to_T,
    ideal_arith,
    ideal_equal,
    instance_catalog,
    inverse_image_R,
    m_ideal,
    make_instance,
    member_R,
    oracle_colon_member,
    oracle_v_member,
    r_ideal,
    span_product_in,
    structured_hull,
    t_ideal_of_r,
)
from .star_ops import (
    StarEvalError,
    StarOp,
    star_eval,
    star_meet,
)

__version__ = "0.1.0"
