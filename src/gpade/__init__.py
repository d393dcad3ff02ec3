"""Exact-arithmetic construction and certification of simultaneous rational
approximations to the hypergeometric-ratio series family, with p-adic
linear-form audits, a global-relation threshold, and a real
restricted-approximation audit."""

from .arith import (
    FactoredInteger,
    Interval,
    floor_log,
    legendre_nu,
    p_valuation,
    pochhammer,
)
from .denom import (
    DenominatorCert,
    ScaledSystem,
    ThetaMode,
    bound_constants,
    check_remainder_padic,
    check_size_bounds,
    compute_d1,
    compute_d2,
    make_cert,
    remainder_padic_bound,
    scaled_integers,
    verify_integrality,
)
from .errors import (
    CertificationError,
    DomainViolation,
    FactorizationLimit,
    HypothesisFailure,
    IntegerDifference,
    IntegralityViolation,
    InvariantViolation,
    NonMonomialDeterminant,
    NonPositiveAlpha,
    PrecisionInsufficient,
    SingularSystem,
)
from .pade import (
    ApproxShape,
    PadeFamily,
    build_family,
    build_q,
    family_det,
    family_tsv,
    oracle_solve,
    verify_order,
)
from .padic import (
    LinearFormInstance,
    LinearFormValuation,
    PAdicEnclosure,
    audit_linear_form,
    eval_all_phi,
    eval_phi_padic,
    global_relation_constant,
    linear_form_valuation,
    probe_global_relation,
    select_block_degrees,
)
from .params import GParams, derive_params, load_params, padic_domain_check, parse_params
from .realapprox import (
    RestrictedInstance,
    audit_restricted,
    c_of_vartheta,
    eval_phi_real,
    make_restricted_instance,
    restricted_constants,
    restricted_threshold,
    smallest_admissible_b,
)

__version__ = "0.1.0"
