"""deflab: exact deficiency, homology and module-rank experiments on
finitely presented groups."""

__version__ = "0.2.0"

from .words import Word, commutator
from .presentation import (
    Presentation,
    parse_presentation,
    parse_word,
    serialize_presentation,
)
from .tietze import tietze_simplify
from .coset import (
    CosetTable,
    SubgroupRecord,
    todd_coxeter,
    schreier_transversal,
    subgroup_record,
    cyclic_cover_record,
)
from .lowindex import low_index_subgroups, normal_subgroups
from .quotient import FiniteGroup, core_quotient, core_record
from .schreier import SubgroupPresentation, rewrite_subgroup_presentation
from .groupring import GroupRingElement, fox_derivative
from .chain import (
    ChainComplex,
    push_to_quotient,
    presentation_chain_complex,
    restrict_to_subgroup,
    collapse_to_point,
)
from .linalg import (
    SNFResult,
    BettiVector,
    EulerData,
    smith_normal_form,
    rank_mod_p,
    rank_over_Q,
    betti_numbers,
    partial_euler_mu,
    morse_check,
)
from .modcert import (
    ModulePresentation,
    KernelWitness,
    CertificateReport,
    coinvariant_rank_lower_bound,
    primitivize,
    separating_subgroup,
    rank_drop_certificate,
)
from .modp import (
    CohomologyDims,
    DualComplexReport,
    bar_cohomology_dims,
    dual_complex_dims,
)
from .intervals import DeficiencyInterval, deficiency_interval, first_betti_number
from .stability import StabilityReport, stability_report
from . import corpus
from . import errors
