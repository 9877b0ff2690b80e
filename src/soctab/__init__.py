"""Socle tableaux as a counterpart of Littlewood-Richardson tableaux.

Tools for validating and enumerating both tableau families, realizing a
socle tableau by an explicit invariant-subspace embedding over
F_p[T]/(T^N), converting between the socle tableau, the LR tableau of
the dual embedding, and the picket Hom-matrix, and checking the tableau
switching conjecture by exhaustive search.
"""

from .partitions import (
    InvalidShape,
    NotContained,
    Shape,
    contains,
    parse_partition,
    parse_shape,
    partition,
    partitions_of,
    shape,
    skew_boxes,
    subdiagrams,
    transpose,
    weight,
)
from .tableaux import (
    ChainNotNested,
    EntryMatching,
    InvalidTableau,
    MatchingFailed,
    NotHorizontalStrip,
    SkewTableau,
    build_matching,
    check_lr,
    check_socle,
    check_st3_prime,
    count_tableaux,
    enumerate_tableaux,
    iter_tableaux,
    lr_coefficient,
)
from .modules import (
    BadPrime,
    FpModule,
    ModuleTooLarge,
    NotInvariant,
    Subspace,
    annihilator,
    quotient_type,
    standard_module,
    submodule_span,
)
from .embeddings import (
    BadIndex,
    Embedding,
    HomMatrix,
    PrimeMismatch,
    direct_sum,
    dual_embedding,
    embedding_from_json,
    embedding_from_spec,
    embedding_to_json,
    hom_matrix,
    load_fixture,
    lr_tableau,
    picket,
    random_corpus,
    socle_tableau,
)
from .realize import (
    ConditionStarViolated,
    EpiChain,
    build_chain,
    realize_lr,
    realize_socle,
)
from .convert import (
    InconsistentMatrix,
    defect,
    defect_table,
    duallr_to_hom,
    duallr_to_socle,
    entry_multiplicities,
    hom_to_duallr,
    hom_to_socle,
    socle_to_duallr,
    socle_to_hom,
)
from .switching import (
    ShapeMismatch,
    SwitchState,
    check_conjecture,
    init_switch,
    run_switch,
    switch_to_duallr,
)

__version__ = "0.1.0"
