"""Desk-scale laboratory for morass fragments, the forcing poset that
builds them, persistent function families with their defender strategy,
and the layered structures compared by the back-and-forth game."""

from .ordinal import (
    OMEGA,
    ONE,
    ZERO,
    OrdinalCNF,
    add,
    compare,
    is_limit,
    left_subtract,
    nat_multiply,
    parse_ordinal,
    render_ordinal,
)
from .morass import (
    LevelData,
    MapNF,
    MorassFragment,
    compose,
    dominates,
    family,
    identity_map,
    make_shift,
    mu,
    preceq,
    preceq_at,
    predecessor,
    validate_fragment,
)
from .forcing import (
    BlockMap,
    Condition,
    amalgamate,
    build_fragment,
    delta_system_pair,
    extend_to_cover,
    fragment_of,
    isomorphic,
    leq,
    seed_condition,
    validate_condition,
    verify_lower_bound,
)
from .persistency import (
    PFunc,
    claim_check,
    in_family,
    morass_strategy,
    play_persistency,
)
from .structures import (
    CStructure,
    OrdElement,
    SetElement,
    check_partial_iso,
    classify_partial_iso,
    enumerate_layer,
    make_ab,
    project,
    shift_map,
)
from .efgame import EFConfig, ef_exists_strategy, play_ef

__version__ = "0.1.0"
