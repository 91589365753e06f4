"""Reachability logic on finite orders and polyhedra.

The language extends basic modal logic with a binary reachability
connective: ``gamma(f, g)`` holds at a point when a zigzag of comparable
points leads from it, through points satisfying ``f``, to one satisfying
``g``.  Models are finite preorders, posets, or simplicial complexes read
through their face posets.
"""

from .formulas import (
    AdequateSet,
    And,
    Atom,
    BOT,
    Box,
    Formula,
    KEYWORDS,
    Not,
    ParseError,
    Reach,
    ReservedAtomError,
    TOP,
    adequate_closure,
    atoms_of,
    dia,
    equiv,
    formula_key,
    format_formula,
    implies,
    is_adequate,
    lor,
    parse_formula,
    pibox,
    saturate_diamonds,
    single_negation,
    subformulas,
)
from .geometry import (
    ComplexFormatError,
    GeometryError,
    PointLocationError,
    PolyhedralModel,
    SimplicialComplex,
    barycenter,
    cell_label,
    cell_of,
    companion,
    evaluate_polyhedral,
    face_poset,
    geometric_problems,
    make_complex,
    make_polyhedral_model,
    maze_from_labels,
    maze_generate,
    parse_complex,
    path_witness_poly,
    realize,
    serialize_complex,
    structural_problems,
)
from .kripke import (
    ModelError,
    ModelFormatError,
    PosetModel,
    PreorderModel,
    build_model,
    check_updown_path,
    evaluate,
    is_valid,
    nonempty_chains,
    parse_model,
    reach_targets,
    serialize_model,
    witness_path,
)
from .soundness import (
    SoundnessReport,
    all_posets,
    axiom_suite,
    find_model,
    random_formula,
    random_poset_model,
    random_preorder_model,
)
from .transforms import (
    ClassModel,
    MorphismCheck,
    NerveModel,
    PipelineReport,
    PipelineResult,
    PullbackCheck,
    chi,
    chi_disjunction,
    chi_lemma_check,
    cut,
    cut_filtration_pipeline,
    filtrate,
    is_updown_morphism,
    nerve,
    pullback_check,
)

__version__ = "0.1.0"
