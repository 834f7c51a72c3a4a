"""Lambek calculus fragments as executable objects.

The pieces fit together like this: ``core`` defines types, sequents,
proofs, calculus configurations and the two grammar formalisms; ``syntax``
parses and prints them; ``prover`` does backward proof search and proof
checking; ``recognizer`` holds the direct reducibility procedures for the
product-free fragments; ``transform`` translates grammars to lexicons and
back; ``oracle`` decides string membership by several independent routes
and cross-checks them; ``cli`` wraps the lot for the shell.
"""

from .core import (
    Backslash,
    CalculusConfig,
    Cfg,
    CfgClassification,
    FragmentError,
    FULL_CALCULUS,
    GrammarError,
    LambekGrammar,
    LambekitError,
    LambekType,
    LINEAR_FRAGMENT,
    Primitive,
    Product,
    Production,
    Proof,
    REGULAR_FRAGMENT,
    Rule,
    RuleShape,
    Sequent,
    Slash,
    SLASH_FRAGMENT,
    StepLimitExceeded,
    TypeRestriction,
    classify_cfg,
    connectives,
    degree,
    format_type,
    in_fragment,
    reassemble_spine,
    spine_decompositions,
    subtypes,
    subtypes_in_order,
    type_name,
    type_sort_key,
)
from .syntax import (
    ParseError,
    format_proof,
    format_sequent,
    parse_sequent,
    parse_type,
    parse_type_list,
    proof_to_dict,
)
from .prover import (
    CutEliminationError,
    InvalidProofError,
    ProofEngine,
    SearchResult,
    SearchStats,
    Violation,
    eliminate_cut,
    prove,
    validate,
)
from .recognizer import (
    ReductionTable,
    reduce_linear,
    reduce_regular,
    reduce_slash,
    reduce_slash_proof,
)
from .transform import (
    TranslationError,
    TranslationReport,
    cfg_to_lambek,
    lambek_to_cfg,
    lambek_to_lcfg,
    lambek_to_reg,
    lcfg_to_lambek,
    prune_useless,
    reg_to_lambek,
    remove_unit_productions,
    to_gnf,
    to_gnf_report,
    translation_report,
)
from .oracle import (
    CfgDecider,
    CrosscheckReport,
    LambekDecider,
    cfg_member,
    crosscheck,
    enumerate_strings,
    infer_config,
    lambek_member,
)
from .cli import (
    format_grammar,
    format_lexicon,
    load_grammar_file,
    parse_grammar_file,
    parse_lexicon_file,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
