"""Exact generalized quaternion and octonion algebras over Z/p, Q and
Q(sqrt d): multiplication, conjugation, trace and norm, 4x4/8x8 matrix
representations, k-potent/nilpotent classification with constructive
generators, and censuses over prime fields.

All values are immutable and all operations are pure, so everything here is
safe to share between threads.
"""

from .algebra import (
    AlgebraMismatchError,
    OctAlgebra,
    Octonion,
    QuatAlgebra,
    Quaternion,
    cd_double_mul,
)
from .fields import (
    FieldElement,
    MixedFieldError,
    NotASquareError,
    ParseError,
    PrimeField,
    QuadraticField,
    RationalField,
    parse_field,
)
from .potency import (
    DEFAULT_MAX_K,
    SUPPORTED_ROTOR_KS,
    GenerationError,
    PotencyReport,
    classify,
    rotor_generate,
    split_generate,
)
from .report import REPORT_VERSION, discrepancy_report
from .represent import (
    BlockCheckReport,
    SquareMatrix,
    block_check,
    left_rep,
    right_rep,
)
from .rng import SplitMix64
from .search import (
    CensusRow,
    SearchBudgetError,
    census_to_csv,
    census_to_json,
    search_exhaustive,
    search_sample,
    split_witness,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraMismatchError",
    "BlockCheckReport",
    "CensusRow",
    "DEFAULT_MAX_K",
    "FieldElement",
    "GenerationError",
    "MixedFieldError",
    "NotASquareError",
    "OctAlgebra",
    "Octonion",
    "ParseError",
    "PotencyReport",
    "PrimeField",
    "QuadraticField",
    "QuatAlgebra",
    "Quaternion",
    "RationalField",
    "REPORT_VERSION",
    "SearchBudgetError",
    "SplitMix64",
    "SquareMatrix",
    "SUPPORTED_ROTOR_KS",
    "block_check",
    "cd_double_mul",
    "census_to_csv",
    "census_to_json",
    "classify",
    "discrepancy_report",
    "left_rep",
    "parse_field",
    "right_rep",
    "rotor_generate",
    "search_exhaustive",
    "search_sample",
    "split_generate",
    "split_witness",
]
