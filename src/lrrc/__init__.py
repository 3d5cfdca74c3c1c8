"""Locally repairable regenerating codes at the minimum-bandwidth point.

Random linear constructions verified against the full admissible
selection set, a deterministic helper-increment procedure, and an
explicit exact-repair code on six nodes.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .galois import (
    FieldConfig,
    FieldMatrix,
    GaloisError,
    field_new,
    is_prime,
    mat_inv,
    mat_mul,
    mat_solve,
    next_prime,
)
from .mfhs import (
    HSet,
    ModelError,
    Params,
    ScoreVector,
    h_enumerate,
    h_membership,
    helper_universe,
    majorizes,
    params_new,
    score_vectors,
)
from .connect import (
    ConnectError,
    ConnectResult,
    ConnectState,
    InternalContradiction,
    connect_run,
    initial_perm,
)
from .code_core import (
    AttemptsExhausted,
    CodeError,
    CodeState,
    ConstructionFailed,
    RepairFailed,
    construct,
    decode,
    encode,
    invariant_check,
    reconstruct_check,
    repair_random,
    required_field_size,
    state_from_dict,
    state_to_dict,
    witness_repair_check,
)
from .exact6321 import (
    ExactCodeError,
    build_exact_code,
    exact_repair,
    repair_rule,
    verify_exact_code,
)
from .cli_sim import SimConfig, SimReport, run_cli, simulate

__all__ = [
    "__version__",
    "FieldConfig",
    "FieldMatrix",
    "GaloisError",
    "field_new",
    "is_prime",
    "mat_inv",
    "mat_mul",
    "mat_solve",
    "next_prime",
    "HSet",
    "ModelError",
    "Params",
    "ScoreVector",
    "h_enumerate",
    "h_membership",
    "helper_universe",
    "majorizes",
    "params_new",
    "score_vectors",
    "ConnectError",
    "ConnectResult",
    "ConnectState",
    "InternalContradiction",
    "connect_run",
    "initial_perm",
    "AttemptsExhausted",
    "CodeError",
    "CodeState",
    "ConstructionFailed",
    "RepairFailed",
    "construct",
    "decode",
    "encode",
    "invariant_check",
    "reconstruct_check",
    "repair_random",
    "required_field_size",
    "state_from_dict",
    "state_to_dict",
    "witness_repair_check",
    "ExactCodeError",
    "build_exact_code",
    "exact_repair",
    "repair_rule",
    "verify_exact_code",
    "SimConfig",
    "SimReport",
    "run_cli",
    "simulate",
]
