"""Hand-built exact-repair code on six nodes in two families.

Parameters are n=6, k=3, d=2, r=1: file size M=4, two packets per
node, and any repair downloads one packet from each of two helpers in
the opposite family, tolerating one unavailable candidate there.

The construction starts from a systematic (6,4) MDS generator
G = [I_4 | p | pbar] whose parity columns carry coefficient pairs
a = (a1,a2), b = (b1,b2) and abar, bbar.  The parity block is a Cauchy
matrix, so every square submatrix of it is invertible; that single fact
delivers the MDS property and every 2x2 solve the repair rules need.
Writing ua = (a1,a2,0,0), vb = (0,0,b1,b2) and so on, the coding
matrices are

    Q1 = [e1 e2]        Q4 = [ua vb]
    Q2 = [e3 e4]        Q5 = [uabar vbbar]
    Q3 = [p pbar]       Q6 = [ua+uabar vb+vbbar]

Family A is {1,2,3}, family B is {4,5,6}.  Each repair rule names the
one packet every helper sends (a coefficient pair over its two stored
packets); the newcomer's 2x2 combine matrix is then solved, not
guessed, from the coding matrices.  verify_exact_code decides every
one of its 71 report entries -- structure, reconstruction and bit-exact
regeneration -- by full-column-rank certificates, batched through
galois.full_column_rank; its docstring proves that each certificate
gives the verdict decode and exact_repair would.  Those two stay the
reference the certificates are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .galois import (
    FieldConfig,
    FieldMatrix,
    NotPrime,
    field_new,
    full_column_rank,
    is_prime,
    mat_hstack,
    mat_inv,
    mat_mul,
    mat_solve,
    residue_array,
)
from .code_core import (
    CodeState,
    decode,  # unused here; perfbench/spans.py wraps this binding
    reconstruct_verdicts,
)
from .mfhs import Params, params_new

FAMILY_A = (1, 2, 3)
FAMILY_B = (4, 5, 6)
MIN_FIELD = 7
_PARAMS6321 = params_new(6, 3, 2, 1)

# Report order of each group of verify_exact_code's entries.
_MDS_SUBSETS = tuple(itertools.combinations(range(6), 4))
_FAMILY_PAIRS = tuple(
    pair for fam in (FAMILY_A, FAMILY_B) for pair in itertools.combinations(fam, 2)
)
_TRIPLES = tuple(itertools.combinations(range(1, 7), 3))
_RULES = tuple(itertools.permutations(range(1, 7), 2))


class ExactCodeError(Exception):
    pass


class FieldTooSmall(ExactCodeError):
    """The construction needs GF(q) with q >= 7."""


class InvalidPair(ExactCodeError):
    """(failed, unavailable) is not a pair of distinct nodes in 1..6."""


@dataclass(frozen=True)
class RepairRule:
    """One packet per helper plus the newcomer's 2x2 combine.

    helper_sends maps each of the two helpers to the coefficient pair
    it applies to its own stored packets.  Receiving packets in
    ascending helper order, the newcomer right-multiplies by
    newcomer_combine to obtain the failed node's two packets exactly.
    """

    failed: int
    unavailable: int
    helper_sends: dict[int, tuple[int, int]]
    newcomer_combine: FieldMatrix

    @property
    def helpers(self) -> tuple[int, ...]:
        return tuple(sorted(self.helper_sends))


@dataclass(frozen=True)
class ExactCode:
    """The six coding matrices plus the generator they came from."""

    field: FieldConfig
    generator: FieldMatrix
    a: tuple[int, int]
    abar: tuple[int, int]
    b: tuple[int, int]
    bbar: tuple[int, int]
    Q: tuple[FieldMatrix, ...]

    @property
    def params(self) -> Params:
        return _PARAMS6321


def _column(vec: Sequence[int], field: FieldConfig) -> FieldMatrix:
    return FieldMatrix(len(vec), 1, tuple(v % field.q for v in vec), field)


def build_exact_code(q: int = 7) -> ExactCode:
    """Construct the code over GF(q), q prime and at least 7.

    The parity coefficients come from the Cauchy array 1/(x_i - y_j)
    with x = (0,1,2,3) and y = (4,5); those six values are distinct in
    any field of size 7 or more, which is exactly what every repair
    rule's solvability needs.  All structural conditions are verified
    here rather than assumed.
    """
    if q < MIN_FIELD:
        raise FieldTooSmall(f"GF({q}) cannot host the construction, need q >= {MIN_FIELD}")
    if not is_prime(q):
        raise NotPrime(q)
    field = field_new(q)

    xs = (0, 1, 2, 3)
    ys = (4, 5)
    parity = [
        [pow((x - y) % q, q - 2, q) for y in ys]
        for x in xs
    ]
    a = (parity[0][0], parity[1][0])
    b = (parity[2][0], parity[3][0])
    abar = (parity[0][1], parity[1][1])
    bbar = (parity[2][1], parity[3][1])

    gen_rows = [
        [1 if i == j else 0 for j in range(4)] + [parity[i][0], parity[i][1]]
        for i in range(4)
    ]
    generator = FieldMatrix.from_rows(gen_rows, field)

    ua = (a[0], a[1], 0, 0)
    vb = (0, 0, b[0], b[1])
    uabar = (abar[0], abar[1], 0, 0)
    vbbar = (0, 0, bbar[0], bbar[1])
    p_col = tuple(parity[i][0] for i in range(4))
    pbar_col = tuple(parity[i][1] for i in range(4))

    def pair(c1: Sequence[int], c2: Sequence[int]) -> FieldMatrix:
        return mat_hstack([_column(c1, field), _column(c2, field)])

    matrices = (
        pair((1, 0, 0, 0), (0, 1, 0, 0)),
        pair((0, 0, 1, 0), (0, 0, 0, 1)),
        pair(p_col, pbar_col),
        pair(ua, vb),
        pair(uabar, vbbar),
        pair([(x + y) % q for x, y in zip(ua, uabar)], [(x + y) % q for x, y in zip(vb, vbbar)]),
    )

    code = ExactCode(
        field=field, generator=generator, a=a, abar=abar, b=b, bbar=bbar, Q=matrices
    )
    mds, pairs = _structural_entries(code)
    failing = [e for e in mds + pairs if not e["ok"]]
    if failing:
        raise ExactCodeError(f"structural checks failed: {failing}")
    return code


def _arrays(code: ExactCode) -> tuple[np.ndarray, np.ndarray]:
    """The 4 x 6 generator and the 6 x 4 x 2 stack of coding matrices,
    as galois.residue_array."""
    q = code.field.q
    generator = residue_array(code.generator.entries, q).reshape(4, 6)
    nodes = residue_array([qm.entries for qm in code.Q], q).reshape(6, 4, 2)
    return generator, nodes


_MDS_COLUMNS = np.array(_MDS_SUBSETS, dtype=np.intp)
_PAIR_NODES = np.array(_FAMILY_PAIRS, dtype=np.intp) - 1


def _structural_entries(code: ExactCode) -> tuple[list[dict], list[dict]]:
    """Structural conditions every valid code instance satisfies.

    Returns one entry per four-column generator selection (invertible
    for the MDS property) and one per within-family node pair (its four
    columns span the file), each with an "ok" verdict.  All 21 are 4 x 4
    full-rank tests, decided in one batched kernel call.
    """
    generator, nodes = _arrays(code)
    stack = np.concatenate([
        generator[:, _MDS_COLUMNS].transpose(1, 0, 2),
        np.concatenate([nodes[_PAIR_NODES[:, 0]], nodes[_PAIR_NODES[:, 1]]], axis=2),
    ])
    ok = full_column_rank(stack, code.field.q).tolist()
    mds = [{"columns": [j + 1 for j in subset], "ok": v}
           for subset, v in zip(_MDS_SUBSETS, ok)]
    pairs = [{"pair": list(pair), "ok": v}
             for pair, v in zip(_FAMILY_PAIRS, ok[len(_MDS_SUBSETS):])]
    return mds, pairs


def _helpers(failed: int, unavailable: int) -> tuple[int, ...]:
    """The opposite family minus the unavailable node, lowest two first."""
    opposite = FAMILY_B if failed in FAMILY_A else FAMILY_A
    return tuple([x for x in opposite if x != unavailable][:2])


def _sends_for(code: ExactCode, failed: int, helper: int) -> tuple[int, int]:
    """Coefficient pair helper applies to its own packets for this repair.

    Family-B newcomers receive their first (a-side) packet from node 1,
    their second (b-side) packet from node 2, and their packet total
    from node 3.  Family-A newcomers receive one fixed packet from any
    family-B helper: node 1 asks for first packets, node 2 for second
    packets, node 3 for the per-helper packet sum.  Either way two
    received packets pin the two lost ones down through an invertible
    2x2 system.
    """
    q = code.field.q
    if failed in FAMILY_B:
        first, second = {
            4: (code.a, code.b),
            5: (code.abar, code.bbar),
            6: (
                tuple((x + y) % q for x, y in zip(code.a, code.abar)),
                tuple((x + y) % q for x, y in zip(code.b, code.bbar)),
            ),
        }[failed]
        if helper == 1:
            return (first[0], first[1])
        if helper == 2:
            return (second[0], second[1])
        # node 3 owns the parity packets; the sum of the failed node's
        # packets equals a fixed combination of them
        return {4: (1, 0), 5: (0, 1), 6: (1, 1)}[failed]
    if failed == 1:
        return (1, 0)
    if failed == 2:
        return (0, 1)
    return (1, 1)


def repair_rule(code: ExactCode, failed: int, unavailable: int) -> RepairRule:
    """Rule for regenerating `failed` while `unavailable` cannot serve.

    Helpers are the opposite family minus the unavailable node; when the
    unavailable node sits in the failed node's own family the two
    lowest-indexed helpers serve.  The combine matrix is solved from the
    coding matrices: with w_j the file-space vector helper j's packet
    represents, solving Q_failed C = [w_1 w_2] and inverting C maps
    received packets onto the lost ones.
    """
    if failed == unavailable or not (1 <= failed <= 6) or not (1 <= unavailable <= 6):
        raise InvalidPair(f"failed={failed}, unavailable={unavailable}")
    helpers = _helpers(failed, unavailable)
    sends = {x: _sends_for(code, failed, x) for x in helpers}

    received = mat_hstack([
        mat_mul(code.Q[x - 1], _column(sends[x], code.field)) for x in helpers
    ])
    coeffs = mat_solve(code.Q[failed - 1], received)
    if coeffs is None:
        raise ExactCodeError(
            f"rule ({failed},{unavailable}): received packets leave the failed span"
        )
    return RepairRule(
        failed=failed,
        unavailable=unavailable,
        helper_sends=sends,
        newcomer_combine=mat_inv(coeffs),
    )


def exact_repair(
    code: ExactCode,
    stored: Sequence[FieldMatrix],
    failed: int,
    unavailable: int,
) -> FieldMatrix:
    """Regenerate the failed node's W x 2 packet block bit-exactly.

    stored[i-1] is node i's W x 2 packet block as produced by encode.
    Only the two helpers named by the rule are read.
    """
    rule = repair_rule(code, failed, unavailable)
    received = mat_hstack([
        mat_mul(stored[x - 1], _column(rule.helper_sends[x], code.field))
        for x in rule.helpers
    ])
    return mat_mul(received, rule.newcomer_combine)


def as_code_state(code: ExactCode, packet_width: int = 1) -> CodeState:
    """View the code through the generic state container."""
    return CodeState(
        params=code.params,
        field=code.field,
        packet_width=packet_width,
        Q=code.Q,
    )


@dataclass(frozen=True)
class ExactVerifyReport:
    """Outcome of the full structural and behavioral verification."""

    q: int
    mds_subsets: tuple[dict, ...]
    family_pairs: tuple[dict, ...]
    reconstructions: tuple[dict, ...]
    exact_repairs: tuple[dict, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "mds_subsets": list(self.mds_subsets),
            "family_pairs": list(self.family_pairs),
            "reconstructions": list(self.reconstructions),
            "exact_repairs": list(self.exact_repairs),
            "passed": self.passed,
        }


def verify_exact_code(code: ExactCode) -> ExactVerifyReport:
    """Decide every structural and repair obligation, recording each.

    Checks: all 15 four-column generator selections invertible, all six
    within-family node pairs full rank, file recovery from all 20 node
    triples, and bit-exact regeneration for all 30 (failed, unavailable)
    pairs.  Every entry is a full-column-rank certificate, and the whole
    report takes four batched galois.full_column_rank calls.  Nothing is
    assumed from the construction; a tampered code yields a failing
    report, not an exception.  Two lemmas show that each certificate
    gives the verdict a replay through decode and exact_repair gives.

    Lemma R (reconstruction).  Triple T's entry passes exactly when its
    6 x 4 block [Q_i]_{i in T}^T has full column rank, the per-subset
    verdict of code_core.reconstruct_verdicts.  The stored packets are
    encode(file), so decode's system Q_T^T X = P_T^T is consistent: the
    file solves it.  mat_solve returns the unique solution, hence the
    file, exactly when Q_T^T has full column rank, and None otherwise,
    which decode raises as RankDeficient.

    Lemma E (exact repair).  Rule (f, u) passes exactly when Q_f and
    R = [Q_{h1} s_1 | Q_{h2} s_2] have full column rank and neither
    [Q_f | r_1] nor [Q_f | r_2] does, where h_j are the rule's helpers,
    s_j their send pairs and r_j the columns of R.  Replay the rule on
    the identity file X = I_4: node i stores basis_i = Q_i, row j of
    which is what the basis file e_j stores, and regeneration acts on
    each row alone, so this one replay covers every file.  The helpers
    send exactly R, and repair_rule solves Q_f C = R.  That solve is
    unique exactly when Q_f has full column rank and R lies in
    span(Q_f), that is, when neither [Q_f | r_j] has full column rank;
    mat_inv(C) then succeeds exactly when R has full column rank, since
    rank R = rank C.  In that case the newcomer's R C^-1 = Q_f, and in
    every other case repair_rule raises, so the replay returns basis_f
    exactly when the certificate holds.
    """
    mds, pairs = _structural_entries(code)
    recon_ok = reconstruct_verdicts(as_code_state(code)).tolist()
    recon = [{"nodes": list(triple), "ok": v} for triple, v in zip(_TRIPLES, recon_ok)]
    repairs = [{"failed": f, "unavailable": u, "ok": v}
               for (f, u), v in zip(_RULES, _repair_verdicts(code))]
    passed = all(e["ok"] for group in (mds, pairs, recon, repairs) for e in group)
    return ExactVerifyReport(
        q=code.field.q,
        mds_subsets=tuple(mds),
        family_pairs=tuple(pairs),
        reconstructions=tuple(recon),
        exact_repairs=tuple(repairs),
        passed=passed,
    )


_RULE_HELPERS = tuple(_helpers(f, u) for f, u in _RULES)
_RULE_FAILED_INDEX = np.array([f for f, _ in _RULES], dtype=np.intp) - 1
_RULE_HELPER_INDEX = np.array(_RULE_HELPERS, dtype=np.intp) - 1


def _repair_verdicts(code: ExactCode) -> list[bool]:
    """Lemma E's certificate for every rule, in _RULES order: two batched
    kernel calls, one on 4 x 2 and one on 4 x 3 matrices."""
    q = code.field.q
    _, nodes = _arrays(code)
    sends = residue_array(
        [[[v % q for v in _sends_for(code, f, h)] for h in helpers]
         for (f, _), helpers in zip(_RULES, _RULE_HELPERS)],
        q,
    )
    # column j of R is helper j's 4 x 2 block times its send pair; in
    # int64 (q < 2^31) each of the two products stays under 2^62
    products = nodes[_RULE_HELPER_INDEX] * sends[:, :, None, :]
    received = (products.sum(axis=3) % q).transpose(0, 2, 1)
    own = nodes[_RULE_FAILED_INDEX]
    full = full_column_rank(np.concatenate([own, received]), q)
    spans = full_column_rank(np.concatenate([
        np.concatenate([own, received[:, :, j:j + 1]], axis=2) for j in (0, 1)
    ]), q)
    count = len(_RULES)
    return (full[:count] & full[count:] & ~spans[:count] & ~spans[count:]).tolist()


def code_to_dict(code: ExactCode) -> dict:
    """JSON form with the rule table spelled out."""
    from .galois import matrix_to_dict

    rules = []
    for failed, unavailable in _RULES:
        rule = repair_rule(code, failed, unavailable)
        rules.append({
            "failed": failed,
            "unavailable": unavailable,
            "helper_sends": {str(x): list(rule.helper_sends[x]) for x in rule.helpers},
            "newcomer_combine": matrix_to_dict(rule.newcomer_combine),
        })
    return {
        "q": code.field.q,
        "generator": matrix_to_dict(code.generator),
        "coefficients": {
            "a": list(code.a),
            "abar": list(code.abar),
            "b": list(code.b),
            "bbar": list(code.bbar),
        },
        "Q": [matrix_to_dict(qm) for qm in code.Q],
        "repair_rules": rules,
    }
