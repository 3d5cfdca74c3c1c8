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
guessed, from the coding matrices.  verify_exact_code replays every
rule once, on the four-file block that holds the packets of all four
basis files, to confirm bit-exact regeneration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .galois import (
    FieldConfig,
    FieldMatrix,
    GaloisError,
    NotPrime,
    field_new,
    identity,
    is_prime,
    mat_hstack,
    mat_inv,
    mat_mul,
    mat_rank,
    mat_solve,
)
from .code_core import CodeState, decode, encode
from .mfhs import Params, params_new

FAMILY_A = (1, 2, 3)
FAMILY_B = (4, 5, 6)
MIN_FIELD = 7


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
        return _params6321()


@lru_cache(maxsize=1)
def _params6321() -> Params:
    return params_new(6, 3, 2, 1)


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


def _structural_entries(code: ExactCode) -> tuple[list[dict], list[dict]]:
    """Structural conditions every valid code instance satisfies.

    Returns one entry per four-column generator selection (invertible
    for the MDS property) and one per within-family node pair (its four
    columns span the file), each with an "ok" verdict.
    """
    mds = []
    for subset in itertools.combinations(range(6), 4):
        cols = mat_hstack([_generator_column(code, j) for j in subset])
        mds.append({"columns": [j + 1 for j in subset], "ok": mat_rank(cols) == 4})
    pairs = []
    for fam in (FAMILY_A, FAMILY_B):
        for i, j in itertools.combinations(fam, 2):
            ok = mat_rank(mat_hstack([code.Q[i - 1], code.Q[j - 1]])) == 4
            pairs.append({"pair": [i, j], "ok": ok})
    return mds, pairs


def _generator_column(code: ExactCode, j: int) -> FieldMatrix:
    return FieldMatrix(4, 1, code.generator.column(j), code.field)


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
    opposite = FAMILY_B if failed in FAMILY_A else FAMILY_A
    available = [x for x in opposite if x != unavailable]
    helpers = tuple(available[:2])
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
    """Replay every structural and repair obligation, recording each.

    Checks: all 15 four-column generator selections invertible, all six
    within-family node pairs full rank, file recovery from all 20 node
    triples, and bit-exact regeneration for all 30 (failed, unavailable)
    pairs: 30 regenerations of a four-file block.  The file X = I_4
    stores Q_i itself at node i, and row j of that W x 2 block is what
    the basis file e_j stores; regeneration acts on each row alone, so
    one regeneration replays a rule on all four basis files.  Nothing is
    assumed from the construction; a tampered code yields a failing
    report, not an exception.
    """
    mds, pairs = _structural_entries(code)

    state = as_code_state(code)
    file = FieldMatrix(4, 1, tuple(v % code.field.q for v in (1, 2, 3, 4)), code.field)
    stored = encode(state, file)
    recon = []
    for triple in itertools.combinations(range(1, 7), 3):
        try:
            recovered = decode(state, triple, [stored[i - 1] for i in triple])
            ok = recovered == file
        except Exception:
            ok = False
        recon.append({"nodes": list(triple), "ok": ok})

    basis = encode(as_code_state(code, packet_width=4), identity(4, code.field))
    repairs = []
    for failed in range(1, 7):
        for unavailable in range(1, 7):
            if unavailable == failed:
                continue
            try:
                ok = exact_repair(code, basis, failed, unavailable) == basis[failed - 1]
            except (GaloisError, ExactCodeError):
                ok = False
            repairs.append({"failed": failed, "unavailable": unavailable, "ok": ok})

    passed = (
        all(e["ok"] for e in mds)
        and all(e["ok"] for e in pairs)
        and all(e["ok"] for e in recon)
        and all(e["ok"] for e in repairs)
    )
    return ExactVerifyReport(
        q=code.field.q,
        mds_subsets=tuple(mds),
        family_pairs=tuple(pairs),
        reconstructions=tuple(recon),
        exact_repairs=tuple(repairs),
        passed=passed,
    )


def code_to_dict(code: ExactCode) -> dict:
    """JSON form with the rule table spelled out."""
    from .galois import matrix_to_dict

    rules = []
    for failed in range(1, 7):
        for unavailable in range(1, 7):
            if unavailable == failed:
                continue
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
