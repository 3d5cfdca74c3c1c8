"""Hand-built exact-repair code on six nodes in two families.

Parameters are n=6, k=3, d=2, r=1: file size M=4, two packets per
node, and any repair downloads one packet from each of two helpers in
the opposite family, tolerating one unavailable candidate there.

The code is its six coding matrices, 4 x 2 each, built from two parity
columns p and pbar of a Cauchy matrix, so every square submatrix of
[p pbar] is invertible; that single fact delivers the MDS property and
every 2x2 solve the repair rules need.  Writing top(c) = (c1,c2,0,0)
and bottom(c) = (0,0,c3,c4) for the halves of a column c, they are

    Q1 = [e1 e2]        Q4 = [top(p)      bottom(p)]
    Q2 = [e3 e4]        Q5 = [top(pbar)   bottom(pbar)]
    Q3 = [p pbar]       Q6 = [top(p+pbar) bottom(p+pbar)]

so [Q1 | Q2 | Q3] = [I_4 | p pbar] is a systematic (6,4) MDS generator
G.  The code is a code_core.CodeState of (6,3,2,1) holding these six
matrices, so encode, decode and reconstruct_check take it as they take
a random code.  generator(code) reads G off it, and parity_pairs(code)
the parity pairs a = (p1,p2), b = (p3,p4), abar = (pbar1,pbar2) and
bbar = (pbar3,pbar4).  repair_rule and verify_exact_code, and so
exact_repair and code_to_dict, raise ExactCodeError for a state of
other parameters.

Family A is {1,2,3}, family B is {4,5,6}.  Each repair rule names the
one packet every helper sends (a coefficient pair over its two stored
packets); the newcomer's 2x2 combine matrix is then solved, not
guessed, from the coding matrices.  verify_exact_code decides every
one of its 71 report entries -- structure, reconstruction and bit-exact
regeneration -- by full-column-rank certificates: 161 matrices of at
most 6 x 4, each padded to exactly 6 x 4 without changing its verdict
(Lemma P), gathered from the six matrices' entries and decided by one
galois.full_column_rank call.  Its docstring proves that each
certificate gives the verdict decode and exact_repair would.  Those two
stay the reference the certificates are tested against.
build_exact_code ranks nothing: its docstring proves that the 21
structural certificates hold for every code it builds, and
verify_exact_code is the one place that decides them, for a valid code
and a tampered one alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .galois import (
    FieldMatrix,
    field_new,
    full_column_rank,
    mat_hstack,
    mat_inv,
    mat_mul,
    mat_solve,
    residue_array,
)
from .code_core import (
    CodeState,
    decode,  # unused here; perfbench/spans.py wraps this binding
)
from .mfhs import params_new

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


def generator(code: CodeState) -> FieldMatrix:
    """The systematic generator [Q_1 | Q_2 | Q_3]."""
    return mat_hstack(code.Q[:3])


def parity_pairs(code: CodeState) -> dict[str, tuple[int, int]]:
    """a, abar, b and bbar: the halves of Q_3's two columns.  Q_3 =
    [p pbar] is stored row-major, so column j's entries sit at j, j + 2,
    j + 4 and j + 6."""
    e = code.Q[2].entries
    return {"a": e[0:4:2], "abar": e[1:4:2], "b": e[4::2], "bbar": e[5::2]}


def _check_params(code: CodeState) -> None:
    """Raise ExactCodeError unless code is a (6,3,2,1) state."""
    if code.params != _PARAMS6321:
        p = code.params
        raise ExactCodeError(f"the six-node code is (6,3,2,1), got ({p.n},{p.k},{p.d},{p.r})")


def build_exact_code(q: int = 7) -> CodeState:
    """Construct the code over GF(q), q prime and at least 7.

    The parity columns are p = 1/(x - 4) and pbar = 1/(x - 5) over
    x = 0, 1, 2, 3, the Cauchy array 1/(x_i - y_j) with y = (4, 5).
    Raises FieldTooSmall below 7 and, through field_new, NotPrime for
    a composite q.

    Nothing is ranked here, because the 21 structural certificates that
    verify_exact_code decides hold for every code this builds:
      - x = 0..3 and y = 4, 5 are six values, distinct mod any prime
        q >= 7, so every square submatrix of [p pbar] is a nonsingular
        Cauchy matrix.
      - MDS: any four columns of G = [I_4 | p pbar] have, as their
        determinant, +- a minor of the parity block [p pbar] (the empty
        minor being 1), on the rows of the identity columns left out.
      - Family A: [Q_1 | Q_2] = I_4, and [Q_1 | Q_3] and [Q_2 | Q_3]
        are MDS selections.
      - Family B: [Q_a | Q_b] = [top(c) bottom(c) top(c') bottom(c')]
        permutes to a block-diagonal matrix.  Its two 2 x 2 blocks are
        the top and bottom minors of [c c'] = [p pbar] T, where T's
        columns are two of (1,0), (0,1) and (1,1); any two of those are
        independent, so T is invertible and both blocks are nonsingular.
    """
    if q < MIN_FIELD:
        raise FieldTooSmall(f"GF({q}) cannot host the construction, need q >= {MIN_FIELD}")
    field = field_new(q)
    p, pbar = ([pow(x - y, -1, q) for x in range(4)] for y in (4, 5))

    def halves(c: Sequence[int]) -> list[list[int]]:
        return [[c[0], 0], [c[1], 0], [0, c[2]], [0, c[3]]]

    rows = (
        [[1, 0], [0, 1], [0, 0], [0, 0]],
        [[0, 0], [0, 0], [1, 0], [0, 1]],
        [list(pair) for pair in zip(p, pbar)],
        halves(p),
        halves(pbar),
        halves([x + y for x, y in zip(p, pbar)]),
    )
    return CodeState(params=_PARAMS6321, field=field, packet_width=1,
                     Q=tuple(FieldMatrix.from_rows(r, field) for r in rows))


# Every certificate is gathered from one source vector: the residues 0
# and 1, then Q_1, ..., Q_6, each as its row-major 4 x 2 entries, then
# (for verify_exact_code) the 30 rules' received columns.  So the
# certificates are one fixed index table into it.
_ZERO, _ONE = 0, 1
_RECEIVED = 2 + 6 * 8  # past 0, 1 and the six matrices' 8 entries each


def _entry(node: int, row: int, col: int) -> int:
    """Where entry (row, col) of Q_node sits in the source vector."""
    return 2 + (node - 1) * 8 + row * 2 + col


def _source(code: CodeState) -> np.ndarray:
    """The source vector up to the received columns, as a
    galois.residue_array of the code's field."""
    return residue_array([_ZERO, _ONE, *itertools.chain.from_iterable(
        qm.entries for qm in code.Q)], code.field.q)


def _helpers(failed: int, unavailable: int) -> tuple[int, ...]:
    """The opposite family minus the unavailable node, lowest two first."""
    opposite = FAMILY_B if failed in FAMILY_A else FAMILY_A
    return tuple([x for x in opposite if x != unavailable][:2])


# Sends by the failed node's position in its family (see _send_entries).
_POSITION_SENDS = ((1, 0), (0, 1), (1, 1))


def _send_entries(failed: int, helper: int) -> tuple[int, int]:
    """Where, in the source vector (_source), the coefficient pair that
    helper applies to its own packets for this repair sits.

    A family-B newcomer's Q_failed is [top(c) bottom(c)] for one parity
    column c.  Node 1 stores [e1 e2], so sending the top half of c
    gives top(c); node 2 stores [e3 e4], so sending the bottom half of
    c gives bottom(c); both halves are read from Q_failed itself.  Every
    other send is _POSITION_SENDS at the failed node's position in its
    family, and its coefficients 0 and 1 are the source vector's first
    two entries, so the pair is its own position.  Node 3 stores
    [p pbar], and the family-B newcomer's packet total top(c) +
    bottom(c) = c is p, pbar or p + pbar, so node 3 sends that
    combination of its packets; a family-A newcomer asks each family-B
    helper for its first packet, its second or their sum.  Either way
    two received packets pin the two lost ones down through an
    invertible 2x2 system.
    """
    if failed in FAMILY_B and helper in (1, 2):
        # helper j sends half j of Q_failed's column j
        return (_entry(failed, 2 * helper - 2, helper - 1),
                _entry(failed, 2 * helper - 1, helper - 1))
    return _POSITION_SENDS[(failed - 1) % 3]


def repair_rule(code: CodeState, failed: int, unavailable: int) -> RepairRule:
    """Rule for regenerating `failed` while `unavailable` cannot serve.

    Helpers are the opposite family minus the unavailable node; when the
    unavailable node sits in the failed node's own family the two
    lowest-indexed helpers serve.  The combine matrix is solved from the
    coding matrices: with w_j the file-space vector helper j's packet
    represents, solving Q_failed C = [w_1 w_2] and inverting C maps
    received packets onto the lost ones.
    """
    _check_params(code)
    if failed == unavailable or not (1 <= failed <= 6) or not (1 <= unavailable <= 6):
        raise InvalidPair(f"failed={failed}, unavailable={unavailable}")
    helpers = _helpers(failed, unavailable)
    source = _source(code)
    sends = {x: tuple(source[list(_send_entries(failed, x))].tolist()) for x in helpers}

    received = mat_hstack([
        mat_mul(code.Q[x - 1], FieldMatrix.from_rows([[v] for v in sends[x]], code.field))
        for x in helpers
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
    code: CodeState,
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
        mat_mul(stored[x - 1], FieldMatrix.from_rows([[v] for v in rule.helper_sends[x]],
                                                     code.field))
        for x in rule.helpers
    ])
    return mat_mul(received, rule.newcomer_combine)


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


def verify_exact_code(code: CodeState) -> ExactVerifyReport:
    """Decide every structural and repair obligation, recording each.

    Checks: all 15 four-column generator selections invertible, all six
    within-family node pairs full rank, file recovery from all 20 node
    triples, and bit-exact regeneration for all 30 (failed, unavailable)
    pairs.  Every entry is decided by full-column-rank certificates, 161
    small matrices in all, and the whole report takes one
    galois.full_column_rank call on them, each padded to 6 x 4 (Lemma
    P).  Nothing is assumed from the construction; a tampered code
    yields a failing report, not an exception.  Two lemmas show that
    each certificate gives the verdict a replay through decode and
    exact_repair gives.

    Lemma P (padding).  For an m x s matrix A with s <= 4 and
    m + 4 - s <= 6, let A' be [[A, 0], [0, I_{4-s}]] with zero rows
    appended up to six.  Then A' has full column rank 4 exactly when A
    has full column rank s.  Zero rows change no rank, and the block
    diagonal matrix has rank rank(A) + (4 - s), which is 4 exactly when
    rank(A) = s.  The certificates are 21 structural 4 x 4 matrices, 20
    reconstruction blocks of 6 x 4, and Lemma E's 60 matrices of 4 x 2
    and 60 of 4 x 3, so all 161 fit one 6 x 4 stack.

    Lemma R (reconstruction).  Triple T's entry passes exactly when its
    6 x 4 block [Q_i]_{i in T}^T has full column rank; that block is
    the one code_core.reconstruct_verdicts ranks for T.  The stored
    packets are encode(file), so decode's system Q_T^T X = P_T^T is
    consistent: the file solves it.  mat_solve returns the unique
    solution, hence the file, exactly when Q_T^T has full column rank,
    and None otherwise, which decode raises as RankDeficient.

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
    _check_params(code)
    mds_ok, pairs_ok, recon_ok, rules = np.split(
        _certificate_verdicts(code),
        np.cumsum([len(_MDS_SUBSETS), len(_FAMILY_PAIRS), len(_TRIPLES)]))
    mds = [{"columns": [j + 1 for j in subset], "ok": v}
           for subset, v in zip(_MDS_SUBSETS, mds_ok.tolist())]
    pairs = [{"pair": list(pair), "ok": v} for pair, v in zip(_FAMILY_PAIRS, pairs_ok.tolist())]
    recon = [{"nodes": list(triple), "ok": v} for triple, v in zip(_TRIPLES, recon_ok.tolist())]
    own, received, first, second = rules.reshape(4, len(_RULES))
    repair_ok = own & received & ~first & ~second
    repairs = [{"failed": f, "unavailable": u, "ok": v}
               for (f, u), v in zip(_RULES, repair_ok.tolist())]
    passed = all(e["ok"] for group in (mds, pairs, recon, repairs) for e in group)
    return ExactVerifyReport(
        q=code.field.q,
        mds_subsets=tuple(mds),
        family_pairs=tuple(pairs),
        reconstructions=tuple(recon),
        exact_repairs=tuple(repairs),
        passed=passed,
    )


def _padded(columns: Sequence[Sequence[int]]) -> list[list[int]]:
    """The 6 x 4 matrix [[A, 0], [0, I_{4-s}]], with zero rows below, of
    the m x s matrix A whose columns are given as source positions; it
    needs m + 4 - s <= 6.  See verify_exact_code's Lemma P."""
    m, s = len(columns[0]), len(columns)
    rows = [[column[i] for column in columns] + [_ZERO] * (4 - s) for i in range(m)]
    rows += [[_ONE if j == s + i else _ZERO for j in range(4)] for i in range(4 - s)]
    return rows + [[_ZERO] * 4] * (6 - len(rows))


def _node(node: int) -> list[list[int]]:
    """Q_node's two columns as source positions."""
    return [[_entry(node, i, col) for i in range(4)] for col in range(2)]


def _received(rule: int, j: int) -> list[int]:
    """Column j of R for rule number rule of _RULES, as source
    positions; _certificate_verdicts writes it there."""
    return [_RECEIVED + rule * 8 + j * 4 + i for i in range(4)]


_RULE_HELPERS = tuple(_helpers(f, u) for f, u in _RULES)
# The 161 certificates in report order, as one (161, 6, 4) index table
# into the source vector: the 15 MDS selections, whose generator column
# c is column c % 2 of Q_{c // 2 + 1}; the 6 within-family pairs
# [Q_a | Q_b]; the 20 triples' blocks Q_T^T; then Lemma E's Q_f, R,
# [Q_f | r_1] and [Q_f | r_2], 30 of each, in _RULES order.
_CERTIFICATES = np.array(
    [_padded([[_entry(c // 2 + 1, i, c % 2) for i in range(4)] for c in subset])
     for subset in _MDS_SUBSETS]
    + [_padded(_node(a) + _node(b)) for a, b in _FAMILY_PAIRS]
    + [_padded([[_entry(x, i, col) for x in triple for col in range(2)] for i in range(4)])
       for triple in _TRIPLES]
    + [_padded(_node(f)) for f, _ in _RULES]
    + [_padded([_received(rule, 0), _received(rule, 1)]) for rule in range(len(_RULES))]
    + [_padded(_node(f) + [_received(rule, j)])
       for j in (0, 1) for rule, (f, _) in enumerate(_RULES)],
    dtype=np.intp,
)
# helper j's block of rule number rule, [rule, j, row, col], and the
# pair it sends, [rule, j, col], both as source positions
_HELPER_BLOCKS = np.array([[[[_entry(x, i, col) for col in range(2)] for i in range(4)]
                            for x in helpers] for helpers in _RULE_HELPERS], dtype=np.intp)
_SEND_ENTRIES = np.array([[_send_entries(f, x) for x in helpers]
                          for (f, _), helpers in zip(_RULES, _RULE_HELPERS)], dtype=np.intp)


def _certificate_verdicts(code: CodeState) -> np.ndarray:
    """Which of the 161 certificates of _CERTIFICATES have full column
    rank: one galois.full_column_rank call.  Column j of each rule's R
    is helper j's block times its send pair, each product reduced mod q
    before the sum, so the sum stays below 2q in any dtype."""
    q = code.field.q
    source = _source(code)
    products = source[_HELPER_BLOCKS] * source[_SEND_ENTRIES][:, :, None, :] % q
    received = products.sum(axis=3) % q
    return full_column_rank(np.concatenate([source, received.ravel()])[_CERTIFICATES], q)


def code_to_dict(code: CodeState) -> dict:
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
        "generator": matrix_to_dict(generator(code)),
        "coefficients": parity_pairs(code),
        "Q": [matrix_to_dict(qm) for qm in code.Q],
        "repair_rules": rules,
    }
