"""Named verification suites: seeded fuzzing of every model-level invariant.

A suite is a check of one instance: ``check(rng, cfg)`` draws the instance
from the deterministic generator stream, checks one family of invariants on
it, and returns None when they hold or ``(clause, payload)``: the first
clause that broke and a replayable input serialization, built only on that
failure path.  ``run_suite`` owns the loop: it creates the generator once,
calls the check ``cfg.count`` times, and builds the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import gln, oracles, torus
from .checks import ProblemFormatError
from .gln import (
    central_cocharacter,
    conj_limiter,
    is_semisimple_matrix,
    jkv_gln,
    jordan_chevalley,
    levi_part,
    limit_conj,
    rational_conjugacy,
)
from .intlinalg import pairing
from .oracles import FuzzConfig
from .polytope import origin_in_relint
from .ratlinalg import is_zero_mat, qinverse, qmat, qmul, qsub
from .serialize import (
    cocharacter_to_json,
    gln_problem_to_json,
    matrix_to_json,
    torus_problem_to_json,
)
from .torus import (
    GroupElement,
    act,
    compose_cocharacters,
    jkv_certifier,
    lambda_min,
    limit,
    limit_survey,
    same_orbit,
)


@dataclass
class Failure:
    index: int
    clause: str
    payload: dict


@dataclass
class VerificationReport:
    suite: str
    seed: int
    count: int
    instances: int
    failures: list[Failure] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures


def _in_one_orbit(rep, v, w) -> bool:
    """True when same_orbit finds a g with g.v = w and acting by g on v
    re-verifies it."""
    g = same_orbit(rep, v, w)
    return g is not None and act(rep, g, v) == w


def _limit_clause(val, x) -> str | None:
    """The first clause that the limit val of the semisimple x breaks, or
    None: val is semisimple and rational_conjugacy finds a g with
    g val = x g, re-verified by multiplication."""
    if not is_semisimple_matrix(val):
        return "limit of a semisimple matrix must stay semisimple"
    g = rational_conjugacy(val, x)
    if g is None:
        return "limit not conjugate to the input"
    if qmul(g, val) != qmul(x, g):
        return "conjugacy witness failed re-verification"
    return None


def _limit_test(x):
    """clause_of(val), which is _limit_clause(val, x) decided once per
    distinct value of val (a QMat, hashable)."""
    clauses = {}

    def clause_of(val) -> str | None:
        if val not in clauses:
            clauses[val] = _limit_clause(val, x)
        return clauses[val]

    return clause_of


def _suite_limits(rng, cfg: FuzzConfig):
    """Dual-implementation agreement for limit existence and value."""
    rep, gamma = oracles.sample_torus_instance(rng, cfg)
    for lam in torus._box_iter(rep.rank, cfg.box):
        if limit(lam, gamma) != oracles.oracle_limit(lam, gamma):
            return f"disagreement at cocharacter {lam}", torus_problem_to_json(rep, gamma)
    return None


def _suite_semisimple(rng, cfg: FuzzConfig):
    """Relative-interior test against the circuit-enumeration oracle, with
    certificate verification on both verdicts."""
    ws = oracles.sample_weight_set(rng, max_rank=min(cfg.max_rank, 3))
    res = origin_in_relint(ws)
    truth = oracles.oracle_relint(ws)
    clause = None
    if res.inside != truth:
        clause = f"verdict {res.inside} against oracle {truth}"
    elif res.inside:
        bary = res.barycentric
        if set(bary) != set(ws.points) or any(c <= 0 for c in bary.values()):
            clause = "barycentric support"
        elif sum(bary.values()) != 1 or any(
            sum(c * chi[k] for chi, c in bary.items()) != 0 for k in range(ws.rank)
        ):
            clause = "barycentric identity"
    else:
        lam = res.separator
        if not all(pairing(lam, p) >= 0 for p in ws.points) or not any(
            pairing(lam, p) > 0 for p in ws.points
        ):
            clause = "separating cocharacter"
    if clause:
        return clause, {"rank": ws.rank, "points": [list(p) for p in ws.points]}
    return None


def _check_theorem_instance(rep, gamma, box):
    """All semisimple limits in the box are literally equal, with or without
    a finite part: ``limit`` ignores it.  Returns a clause or None."""
    ss = limit_survey(rep, gamma, box).semisimple_entries()
    for e in ss[1:]:
        if e.value != ss[0].value:
            return f"semisimple limits differ at {e.cocharacter}"
    return None


def _suite_theorem(rng, cfg: FuzzConfig):
    rep, gamma = oracles.sample_torus_instance(rng, cfg)
    clause = _check_theorem_instance(rep, gamma, cfg.box)
    if clause:
        return clause, torus_problem_to_json(rep, gamma)
    return None


def _suite_jkv_survey(rng, cfg: FuzzConfig):
    """The constructive decomposition certifies, and every semisimple survey
    entry is literally its semisimple part s and certifies along its own
    cocharacter.  One certifier of (s, n) serves every entry."""
    rep, gamma = oracles.sample_torus_instance(rng, cfg)
    s, n, lam = torus._constructive_parts(rep, gamma)
    certify = jkv_certifier(rep, gamma, s, n)
    if not certify(lam).ok:
        clause = "constructive decomposition failed its own certificate"
        return clause, torus_problem_to_json(rep, gamma)
    for e in limit_survey(rep, gamma, cfg.box).semisimple_entries():
        if e.value != s:
            clause = f"semisimple limit at {e.cocharacter} is not the constructive part"
        elif not certify(e.cocharacter).ok:
            clause = f"semisimple limit at {e.cocharacter} failed its certificate"
        else:
            continue
        return clause, torus_problem_to_json(rep, gamma)
    return None


def _suite_compose(rng, cfg: FuzzConfig):
    """Composition cocharacter: sign conditions, the three containments,
    minimality of n, and the composed-limit identity."""
    rep, gamma = oracles.sample_torus_instance(rng, cfg)
    lam0 = tuple(rng.randint(-3, 3) for _ in range(rep.rank))
    lam = tuple(rng.randint(-3, 3) for _ in range(rep.rank))
    clause = None
    n, mu = compose_cocharacters(rep, lam0, lam)
    weights = rep.weights()
    p0 = {chi: pairing(lam0, chi) for chi in weights}
    p1 = {chi: pairing(lam, chi) for chi in weights}
    pm = {chi: pairing(mu, chi) for chi in weights}
    if mu != tuple(n * a + b for a, b in zip(lam0, lam)):
        clause = "mu is not n*lam0 + lam"
    elif any((pm[c] == 0) != (p0[c] == 0 and p1[c] == 0) for c in weights):
        clause = "fixed-space intersection relation"
    elif any(p0[c] > 0 and pm[c] <= 0 for c in weights):
        clause = "positive-part containment"
    elif any(pm[c] >= 0 and p0[c] < 0 for c in weights):
        clause = "nonnegative-part containment"
    elif n > 1:
        prev = tuple((n - 1) * a + b for a, b in zip(lam0, lam))
        ok_prev = all(
            (p0[c] <= 0 or pairing(prev, c) > 0)
            and (p0[c] >= 0 or pairing(prev, c) < 0)
            for c in weights
        )
        if ok_prev:
            clause = "n is not minimal"
    if clause is None:
        v0 = limit(lam0, gamma)
        if v0 is not None:
            vprime = limit(lam, v0)
            if vprime is not None and limit(mu, gamma) != vprime:
                clause = "composed limit mismatch"
    if clause:
        problem = torus_problem_to_json(rep, gamma)
        return clause, {"problem": problem, "lambda0": list(lam0), "lambda": list(lam)}
    return None


def _suite_limit_conjugacy(rng, cfg: FuzzConfig):
    """Semisimple matrices: every existing limit is rationally conjugate to
    the input.  Each limit found is checked by ``_limit_test``, so a value
    that several cocharacters reach is decided once."""
    n = rng.randint(2, cfg.max_size)
    x, _, _ = oracles.sample_rational_spectrum_matrix(rng, n, diagonalizable=True)
    limit_of = conj_limiter(x)
    clause_of = _limit_test(x)
    clause = None
    found = 0
    tries = 0
    while found < 5 and tries < 200:
        tries += 1
        lam = oracles.sample_gln_cocharacter(rng, n)
        val = limit_of(lam)
        if val is None:
            continue
        found += 1
        clause = clause_of(val)
        if clause:
            break
    if found < 5 and clause is None:
        # pad with the central cocharacter, whose limit is x itself
        val = limit_of(central_cocharacter(n))
        if val != x or rational_conjugacy(val, x) is None:
            clause = "central limit must be the matrix itself"
    if clause:
        return clause, gln_problem_to_json(x)
    return None


def _suite_jkv_gln(rng, cfg: FuzzConfig):
    """The limit certificate's decomposition matches the construction's
    eigenvalue ground truth, and every certificate clause holds."""
    n = rng.randint(2, cfg.max_size)
    x, s_true, n_true = oracles.sample_rational_spectrum_matrix(rng, n)
    clause = None
    cert = jkv_gln(x)
    if cert.s != s_true or cert.n != n_true:
        clause = "decomposition disagrees with the construction ground truth"
    elif cert.n != qsub(qmat(x), cert.s):
        clause = "nilpotent part is not x - s"
    elif not cert.ok:
        clause = next(k for k, v in cert.clauses.items() if not v)
    if clause:
        return clause, gln_problem_to_json(x)
    return None


def _suite_jordan_chevalley(rng, cfg: FuzzConfig):
    """Algebraic invariants of the exact decomposition, plus conjugation
    equivariance."""
    n = rng.randint(2, cfg.max_size)
    x, s_true, _ = oracles.sample_rational_spectrum_matrix(rng, n)
    clause = None
    s, nm, p = jordan_chevalley(x)
    power = gln.mat_power(nm, n)
    if qsub(qmat(x), s) != qmat(nm):
        clause = "x != s + n"
    elif qmul(s, nm) != qmul(nm, s):
        clause = "parts do not commute"
    elif not is_zero_mat(power):
        clause = "nilpotency"
    elif not is_semisimple_matrix(s):
        clause = "semisimplicity of s"
    elif gln.eval_poly_matrix(p, x) != s:
        clause = "polynomial witness"
    elif s != s_true:
        clause = "eigenvalue oracle disagreement"
    else:
        h = oracles._random_unimodular(rng, n)
        hinv = qinverse(h)
        s2, n2, _ = jordan_chevalley(qmul(qmul(h, x), hinv))
        if s2 != qmul(qmul(h, s), hinv) or n2 != qmul(qmul(h, nm), hinv):
            clause = "conjugation equivariance"
    if clause:
        return clause, gln_problem_to_json(x)
    return None


def _suite_levi(rng, cfg: FuzzConfig):
    """The parabolic limit map is a homomorphism and intertwines limits."""
    n = rng.randint(2, cfg.max_size)
    lam = oracles.sample_gln_cocharacter(rng, n)
    p1 = oracles.sample_parabolic_element(rng, lam)
    p2 = oracles.sample_parabolic_element(rng, lam)
    x = oracles.sample_matrix_with_limit(rng, lam)
    clause = None
    if levi_part(lam, qmul(p1, p2)) != qmul(levi_part(lam, p1), levi_part(lam, p2)):
        clause = "homomorphism"
    else:
        val = limit_conj(lam, x)
        if val is None:
            clause = "sampled matrix must have a limit"
        else:
            h = levi_part(lam, p1)
            lhs = limit_conj(lam, qmul(qmul(p1, x), qinverse(p1)))
            rhs = qmul(qmul(h, val), qinverse(h))
            if lhs != rhs:
                clause = "limit equivariance"
    if clause:
        return clause, {
            "problem": gln_problem_to_json(x),
            "cocharacter": cocharacter_to_json(lam),
            "p1": matrix_to_json(p1),
            "p2": matrix_to_json(p2),
        }
    return None


def _suite_bruhat(rng, cfg: FuzzConfig):
    n = rng.randint(1, min(5, cfg.max_size + 1))
    g = oracles.sample_invertible_matrix(rng, n)
    clause = None
    p, w, u = gln.bruhat(g)
    if qmul(qmul(p, w), u) != g:
        clause = "product identity"
    elif any(p[i][j] != 0 for i in range(n) for j in range(i)):
        clause = "p not upper triangular"
    elif any(u[i][j] != 0 for i in range(n) for j in range(i)) or any(
        u[i][i] != 1 for i in range(n)
    ):
        clause = "u not upper unitriangular"
    elif any(x not in (0, 1) for row in w for x in row) or any(
        sum(line) != 1 for line in w + tuple(zip(*w))
    ):
        clause = "w not a permutation"
    if clause:
        return clause, gln_problem_to_json(g)
    return None


def _suite_lambda_min_shift(rng, cfg: FuzzConfig):
    """Acting by a torus element preserves the minimizing cocharacters and
    the limits stay in one orbit."""
    rep, gamma = oracles.sample_torus_instance(rng, cfg)
    try:
        dim0, wits = lambda_min(rep, gamma, cfg.box)
    except torus.BoxTooSmallError:
        return None
    p = GroupElement(tuple(oracles.random_nonzero_fraction(rng, 5) for _ in range(rep.rank)))
    moved = act(rep, p, gamma)
    if (dim0, wits) != lambda_min(rep, moved, cfg.box):
        return "minimizer set changed under the torus action", torus_problem_to_json(rep, gamma)
    for lam in wits:
        if not _in_one_orbit(rep, limit(lam, gamma), limit(lam, moved)):
            return f"shifted limits not in one orbit at {lam}", torus_problem_to_json(rep, gamma)
    return None


def _suite_commuting(rng, cfg: FuzzConfig):
    """Every in-box semisimple limit equals the one at a fixed minimizing
    cocharacter."""
    rep, gamma = oracles.sample_torus_instance(rng, cfg)
    survey = limit_survey(rep, gamma, cfg.box)
    try:
        _, wits = torus._lambda_min_of_survey(rep, survey)
    except torus.BoxTooSmallError:
        return None
    v0 = limit(wits[0], gamma)
    for e in survey.semisimple_entries():
        if e.value != v0:
            clause = f"limit at {e.cocharacter} differs from the limit at the minimizer"
            return clause, torus_problem_to_json(rep, gamma)
    return None


_SUITES = {
    "limits": _suite_limits,
    "semisimple": _suite_semisimple,
    "theorem": _suite_theorem,
    "jkv-survey": _suite_jkv_survey,
    "compose-mu": _suite_compose,
    "limit-conjugacy": _suite_limit_conjugacy,
    "jkv-gln": _suite_jkv_gln,
    "jordan-chevalley": _suite_jordan_chevalley,
    "levi-homomorphism": _suite_levi,
    "bruhat": _suite_bruhat,
    "lambda-min-shift": _suite_lambda_min_shift,
    "commuting": _suite_commuting,
}

_ALIASES = {
    "lemma-limits": "limits",
    "relint": "semisimple",
}


def suite_names() -> list[str]:
    return sorted(_SUITES)


def run_suite(name: str, config: FuzzConfig) -> VerificationReport:
    """Run one named suite; unknown names raise ProblemFormatError.

    The only instance loop: one generator from config.rng() feeds
    config.count calls of the suite's check, in index order."""
    canonical = _ALIASES.get(name, name)
    if canonical not in _SUITES:
        raise ProblemFormatError(f"unknown suite {name!r}; known: {', '.join(suite_names())}")
    check = _SUITES[canonical]
    report = VerificationReport(canonical, config.seed, config.count, instances=config.count)
    start = time.perf_counter()
    rng = config.rng()
    for idx in range(config.count):
        failed = check(rng, config)
        if failed is not None:
            report.failures.append(Failure(idx, *failed))
    report.wall_time = time.perf_counter() - start
    return report
