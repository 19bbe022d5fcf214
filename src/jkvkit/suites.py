"""Named verification suites: seeded fuzzing of every model-level invariant.

Each suite draws instances from the deterministic generator stream, checks
one family of invariants, and reports failures with a replayable input
serialization plus the first clause that broke.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import gln, oracles, torus
from .gln import (
    central_cocharacter,
    is_semisimple_matrix,
    jkv_gln,
    jordan_chevalley,
    levi_part,
    limit_conj,
    minpoly,
    rational_conjugacy,
)
from .intlinalg import pairing
from .oracles import FuzzConfig
from .polytope import origin_in_relint
from .ratlinalg import is_zero_mat, qidentity, qinverse, qmat, qmul, qsub
from .serialize import gln_problem_to_json, torus_problem_to_json
from .polys import degree, poly_derivative, poly_gcd
from .torus import (
    GroupElement,
    act,
    compose_cocharacters,
    jkv_certifier,
    jkv_decompose,
    lambda_min,
    limit,
    limit_survey,
    same_orbit,
    vec_sub,
)

F = Fraction


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


def _suite_limits(cfg: FuzzConfig, report: VerificationReport):
    """Dual-implementation agreement for limit existence and value."""
    rng = cfg.rng()
    for idx in range(cfg.count):
        rep, gamma = oracles.sample_torus_instance(rng, cfg)
        bad = None
        for lam in torus._box_iter(rep.rank, cfg.box):
            a = limit(lam, gamma)
            b = oracles.oracle_limit(lam, gamma)
            if a != b:
                bad = f"disagreement at cocharacter {lam}"
                break
        report.instances += 1
        if bad:
            report.failures.append(Failure(idx, bad, torus_problem_to_json(rep, gamma)))


def _suite_semisimple(cfg: FuzzConfig, report: VerificationReport):
    """Relative-interior test against the circuit-enumeration oracle, with
    certificate verification on both verdicts."""
    rng = cfg.rng()
    for idx in range(cfg.count):
        ws = oracles.sample_weight_set(rng, max_rank=min(cfg.max_rank, 3), max_points=6)
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
        report.instances += 1
        if clause:
            report.failures.append(
                Failure(idx, clause, {"rank": ws.rank, "points": [list(p) for p in ws.points]})
            )


def _check_theorem_instance(rep, gamma, box):
    """All semisimple limits in the box lie in one rational orbit; literal
    equality when the finite part is trivial.  Returns a clause or None."""
    survey = limit_survey(rep, gamma, box)
    ss = survey.semisimple_entries()
    if not ss:
        return None
    if rep.finite is None:
        ref = ss[0].value
        for e in ss:
            if e.value != ref:
                return f"pure-torus limits differ at {e.cocharacter}"
        return None
    distinct = []
    for e in ss:
        if all(e.value != v for v in distinct):
            distinct.append(e.value)
    for i, v in enumerate(distinct):
        for w in distinct[i + 1 :]:
            g = same_orbit(rep, v, w)
            if g is None:
                return "semisimple limits in different orbits"
            if act(rep, g, v) != w:
                return "orbit witness failed re-verification"
    return None


def _suite_theorem(cfg: FuzzConfig, report: VerificationReport):
    rng = cfg.rng()
    for idx in range(cfg.count):
        rep, gamma = oracles.sample_torus_instance(rng, cfg)
        clause = _check_theorem_instance(rep, gamma, cfg.box)
        report.instances += 1
        if clause:
            report.failures.append(Failure(idx, clause, torus_problem_to_json(rep, gamma)))


def _suite_jkv_survey(cfg: FuzzConfig, report: VerificationReport):
    """Decompositions assembled from semisimple survey entries: whenever the
    clauses certify, the semisimple part is orbit-equivalent to the
    constructive one."""
    rng = cfg.rng()
    for idx in range(cfg.count):
        rep, gamma = oracles.sample_torus_instance(rng, cfg)
        clause = None
        dec = jkv_decompose(rep, gamma)
        if not dec.report.ok:
            clause = "constructive decomposition failed its own certificate"
        else:
            survey = limit_survey(rep, gamma, cfg.box)
            certify = jkv_certifier(rep, gamma)
            for e in survey.semisimple_entries():
                s = e.value
                n = vec_sub(gamma, s)
                rep_ok = certify(s, n, e.cocharacter)
                if not rep_ok.ok:
                    continue
                g = same_orbit(rep, s, dec.s)
                if g is None or act(rep, g, s) != dec.s:
                    clause = f"certified semisimple part not in the orbit at {e.cocharacter}"
                    break
        report.instances += 1
        if clause:
            report.failures.append(Failure(idx, clause, torus_problem_to_json(rep, gamma)))


def _suite_compose(cfg: FuzzConfig, report: VerificationReport):
    """Composition cocharacter: sign conditions, the three containments,
    minimality of n, and the composed-limit identity."""
    rng = cfg.rng()
    for idx in range(cfg.count):
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
        report.instances += 1
        if clause:
            payload = torus_problem_to_json(rep, gamma)
            payload["lam0"] = list(lam0)
            payload["lam"] = list(lam)
            report.failures.append(Failure(idx, clause, payload))


def _suite_limit_conjugacy(cfg: FuzzConfig, report: VerificationReport):
    """Semisimple matrices: every existing limit is rationally conjugate to
    the input."""
    rng = cfg.rng()
    for idx in range(cfg.count):
        n = rng.randint(2, cfg.max_size)
        x, _, _ = oracles.sample_rational_spectrum_matrix(rng, n, diagonalizable=True)
        clause = None
        found = 0
        tries = 0
        while found < 5 and tries < 200:
            tries += 1
            lam = oracles.sample_gln_cocharacter(rng, n)
            val = limit_conj(lam, x)
            if val is None:
                continue
            found += 1
            if not is_semisimple_matrix(val):
                clause = "limit of a semisimple matrix must stay semisimple"
                break
            g = rational_conjugacy(val, x)
            if g is None:
                clause = "limit not conjugate to the input"
                break
            if qmul(g, val) != qmul(x, g):
                clause = "conjugacy witness failed re-verification"
                break
        if found < 5 and clause is None:
            # pad with the central cocharacter, whose limit is x itself
            val = limit_conj(central_cocharacter(n), x)
            if val != x or rational_conjugacy(val, x) is None:
                clause = "central limit must be the matrix itself"
        report.instances += 1
        if clause:
            report.failures.append(Failure(idx, clause, gln_problem_to_json(x)))


def _suite_jkv_gln(cfg: FuzzConfig, report: VerificationReport):
    """Limit certificate agrees with the classical decomposition and with the
    construction's eigenvalue ground truth."""
    rng = cfg.rng()
    for idx in range(cfg.count):
        n = rng.randint(2, cfg.max_size)
        x, s_true, n_true = oracles.sample_rational_spectrum_matrix(rng, n)
        clause = None
        cert = jkv_gln(x)
        s, nm, _ = jordan_chevalley(x)
        if cert.s != s:
            clause = "certificate disagrees with the classical semisimple part"
        elif cert.s != s_true or cert.n != n_true:
            clause = "decomposition disagrees with the construction ground truth"
        elif cert.n != qsub(qmat(x), s):
            clause = "nilpotent part is not x - s"
        elif not cert.ok:
            clause = next(k for k, v in cert.clauses.items() if not v)
        report.instances += 1
        if clause:
            report.failures.append(Failure(idx, clause, gln_problem_to_json(x)))


def _suite_jordan_chevalley(cfg: FuzzConfig, report: VerificationReport):
    """Algebraic invariants of the exact decomposition, plus conjugation
    equivariance."""
    rng = cfg.rng()
    for idx in range(cfg.count):
        n = rng.randint(2, cfg.max_size)
        x, s_true, _ = oracles.sample_rational_spectrum_matrix(rng, n)
        clause = None
        s, nm, p = jordan_chevalley(x)
        power = qidentity(n)
        for _ in range(n):
            power = qmul(power, nm)
        ms = minpoly(s)
        if qsub(qmat(x), s) != qmat(nm):
            clause = "x != s + n"
        elif qmul(s, nm) != qmul(nm, s):
            clause = "parts do not commute"
        elif not is_zero_mat(power):
            clause = "nilpotency"
        elif degree(poly_gcd(ms, poly_derivative(ms))) != 0:
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
        report.instances += 1
        if clause:
            report.failures.append(Failure(idx, clause, gln_problem_to_json(x)))


def _suite_levi(cfg: FuzzConfig, report: VerificationReport):
    """The parabolic limit map is a homomorphism and intertwines limits."""
    rng = cfg.rng()
    for idx in range(cfg.count):
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
        report.instances += 1
        if clause:
            payload = gln_problem_to_json(x)
            payload["exponents"] = list(lam.exponents)
            report.failures.append(Failure(idx, clause, payload))


def _suite_bruhat(cfg: FuzzConfig, report: VerificationReport):
    rng = cfg.rng()
    for idx in range(cfg.count):
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
        elif sorted(row.index(F(1)) for row in w) != list(range(n)) or any(
            x not in (0, 1) for row in w for x in row
        ):
            clause = "w not a permutation"
        report.instances += 1
        if clause:
            report.failures.append(Failure(idx, clause, gln_problem_to_json(g)))


def _suite_lambda_min_shift(cfg: FuzzConfig, report: VerificationReport):
    """Acting by a torus element preserves the minimizing cocharacters and
    the limits stay in one orbit."""
    rng = cfg.rng()
    for idx in range(cfg.count):
        rep, gamma = oracles.sample_torus_instance(rng, cfg)
        clause = None
        try:
            dim0, wits = lambda_min(rep, gamma, cfg.box)
        except torus.BoxTooSmallError:
            report.instances += 1
            continue
        p = GroupElement(
            tuple(oracles.random_nonzero_fraction(rng, 5) for _ in range(rep.rank))
        )
        moved = act(rep, p, gamma)
        dim1, wits1 = lambda_min(rep, moved, cfg.box)
        if (dim0, wits) != (dim1, wits1):
            clause = "minimizer set changed under the torus action"
        else:
            for lam in wits:
                a = limit(lam, gamma)
                b = limit(lam, moved)
                g = same_orbit(rep, a, b)
                if g is None or act(rep, g, a) != b:
                    clause = f"shifted limits not in one orbit at {lam}"
                    break
        report.instances += 1
        if clause:
            report.failures.append(Failure(idx, clause, torus_problem_to_json(rep, gamma)))


def _suite_commuting(cfg: FuzzConfig, report: VerificationReport):
    """Every in-box semisimple limit is orbit-equivalent to the one at a
    fixed minimizing cocharacter."""
    rng = cfg.rng()
    for idx in range(cfg.count):
        rep, gamma = oracles.sample_torus_instance(rng, cfg)
        clause = None
        try:
            _, wits = lambda_min(rep, gamma, cfg.box)
        except torus.BoxTooSmallError:
            report.instances += 1
            continue
        lam0 = wits[0]
        v0 = limit(lam0, gamma)
        for e in limit_survey(rep, gamma, cfg.box).semisimple_entries():
            g = same_orbit(rep, e.value, v0)
            if g is None or act(rep, g, e.value) != v0:
                clause = f"limit at {e.cocharacter} not in the orbit of the minimizer"
                break
        report.instances += 1
        if clause:
            report.failures.append(Failure(idx, clause, torus_problem_to_json(rep, gamma)))


_SUITES = {
    "limits": (_suite_limits, 200),
    "semisimple": (_suite_semisimple, 500),
    "theorem": (_suite_theorem, 200),
    "jkv-survey": (_suite_jkv_survey, 200),
    "compose-mu": (_suite_compose, 200),
    "limit-conjugacy": (_suite_limit_conjugacy, 50),
    "jkv-gln": (_suite_jkv_gln, 100),
    "jordan-chevalley": (_suite_jordan_chevalley, 100),
    "levi-homomorphism": (_suite_levi, 100),
    "bruhat": (_suite_bruhat, 200),
    "lambda-min-shift": (_suite_lambda_min_shift, 100),
    "commuting": (_suite_commuting, 100),
}

_ALIASES = {
    "lemma-limits": "limits",
    "relint": "semisimple",
}


def suite_names() -> list[str]:
    return sorted(_SUITES)


def run_suite(name: str, config: FuzzConfig | None = None) -> VerificationReport:
    """Run one named suite; unknown names raise KeyError."""
    canonical = _ALIASES.get(name, name)
    if canonical not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(suite_names())}")
    fn, default_count = _SUITES[canonical]
    if config is None:
        config = FuzzConfig(count=default_count)
    report = VerificationReport(canonical, config.seed, config.count, 0)
    start = time.perf_counter()
    fn(config, report)
    report.wall_time = time.perf_counter() - start
    return report
