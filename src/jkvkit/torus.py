"""Split torus (times a finite group) acting on a weight-decomposed module.

The group is A x| W: A a rank-r split torus acting diagonally on weight
spaces, W a finite group permuting the weight lattice with invertible
block maps between the weight spaces.  All vectors live over the
rationals and every operation is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .checks import ProblemFormatError, require
from .intlinalg import (
    IntMat,
    IntVec,
    is_unimodular,
    mat_vec,
    pairing,
    primitive,
)
from .polytope import (
    RelintResult,
    WeightSet,
    destabilizer,
    find_functional,
    minimal_face_origin,
    origin_in_relint,
)
from .rationals import factorize_fraction
from .ratlinalg import QMat, int_form, qmat_vec
from . import intlinalg


class BoxTooSmallError(ValueError):
    """No candidate cocharacter exists inside the requested box."""


@dataclass(frozen=True)
class FiniteElement:
    lattice: IntMat
    blocks: dict[IntVec, QMat]


@dataclass(frozen=True)
class FiniteGroup:
    elements: tuple[FiniteElement, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int = field(init=False, compare=False)

    def __post_init__(self):
        n = len(self.elements)
        t = self.table
        if len(t) != n or any(len(r) != n for r in t):
            raise ProblemFormatError("multiplication table has the wrong shape")
        if any(x not in range(n) for r in t for x in r):
            raise ProblemFormatError("multiplication table entry out of range")
        ident = None
        for e in range(n):
            if all(t[e][j] == j and t[j][e] == j for j in range(n)):
                ident = e
                break
        if ident is None:
            raise ProblemFormatError("multiplication table has no identity")
        for i in range(n):
            if not any(t[i][j] == ident and t[j][i] == ident for j in range(n)):
                raise ProblemFormatError("multiplication table has a non-invertible element")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if t[t[i][j]][k] != t[i][t[j][k]]:
                        raise ProblemFormatError("multiplication table is not associative")
        object.__setattr__(self, "identity", ident)


@dataclass(frozen=True)
class TorusRep:
    rank: int
    weight_spaces: tuple[tuple[IntVec, int], ...]
    finite: FiniteGroup | None = None

    def __post_init__(self):
        ws = tuple((tuple(int(x) for x in chi), int(d)) for chi, d in self.weight_spaces)
        object.__setattr__(self, "weight_spaces", ws)
        weights = [chi for chi, _ in ws]
        if any(len(chi) != self.rank for chi in weights):
            raise ProblemFormatError("weight rank mismatch")
        if len(set(weights)) != len(weights):
            raise ProblemFormatError("weights must be pairwise distinct")
        if any(d < 1 for _, d in ws):
            raise ProblemFormatError("weight space dimensions must be positive")
        if self.finite is not None:
            _validate_finite_group(self)

    def dims(self) -> dict[IntVec, int]:
        return dict(self.weight_spaces)

    def weights(self) -> tuple[IntVec, ...]:
        return tuple(chi for chi, _ in self.weight_spaces)


def _validate_finite_group(rep: TorusRep):
    grp = rep.finite
    dims = rep.dims()
    weights = set(dims)
    images = []  # per element: chi -> its image under the lattice action
    scaled = []  # per element: chi -> (B, c), its block times c, as int rows
    for el in grp.elements:
        if not is_unimodular(el.lattice):
            raise ProblemFormatError("lattice action must be unimodular")
        image = {chi: mat_vec(el.lattice, chi) for chi in weights}
        if set(image.values()) != weights:
            raise ProblemFormatError("lattice action must permute the weight set")
        if set(el.blocks) != weights:
            raise ProblemFormatError("block maps must cover exactly the weight set")
        blocks = {}
        for chi, block in el.blocks.items():
            tgt = image[chi]
            if len(block) != dims[tgt] or any(len(r) != dims[chi] for r in block):
                raise ProblemFormatError("block map shape mismatch")
            blocks[chi] = int_form(block)
            if dims[tgt] != dims[chi] or intlinalg.det(blocks[chi][0]) == 0:
                raise ProblemFormatError("block maps must be invertible")
        images.append(image)
        scaled.append(blocks)
    # Compositional consistency with the table: blocks of a product factor
    # through the blocks of the factors.  (A / a)(B / b) = C / c exactly
    # when A B c = C a b.
    t = grp.table
    for i, gi in enumerate(grp.elements):
        for j, gj in enumerate(grp.elements):
            k = t[i][j]
            if intlinalg.mat_mul(gi.lattice, gj.lattice) != grp.elements[k].lattice:
                raise ProblemFormatError("lattice actions do not respect the table")
            for chi, mid in images[j].items():
                (a, ca), (b, cb), (c, cc) = scaled[i][mid], scaled[j][chi], scaled[k][chi]
                lhs = [[v * cc for v in row] for row in intlinalg.mat_mul(a, b)]
                if lhs != [[v * ca * cb for v in row] for row in c]:
                    raise ProblemFormatError("block maps do not respect the table")


@dataclass
class RepVector:
    rank: int
    components: dict[IntVec, tuple[Fraction, ...]]

    def __post_init__(self):
        comps = {}
        for chi, coords in self.components.items():
            key = tuple(int(x) for x in chi)
            if len(key) != self.rank:
                raise ProblemFormatError("component weight rank mismatch")
            vals = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
            if any(c != 0 for c in vals):
                comps[key] = vals
        self.components = comps

    def is_zero(self) -> bool:
        return not self.components


@dataclass(frozen=True)
class GroupElement:
    torus: tuple[Fraction, ...]
    finite_index: int | None = None

    def __post_init__(self):
        vals = tuple(Fraction(x) for x in self.torus)
        if any(x == 0 for x in vals):
            raise ValueError("torus entries must be nonzero")
        object.__setattr__(self, "torus", vals)


def zero_vector(rank: int) -> RepVector:
    return RepVector(rank, {})


def vec_add(v: RepVector, w: RepVector) -> RepVector:
    if v.rank != w.rank:
        raise ValueError("rank mismatch")
    out = dict(v.components)
    for chi, coords in w.components.items():
        if chi in out:
            out[chi] = tuple(a + b for a, b in zip(out[chi], coords))
        else:
            out[chi] = coords
    return RepVector(v.rank, out)


def vec_sub(v: RepVector, w: RepVector) -> RepVector:
    return vec_add(v, RepVector(w.rank, {c: tuple(-x for x in t) for c, t in w.components.items()}))


def support(v: RepVector) -> WeightSet:
    """Weights carrying a nonzero component."""
    return WeightSet(v.rank, tuple(sorted(v.components)))


def chi_eval(torus: tuple[Fraction, ...], chi: IntVec) -> Fraction:
    """Value of the character chi on a torus point."""
    out = Fraction(1)
    for a, e in zip(torus, chi):
        if e:
            out *= a**e
    return out


def validate_vector(rep: TorusRep, v: RepVector):
    dims = rep.dims()
    if v.rank != rep.rank:
        raise ProblemFormatError("vector rank does not match the module")
    for chi, coords in v.components.items():
        if chi not in dims:
            raise ProblemFormatError(f"vector has a component at an absent weight {chi}")
        if len(coords) != dims[chi]:
            raise ProblemFormatError(f"component dimension mismatch at weight {chi}")


def _finite_element(rep: TorusRep, g: GroupElement) -> FiniteElement | None:
    if g.finite_index is None:
        return None
    if rep.finite is None:
        raise ValueError("group element references an absent finite part")
    return rep.finite.elements[g.finite_index]


def act(rep: TorusRep, g: GroupElement, v: RepVector) -> RepVector:
    """Apply the finite part first (relocating components), then the torus."""
    validate_vector(rep, v)
    if len(g.torus) != rep.rank:
        raise ValueError("torus rank mismatch")
    el = _finite_element(rep, g)
    out: dict[IntVec, tuple[Fraction, ...]] = {}
    for chi, coords in v.components.items():
        if el is not None:
            tgt = mat_vec(el.lattice, chi)
            coords = qmat_vec(el.blocks[chi], coords)
        else:
            tgt = chi
        factor = chi_eval(g.torus, tgt)
        out[tgt] = tuple(factor * c for c in coords)
    require(len(out) == len(v.components), "the finite part must move weights to distinct weights")
    return RepVector(v.rank, out)


def limit(lam: IntVec, v: RepVector) -> RepVector | None:
    """Limit of lam(t).v as t -> 0: exists iff all support pairings are >= 0,
    and then equals the projection onto the zero-pairing components."""
    if len(lam) != v.rank:
        raise ValueError("cocharacter rank mismatch")
    zero = _zero_set(lam, v)
    if zero is None:
        return None
    comps = v.components
    return RepVector(v.rank, {chi: comps[chi] for chi in zero})


def _zero_set(lam: IntVec, v: RepVector) -> tuple[IntVec, ...] | None:
    """The support weights of v that pair to 0 with lam, in component order,
    or None when some support weight pairs negatively (no limit)."""
    zero = []
    for chi in v.components:
        p = 0
        for a, b in zip(lam, chi):
            p += a * b
        if p < 0:
            return None
        if p == 0:
            zero.append(chi)
    return tuple(zero)


def fixed_dim(rep: TorusRep, lam: IntVec) -> int:
    """Dimension of the subspace that lam fixes (acts on with exponent 0)."""
    return sum(d for chi, d in rep.weight_spaces if pairing(lam, chi) == 0)


def is_semisimple(v: RepVector) -> RelintResult:
    """Certified closed-orbit test: 0 in relint of the support hull.

    The relint result of supp v: inside with its barycentric coefficients,
    or else a separator along which v properly degenerates.
    """
    res = origin_in_relint(support(v))
    if not res.inside:
        lim = limit(res.separator, v)
        require(lim is not None and lim != v, "separator must witness a proper degeneration")
    return res


def is_nilpotent(v: RepVector, fixed: WeightSet) -> tuple[bool, IntVec | None]:
    """Does some cocharacter vanishing on `fixed` send v to 0 in the limit?"""
    if v.is_zero():
        return True, (0,) * v.rank
    lam = find_functional(fixed.sorted_points(), support(v).sorted_points(), uniform=True)
    if lam is None:
        return False, None
    return True, lam


@dataclass
class JkvReport:
    """Clause verdicts of one decomposition check.

    nilpotent_witness is a cocharacter vanishing on supp s and >= 1 on
    supp n: the checked lam itself when it qualifies, otherwise the one
    `is_nilpotent` finds, and None when n is not nilpotent relative to
    supp s.  stabilizer_checks pairs each finite element stabilizing gamma
    with whether it stabilizes s.
    """

    ok: bool
    clauses: dict[str, bool]
    nilpotent_witness: IntVec | None
    stabilizer_checks: list[tuple[int, bool]]


@dataclass
class JkvDecomposition:
    s: RepVector
    n: RepVector
    cocharacter: IntVec
    report: JkvReport


def _component_ratios(reference: RepVector, target: RepVector):
    """Per-weight scalar q with target = q * reference, or None if some
    component pair is not parallel (the torus acts by scalars per weight)."""
    ratios: dict[IntVec, Fraction] = {}
    for chi, ref in reference.components.items():
        tgt = target.components[chi]
        j = next(i for i, x in enumerate(ref) if x != 0)
        q = tgt[j] / ref[j]
        if q == 0 or any(t != q * r for t, r in zip(tgt, ref)):
            return None
        ratios[chi] = q
    return ratios


def solve_multiplicative(rank: int, ratios: dict[IntVec, Fraction]) -> tuple[Fraction, ...] | None:
    """Torus point a with chi(a) = ratios[chi] for every chi, or None.

    Solved by factoring the ratios over a shared prime set, one integer
    linear system with one right-hand side per prime (one Smith normal
    form), and a GF(2) system for the signs.  Ratios with a factor above
    DEFAULT_FACTOR_BOUND that trial division cannot prove prime raise
    UnfactoredError instead of risking a wrong answer.
    """
    if any(q == 0 for q in ratios.values()):
        raise ValueError("ratios must be nonzero")
    if not ratios:
        return (Fraction(1),) * rank
    chis = sorted(ratios)
    rows = tuple(tuple(chi) for chi in chis)
    facs = {chi: factorize_fraction(ratios[chi]) for chi in chis}
    primes = sorted({p for f in facs.values() for p in f})
    columns = [tuple(facs[chi].get(p, 0) for chi in chis) for p in primes]
    exps = intlinalg.solve_integer(rows, columns)
    if exps is None:
        return None
    signs = [0 if ratios[chi] > 0 else 1 for chi in chis]
    eps = intlinalg.solve_gf2([[c & 1 for c in chi] for chi in chis], signs)
    if eps is None:
        return None
    out = []
    for i in range(rank):
        val = Fraction(-1 if eps[i] else 1)
        for p, x in zip(primes, exps):
            if x[i]:
                val *= Fraction(p) ** x[i]
        out.append(val)
    a = tuple(out)
    require(
        all(chi_eval(a, chi) == ratios[chi] for chi in chis),
        "the torus point must have the requested character values",
    )
    return a


def _transfers(rep: TorusRep, v: RepVector, target: RepVector):
    """Every group element carrying v to target that some finite element
    admits, one per finite element (identity first), each verified by `act`.

    Per weight the moved and target components must be parallel, and the
    resulting ratio system is solved multiplicatively over the rationals.
    """
    if rep.finite is None:
        order = [None]
    else:
        ident = rep.finite.identity
        order = [ident] + [i for i in range(len(rep.finite.elements)) if i != ident]
    ones = (Fraction(1),) * rep.rank
    tgt_support = support(target)
    for idx in order:
        moved = act(rep, GroupElement(ones, idx), v)
        if support(moved) != tgt_support:
            continue
        ratios = _component_ratios(moved, target)
        if ratios is None:
            continue
        a = solve_multiplicative(rep.rank, ratios)
        if a is None:
            continue
        g = GroupElement(a, idx)
        require(act(rep, g, v) == target, "the transfer must carry v to the target")
        yield g


def same_orbit(rep: TorusRep, v: RepVector, v2: RepVector) -> GroupElement | None:
    """A group element carrying v to v2, verified by `act`, or None.

    Every finite-group element is tried, identity first.
    """
    validate_vector(rep, v)
    validate_vector(rep, v2)
    return next(_transfers(rep, v, v2), None)


def jkv_certifier(rep: TorusRep, gamma: RepVector, s: RepVector, n: RepVector):
    """certify(lam): the per-clause check that (s, n, lam) is a valid
    decomposition of gamma, for one (s, n) and any number of cocharacters.

    Validates the vectors, finds every finite element that stabilizes gamma
    jointly with some torus element, and computes the clauses that depend
    on (s, n) alone -- sum, semisimple, support and whether each of those
    stabilizers also fixes s -- once.  Each call pairs lam once with every
    weight of supp gamma, supp s and supp n, reads fixes_s, limit and the
    witness test off those pairings, and returns a fresh JkvReport.  A lam
    that vanishes on supp s and pairs to >= 1 with every weight of supp n is
    itself the nilpotency witness; only otherwise does the LP of
    `is_nilpotent` run.  The vectors are held, not copied, so they must not
    be mutated while certify is in use.  A lam of the wrong rank raises
    ValueError.
    """
    validate_vector(rep, gamma)
    stabilizers = []
    if rep.finite is not None:
        stabilizers = sorted(_transfers(rep, gamma, gamma), key=lambda g: g.finite_index)
    validate_vector(rep, s)
    validate_vector(rep, n)
    sums = vec_add(s, n) == gamma
    semisimple = is_semisimple(s).inside
    supp_s = support(s)
    in_support = set(supp_s.points) <= set(gamma.components)
    checks = [(g.finite_index, act(rep, g, s) == s) for g in stabilizers]
    stabilizer = in_support and all(ok for _, ok in checks)
    weights = {*gamma.components, *s.components, *n.components}
    # limit(lam, gamma) == s exactly when s is a projection of gamma, lam
    # fixes s and lam pairs positively with the rest of supp gamma
    projection = all(gamma.components.get(chi) == c for chi, c in s.components.items())
    rest = [chi for chi in gamma.components if chi not in s.components]

    def certify(lam: IntVec) -> JkvReport:
        if len(lam) != rep.rank:
            raise ValueError("cocharacter rank mismatch")
        p = {chi: sum(map(mul, lam, chi)) for chi in weights}
        fixes_s = all(p[chi] == 0 for chi in s.components)
        if fixes_s and all(p[chi] >= 1 for chi in n.components):
            nilp, witness = True, lam
        else:
            nilp, witness = is_nilpotent(n, supp_s)
        clauses = {
            "sum": sums,
            "semisimple": semisimple,
            "fixes_s": fixes_s,
            "limit": projection and fixes_s and all(p[chi] > 0 for chi in rest),
            "support": in_support,
            "nilpotent": nilp,
            "stabilizer": stabilizer,
        }
        return JkvReport(all(clauses.values()), clauses, witness, list(checks))

    return certify


def jkv_certify(
    rep: TorusRep,
    gamma: RepVector,
    s: RepVector,
    n: RepVector,
    lam: IntVec,
) -> JkvReport:
    """Per-clause check that (s, n, lam) is a valid decomposition of gamma."""
    return jkv_certifier(rep, gamma, s, n)(lam)


def jkv_decompose(rep: TorusRep, gamma: RepVector) -> JkvDecomposition:
    """Split gamma into semisimple and nilpotent parts with a limit witness.

    The semisimple part is the projection of gamma onto the minimal face of
    its support hull containing the origin (zero when the origin is outside
    the hull), and the cocharacter is the face supporter (respectively a
    destabilizer).
    """
    s, n, lam = _constructive_parts(rep, gamma)
    report = jkv_certify(rep, gamma, s, n, lam)
    require(report.ok, "the construction must certify")
    return JkvDecomposition(s, n, lam, report)


def _constructive_parts(rep: TorusRep, gamma: RepVector):
    """(s, n, lam) of jkv_decompose, not yet certified."""
    validate_vector(rep, gamma)
    supp = support(gamma)
    face = minimal_face_origin(supp)
    if face is None:
        lam = destabilizer(supp)
        require(lam is not None, "a hull missing the origin must have a destabilizer")
        return zero_vector(rep.rank), gamma, lam
    points = set(face.face)
    s = RepVector(rep.rank, {chi: c for chi, c in gamma.components.items() if chi in points})
    return s, vec_sub(gamma, s), face.supporter


# The most cocharacters one box sweep may visit.  A survey keeps an entry
# per cocharacter, so an unbounded box would run until memory runs out; the
# sweeps in use stay far below (box 3 at rank 4 is 2,401).
BOX_BUDGET = 100_000


def _box_iter(rank: int, box: int):
    """The cocharacters of [-box, box]^rank in lexicographic order; raises
    ProblemFormatError, before any work, for a sweep above BOX_BUDGET."""
    count = (2 * box + 1) ** rank
    if count > BOX_BUDGET:
        try:
            held = f"box {box} at rank {rank} holds {count} cocharacters"
        except ValueError:  # too many digits for int-to-str conversion
            held = f"the box at rank {rank} holds too many cocharacters to print"
        raise ProblemFormatError(f"{held}, over the limit of {BOX_BUDGET}")
    return itertools.product(range(-box, box + 1), repeat=rank)


def lambda_min(rep: TorusRep, gamma: RepVector, box: int = 3):
    """Minimum of the fixed-space dimension over box cocharacters whose limit
    of gamma exists and is semisimple, with all primitive minimizers.

    Raises BoxTooSmallError when no box cocharacter qualifies.
    """
    return _lambda_min_of_survey(rep, limit_survey(rep, gamma, box))


def _lambda_min_of_survey(rep: TorusRep, survey: LimitSurvey):
    dims = [(fixed_dim(rep, e.cocharacter), e.cocharacter) for e in survey.semisimple_entries()]
    if not dims:
        raise BoxTooSmallError(
            f"no semisimple limit inside the box [-{survey.box},{survey.box}]^{survey.rank}"
        )
    best = min(d for d, _ in dims)
    return best, sorted({primitive(lam) for d, lam in dims if d == best})


def compose_cocharacters(rep: TorusRep, lam0: IntVec, lam: IntVec):
    """Smallest n >= 1 making mu = n*lam0 + lam respect lam0's sign pattern
    on every module weight; the composed limit then factors through mu.

    Where <lam0, chi> = p0 != 0, the sign of n*p0 + p1 is that of p0
    exactly when n > -p1/p0, that is n >= floor(-p1/p0) + 1."""
    weights = rep.weights()
    p0 = {chi: pairing(lam0, chi) for chi in weights}
    p1 = {chi: pairing(lam, chi) for chi in weights}
    n = max([1] + [-p1[chi] // p0[chi] + 1 for chi in weights if p0[chi]])
    mu = tuple(n * a + b for a, b in zip(lam0, lam))
    for chi in weights:
        pm = pairing(mu, chi)
        require((pm == 0) == (p0[chi] == 0 and p1[chi] == 0), "mu must vanish where lam0 and lam do")
        require(not p0[chi] > 0 or pm > 0, "mu must be positive where lam0 is")
        require(not pm >= 0 or p0[chi] >= 0, "mu must be negative where lam0 is")
    return n, mu


@dataclass
class SurveyEntry:
    cocharacter: IntVec
    value: RepVector | None
    semisimple: bool


@dataclass
class LimitSurvey:
    box: int
    rank: int
    entries: list[SurveyEntry]

    def semisimple_entries(self) -> list[SurveyEntry]:
        return [e for e in self.entries if e.semisimple]


def limit_survey(rep: TorusRep, gamma: RepVector, box: int = 3) -> LimitSurvey:
    """Record limit existence, value and semisimplicity for every cocharacter
    in the box, in lexicographic order.

    Each support weight of gamma is paired with the whole box at once, and
    the rows are folded into one code per cocharacter: bit k is set when
    the k-th support weight pairs to 0, and one bit more when any weight
    pairs negatively (no limit).  A limit is the projection of gamma onto
    the zero-pairing weights, so the value and its relint verdict are
    computed once per distinct code: every entry with that zero set holds
    the same RepVector object, which must therefore not be mutated.
    """
    if box < 1:
        raise ProblemFormatError("box bound must be >= 1")
    validate_vector(rep, gamma)
    lams = _box_iter(rep.rank, box)
    comps = gamma.components
    steps = range(-box, box + 1)
    negative = 1 << len(comps)
    codes = [0] * (2 * box + 1) ** rep.rank
    for k, chi in enumerate(comps):
        row = [0]
        for c in chi:
            row = [p + a * c for p in row for a in steps]
        bit = 1 << k
        codes = [code | bit if p == 0 else code | negative if p < 0 else code
                 for code, p in zip(codes, row)]
    faces: dict[int, tuple[RepVector | None, bool]] = {}
    for code in dict.fromkeys(codes):
        if code & negative:
            faces[code] = None, False
            continue
        zero = {chi: c for k, (chi, c) in enumerate(comps.items()) if code >> k & 1}
        val = RepVector(rep.rank, zero)
        faces[code] = val, origin_in_relint(support(val)).inside
    entries = [SurveyEntry(lam, val, ss) for lam, (val, ss) in zip(lams, map(faces.get, codes))]
    return LimitSurvey(box, rep.rank, entries)
