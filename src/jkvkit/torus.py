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
from operator import index, mul

from .checks import ProblemFormatError, read_rank, require
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
    find_functional,
    minimal_face_origin,
    origin_in_relint,
)
from .rationals import factorize_fraction
from .ratlinalg import QMat, int_form, scaled
from . import intlinalg


class BoxTooSmallError(ValueError):
    """No candidate cocharacter exists inside the requested box."""


@dataclass(frozen=True)
class FiniteElement:
    """One element of W: its lattice map, held as a tuple of int tuples (read
    with ``operator.index``), and its block maps between weight spaces."""

    lattice: IntMat
    blocks: dict[IntVec, QMat]

    def __post_init__(self):
        try:
            lattice = tuple(tuple(map(index, row)) for row in self.lattice)
        except TypeError:
            raise ProblemFormatError("lattice entries must be integers") from None
        object.__setattr__(self, "lattice", lattice)


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


# One finite element's action, validated: weight -> (its image under the
# lattice map, the block times c as int rows, c).  The table's identity has
# None when it acts trivially (see _validate_finite_group).
_Action = dict[IntVec, tuple[IntVec, list[list[int]], int]]


@dataclass(frozen=True)
class TorusRep:
    rank: int
    weight_spaces: tuple[tuple[IntVec, int], ...]
    finite: FiniteGroup | None = None
    _actions: tuple[_Action | None, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rank", read_rank(self.rank))
        try:
            ws = tuple((tuple(map(index, chi)), index(d)) for chi, d in self.weight_spaces)
        except TypeError:
            raise ProblemFormatError("weights and dimensions must be integers") from None
        object.__setattr__(self, "weight_spaces", ws)
        weights = [chi for chi, _ in ws]
        if any(len(chi) != self.rank for chi in weights):
            raise ProblemFormatError("weight rank mismatch")
        if len(set(weights)) != len(weights):
            raise ProblemFormatError("weights must be pairwise distinct")
        if any(d < 1 for _, d in ws):
            raise ProblemFormatError("weight space dimensions must be positive")
        actions = () if self.finite is None else _validate_finite_group(self)
        object.__setattr__(self, "_actions", actions)

    def dims(self) -> dict[IntVec, int]:
        return dict(self.weight_spaces)

    def weights(self) -> tuple[IntVec, ...]:
        return tuple(chi for chi, _ in self.weight_spaces)


def _validate_finite_group(rep: TorusRep) -> tuple[_Action | None, ...]:
    """The action of every finite element, in element order, once the group
    is checked to act by invertible blocks compatibly with its table.

    When the table's identity e acts as the identity (see `_acts_trivially`)
    its action is None, and its own checks and every table pair (i, j) with
    i or j equal to e are skipped: those pairs hold exactly when e acts
    trivially.  Any other identity goes through every check, in the same
    order, where pair (e, e) rejects it: L^2 = L forces a unimodular L to
    be I, and A^2 = A an invertible block A.
    """
    grp = rep.finite
    dims = rep.dims()
    weights = set(dims)
    eyes = {d: intlinalg.identity(d) for d in set(dims.values())}
    trivial = _acts_trivially(grp, rep.rank, eyes, dims)
    actions = []
    for idx, el in enumerate(grp.elements):
        if trivial and idx == grp.identity:
            actions.append(None)
            continue
        if not is_unimodular(el.lattice):
            raise ProblemFormatError("lattice action must be unimodular")
        image = {chi: mat_vec(el.lattice, chi) for chi in weights}
        if set(image.values()) != weights:
            raise ProblemFormatError("lattice action must permute the weight set")
        if set(el.blocks) != weights:
            raise ProblemFormatError("block maps must cover exactly the weight set")
        action = {}
        for chi, block in el.blocks.items():
            tgt = image[chi]
            if len(block) != dims[tgt] or any(len(r) != dims[chi] for r in block):
                raise ProblemFormatError("block map shape mismatch")
            b, c = int_form(block)
            if dims[tgt] != dims[chi] or intlinalg.det(b) == 0:
                raise ProblemFormatError("block maps must be invertible")
            action[chi] = tgt, b, c
        actions.append(action)
    # Compositional consistency with the table: blocks of a product factor
    # through the blocks of the factors.  (A / a)(B / b) = C / c exactly
    # when A B c = C a b.  A product that is a trivial identity has the
    # identity block, c = 1, at every weight.
    t, els = grp.table, grp.elements
    others = [i for i, action in enumerate(actions) if action is not None]
    for i in others:
        for j in others:
            k = t[i][j]
            if intlinalg.mat_mul(els[i].lattice, els[j].lattice) != els[k].lattice:
                raise ProblemFormatError("lattice actions do not respect the table")
            for chi, (mid, b, cb) in actions[j].items():
                _, a, ca = actions[i][mid]
                if actions[k] is None:
                    c, cc = eyes[dims[chi]], 1
                else:
                    _, c, cc = actions[k][chi]
                lhs = [[v * cc for v in row] for row in intlinalg.mat_mul(a, b)]
                if lhs != [[v * ca * cb for v in row] for row in c]:
                    raise ProblemFormatError("block maps do not respect the table")
    return tuple(actions)


def _acts_trivially(grp: FiniteGroup, rank: int, eyes, dims: dict[IntVec, int]) -> bool:
    """Whether the table's identity is exactly the identity: lattice I, and
    at each weight the identity block of its space (eyes[d] for dimension
    d) with int or Fraction entries.  Never raises."""
    el = grp.elements[grp.identity]
    eye = intlinalg.identity(rank)
    if not eye or el.lattice != eye:
        return False
    if not isinstance(el.blocks, dict) or set(el.blocks) != dims.keys():
        return False
    for chi, block in el.blocks.items():
        want = eyes[dims[chi]]
        if type(block) not in (tuple, list) or len(block) != len(want):
            return False
        for row, want_row in zip(block, want):
            if type(row) not in (tuple, list) or len(row) != len(want_row):
                return False
            for x, w in zip(row, want_row):
                if type(x) not in (int, Fraction) or x != w:
                    return False
    return True


@dataclass
class RepVector:
    rank: int
    components: dict[IntVec, tuple[Fraction, ...]]

    def __post_init__(self):
        self.rank = read_rank(self.rank)
        comps = {}
        for chi, coords in self.components.items():
            try:
                key = tuple(map(index, chi))
            except TypeError:
                raise ProblemFormatError("component weights must be integers") from None
            if len(key) != self.rank:
                raise ProblemFormatError("component weight rank mismatch")
            vals = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
            if any(c != 0 for c in vals):
                comps[key] = vals
        self.components = comps

    def is_zero(self) -> bool:
        return not self.components


def _normalized(rank: int, components: dict[IntVec, tuple[Fraction, ...]]) -> RepVector:
    """A RepVector over components already in normal form (int weights of
    the given rank, Fraction coordinates, no all-zero component), which
    __post_init__ would leave unchanged."""
    v = object.__new__(RepVector)
    v.rank = rank
    v.components = components
    return v


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


def support(v: RepVector) -> WeightSet:
    """Weights carrying a nonzero component.  They are the keys of v's
    components: distinct int weights of rank v.rank, which
    WeightSet.__post_init__ would leave unchanged, so it is not run."""
    ws = object.__new__(WeightSet)
    object.__setattr__(ws, "rank", v.rank)
    object.__setattr__(ws, "points", tuple(sorted(v.components)))
    return ws


def chi_eval(torus: tuple[Fraction, ...], chi: IntVec) -> Fraction:
    """Value of the character chi on a torus point."""
    out = Fraction(1)
    for a, e in zip(torus, chi):
        if e and a != 1:
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


def _finite_element(rep: TorusRep, g: GroupElement) -> _Action | None:
    """The action of g's finite element, or None when it moves nothing: g
    has no finite part, or its finite part is a trivially acting identity."""
    if g.finite_index is None:
        return None
    if rep.finite is None:
        raise ValueError("group element references an absent finite part")
    if g.finite_index not in range(len(rep.finite.elements)):
        raise ValueError(f"finite index {g.finite_index} is outside the group")
    return rep._actions[g.finite_index]


def _move(action: _Action, v: RepVector) -> RepVector:
    """v moved by one finite element: each component carried to its image
    weight and multiplied by its block.  v must be validated."""
    out = {}
    for chi, coords in v.components.items():
        tgt, block, c = action[chi]
        iv, t = scaled(coords)
        d = c * t
        out[tgt] = tuple(Fraction(sum(map(mul, row, iv)), d) for row in block)
    return _normalized(v.rank, out)


def act(rep: TorusRep, g: GroupElement, v: RepVector) -> RepVector:
    """Apply the finite part first (relocating components; each lattice
    action permutes the weights, see `_validate_finite_group`), then the torus."""
    validate_vector(rep, v)
    if len(g.torus) != rep.rank:
        raise ValueError("torus rank mismatch")
    action = _finite_element(rep, g)
    moved = v if action is None else _move(action, v)
    out = {}
    for chi, coords in moved.components.items():
        factor = chi_eval(g.torus, chi)
        out[chi] = coords if factor == 1 else tuple(factor * c for c in coords)
    return _normalized(v.rank, out)


def limit(lam: IntVec, v: RepVector) -> RepVector | None:
    """Limit of lam(t).v as t -> 0: exists iff all support pairings are >= 0,
    and then equals the projection onto the zero-pairing components."""
    if len(lam) != v.rank:
        raise ValueError("cocharacter rank mismatch")
    zero = {}
    for chi, coords in v.components.items():
        p = 0
        for a, b in zip(lam, chi):
            p += a * b
        if p < 0:
            return None
        if p == 0:
            zero[chi] = coords
    return RepVector(v.rank, zero)


def fixed_dim(rep: TorusRep, lam: IntVec) -> int:
    """Dimension of the subspace that lam fixes (acts on with exponent 0)."""
    return sum(d for chi, d in rep.weight_spaces if pairing(lam, chi) == 0)


def is_semisimple(v: RepVector) -> RelintResult:
    """Certified closed-orbit test: 0 in relint of the support hull.

    The relint result of supp v: inside with its barycentric coefficients,
    or else a separator along which v properly degenerates: the relint
    cache checked it >= 0 on supp v and > 0 on some weight of it.
    """
    return origin_in_relint(support(v))


def is_nilpotent(v: RepVector, fixed: WeightSet) -> tuple[bool, IntVec | None]:
    """Does some cocharacter vanishing on `fixed` send v to 0 in the limit?
    The LP's witness is checked here: 0 on `fixed`, >= 1 on supp v."""
    if v.is_zero():
        return True, (0,) * v.rank
    lam = find_functional(fixed.sorted_points(), support(v).sorted_points(), uniform=True)
    if lam is None:
        return False, None
    require(
        all(pairing(lam, chi) == 0 for chi in fixed.points)
        and all(pairing(lam, chi) >= 1 for chi in v.components),
        "the nilpotency witness must vanish on fixed and be >= 1 on supp v",
    )
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
    UnfactoredError instead of risking a wrong answer.  The point is raw:
    `_transfers` checks each transfer built from it with `act`.
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
    return tuple(out)


def _transfers(rep: TorusRep, v: RepVector, target: RepVector):
    """Every group element carrying v to target that some finite element
    admits, one per finite element (identity first), each verified by `act`.

    v, which must be validated, is moved by each element's action (not at
    all by a None action: no finite part, or a trivial identity).  Per
    weight the moved and target components must be parallel, and the
    resulting ratio system is solved multiplicatively over the rationals;
    a moved vector that already equals the target takes the torus part
    (1, ..., 1), the solution of the all-one ratios.
    """
    if rep.finite is None:
        order = [None]
    else:
        ident = rep.finite.identity
        order = [ident] + [i for i in range(len(rep.finite.elements)) if i != ident]
    ones = (Fraction(1),) * rep.rank
    for idx in order:
        action = None if idx is None else rep._actions[idx]
        moved = v if action is None else _move(action, v)
        if moved.components.keys() != target.components.keys():
            continue
        if moved.components == target.components:
            a = ones
        else:
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
    supp_s = support(s)
    semisimple = origin_in_relint(supp_s).inside
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
    the hull), and the cocharacter is the face supporter (respectively the
    relint separator, which pairs to >= 1 with every weight of supp gamma).
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
        # the separator pairs to >= 1 with every weight; certifying checks it
        return zero_vector(rep.rank), gamma, origin_in_relint(supp).separator
    # s and n split gamma's (normalized) components between the face and the rest
    points, supporter = set(face[0]), face[1]
    s = _normalized(rep.rank, {chi: c for chi, c in gamma.components.items() if chi in points})
    n = _normalized(rep.rank, {chi: c for chi, c in gamma.components.items() if chi not in points})
    return s, n, supporter


# The most cocharacters one box sweep may visit.  A survey keeps a code
# (and, once read, an entry) per cocharacter, so an unbounded box would run
# until memory runs out; the sweeps in use stay far below (box 3 at rank 4
# is 2,401).
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
    dims = [(fixed_dim(rep, lam), lam) for lam, _ in survey.semisimple_entries()]
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
class LimitSurvey:
    """One code per box cocharacter, in lexicographic order, and per code
    the (value, semisimple) face; every answer is read off the codes."""

    box: int
    rank: int
    codes: list[int]
    faces: dict[int, tuple[RepVector | None, bool]]

    def semisimple_entries(self) -> list[tuple[IntVec, RepVector]]:
        """(cocharacter, value) of every semisimple limit, in box order."""
        ss = {code: val for code, (val, ok) in self.faces.items() if ok}
        lams = _box_iter(self.rank, self.box)
        return [(lam, ss[code]) for lam, code in zip(lams, self.codes) if code in ss]


def limit_survey(rep: TorusRep, gamma: RepVector, box: int = 3) -> LimitSurvey:
    """Record limit existence, value and semisimplicity for every cocharacter
    in the box, in lexicographic order.

    Each support weight of gamma is paired with the whole box at once, and
    the rows are folded into one code per cocharacter: bit k is set when
    the k-th support weight pairs to 0, and one bit more when any weight
    pairs negatively (no limit).  A limit is the projection of gamma onto
    the zero-pairing weights, so the value and its relint verdict are
    computed once per distinct code: every entry with that zero set holds
    the same RepVector object, which must therefore not be mutated.  The
    survey is the codes and the per-code faces.
    """
    if box < 1:
        raise ProblemFormatError("box bound must be >= 1")
    validate_vector(rep, gamma)
    _box_iter(rep.rank, box)  # the budget check, before any work
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
        val = _normalized(rep.rank, zero)
        faces[code] = val, origin_in_relint(support(val)).inside
    return LimitSurvey(box, rep.rank, codes, faces)
