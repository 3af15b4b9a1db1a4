"""Orbifold signatures, their groups, geometry type, and surjection obstructions.

A signature is a genus, a puncture count, and a multiset of branching
multiplicities.  The closed genus-0 signatures with positive orbifold Euler
characteristic split into the honest spherical ones, whose groups are finite
of order 2/chi, and the bad ones ((n) and (n,m) with n != m) which carry no
geometry; only the spherical ones matter for the finite obstruction test,
and among those only the non-abelian ones (dihedral and the three triangle
groups (2,3,3), (2,3,4), (2,3,5)) can receive a geometric surjection.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .abelian import AbelianGroup, quotient_invariants, surjects_onto
from .charvar import FiniteTorusVariety, RankOneVariety
from .cosets import SubgroupSpec, schreier_rewrite, todd_coxeter
from .fpgroups import (InputError, Presentation, commutator, multiply, power,
                       tietze_simplify)
from .nilpotent import fewest_generators, lcs_quotients


class OrbifoldSignature:
    """Genus, puncture count and sorted branching multiplicities."""

    __slots__ = ("genus", "punctures", "multiplicities")

    def __init__(self, genus: int = 0, punctures: int = 0,
                 multiplicities: tuple[int, ...] = ()):
        if genus < 0 or punctures < 0:
            raise InputError("genus and puncture count must be nonnegative")
        if any(m < 2 for m in multiplicities):
            raise InputError("orbifold multiplicities must be at least 2")
        self.genus = genus
        self.punctures = punctures
        self.multiplicities = tuple(sorted(multiplicities))

    def __eq__(self, other):
        return (isinstance(other, OrbifoldSignature)
                and (self.genus, self.punctures, self.multiplicities)
                == (other.genus, other.punctures, other.multiplicities))

    def __hash__(self):
        return hash((self.genus, self.punctures, self.multiplicities))

    def euler_characteristic(self) -> Fraction:
        return (Fraction(2 - 2 * self.genus - self.punctures)
                - sum(1 - Fraction(1, m) for m in self.multiplicities))

    def __str__(self):
        base = f"g={self.genus} k={self.punctures}"
        if self.multiplicities:
            base += " m=" + ",".join(str(m) for m in self.multiplicities)
        return base


def parse_signature(text: str) -> OrbifoldSignature:
    """Parse 'g=0 k=0 m=2,5,10'; omitted fields default to zero/empty."""
    genus = punctures = 0
    mults: tuple[int, ...] = ()
    for field in text.replace(";", " ").split():
        key, _, value = field.partition("=")
        if key not in ("g", "k", "m"):
            raise InputError(f"unknown signature field {key!r}")
        try:
            if key == "g":
                genus = int(value)
            elif key == "k":
                punctures = int(value)
            else:
                mults = tuple(int(v) for v in value.split(",") if v)
        except ValueError:
            raise InputError(f"expected integers in signature field"
                             f" {field!r}") from None
    return OrbifoldSignature(genus, punctures, mults)


_ORB_NAMES = ("x", "y", "z", "w")


def orbifold_presentation(sig: OrbifoldSignature) -> Presentation:
    """Standard presentation of the orbifold fundamental group.

    Closed case: surface generators a_i, b_i plus one branching generator per
    multiplicity, with prod [a_i,b_i] = prod mu_j and mu_j^(m_j) = 1; the last
    branching generator is eliminated through the long relation, which for
    g = 0 and multiplicities (2,5,10) gives exactly <x,y | x^2, y^5, (xy)^10>.
    Punctured case: a free group of rank 2g+k-1 times the branching
    generators, each with only its power relation.
    """
    g, k, ms = sig.genus, sig.punctures, sig.multiplicities

    def mu_names(count):
        if count <= len(_ORB_NAMES):
            return list(_ORB_NAMES[:count])
        return [f"u{i}" for i in range(1, count + 1)]

    if k > 0:
        free_rank = 2 * g + k - 1
        free = [f"f{i}" for i in range(1, free_rank + 1)]
        mus = mu_names(len(ms))
        names = tuple(free + mus)
        offset = free_rank
        relators = tuple(power((offset + j + 1,), m) for j, m in enumerate(ms))
        return Presentation(names, relators)

    surface = []
    for i in range(1, g + 1):
        surface += [f"a{i}", f"b{i}"]
    if not ms:
        names = tuple(surface)
        if g == 0:
            return Presentation((), ())
        rel = multiply(*[commutator((2 * i - 1,), (2 * i,))
                         for i in range(1, g + 1)])
        return Presentation(names, (rel,))

    mus = mu_names(len(ms) - 1)
    names = tuple(surface + mus)
    base = 2 * g
    relators = [power((base + j + 1,), m) for j, m in enumerate(ms[:-1])]
    # last branching generator via the surface relation:
    #   mu_s = (mu_1 ... mu_(s-1))^-1 * prod [a_i, b_i]
    prod_mu = multiply(*[(base + j + 1,) for j in range(len(ms) - 1)]) \
        if len(ms) > 1 else ()
    prod_comm = multiply(*[commutator((2 * i - 1,), (2 * i,))
                           for i in range(1, g + 1)]) if g else ()
    last = multiply(tuple(-x for x in reversed(prod_mu)), prod_comm)
    if g == 0:
        # prettier, same normal closure: (mu_1 ... mu_(s-1))^(m_s)
        relators.append(power(prod_mu, ms[-1]))
    else:
        relators.append(power(last, ms[-1]))
    return Presentation(names, tuple(relators))


class Classification(namedtuple("Classification", "kind chi order")):
    """``kind`` is spherical, euclidean, hyperbolic or bad; ``order`` is the
    finite group order of a spherical signature, else None."""

    __slots__ = ()

    def __str__(self):
        if self.kind == "spherical":
            return f"spherical of order {self.order} (chi = {self.chi})"
        return f"{self.kind} (chi = {self.chi})"


def _is_spherical_shape(ms: tuple[int, ...]) -> bool:
    if len(ms) <= 1:
        return len(ms) == 0
    if len(ms) == 2:
        return ms[0] == ms[1]
    if len(ms) == 3:
        return (ms[:2] == (2, 2)
                or ms in ((2, 3, 3), (2, 3, 4), (2, 3, 5)))
    return False


def classify(sig: OrbifoldSignature) -> Classification:
    """Geometric type by orbifold Euler characteristic.

    Spherical means closed, genus 0, chi > 0 and an honest quotient-of-S2
    signature; its group order is 2/chi.  The remaining chi > 0 signatures
    ((n), (n,m) with n != m, and punctured positive ones) are reported as
    'bad': they bound no geometry and never carry non-abelian groups.
    """
    chi = sig.euler_characteristic()
    if chi < 0:
        return Classification("hyperbolic", chi, None)
    if chi == 0:
        return Classification("euclidean", chi, None)
    if (sig.genus == 0 and sig.punctures == 0
            and _is_spherical_shape(sig.multiplicities)):
        order = Fraction(2) / chi
        assert order.denominator == 1
        return Classification("spherical", chi, int(order))
    return Classification("bad", chi, None)


def _spherical_abelianization(ms: tuple[int, ...]) -> AbelianGroup:
    """Abelianization of the closed genus-0 orbifold group with
    multiplicities m_1..m_s, read off the exponent rows of its presentation
    without building it: m_j e_j for j < s, and m_s (1, ..., 1)."""
    dim = len(ms) - 1
    rows = [[m if i == j else 0 for i in range(dim)]
            for j, m in enumerate(ms[:-1])]
    return quotient_invariants(rows + [[ms[-1]] * dim], dim)


class CandidateReport:
    __slots__ = ("signature", "order", "survives", "reason")

    def __init__(self, signature: OrbifoldSignature, order: int,
                 survives: bool, reason: str):
        self.signature = signature
        self.order = order
        self.survives = survives
        self.reason = reason


class ObstructionReport:
    __slots__ = ("verdict", "candidates")

    def __init__(self, verdict: str, candidates: list[CandidateReport]):
        self.verdict = verdict              # "no-target" or "candidates"
        self.candidates = candidates

    def surviving(self) -> list[OrbifoldSignature]:
        return [c.signature for c in self.candidates if c.survives]


def obstruct_finite(order: int, ab: AbelianGroup) -> ObstructionReport:
    """Necessary-condition sieve for geometric surjections of a finite group.

    A finite group can only surject geometrically onto a spherical orbifold
    group that is non-abelian, i.e. dihedral (2,2,n) with n >= 3 or one of
    the triangle signatures (2,3,3), (2,3,4), (2,3,5).  Each candidate must
    have group order dividing |G| and abelianization receiving a surjection
    from ab(G).
    """
    if ab.rank:
        raise InputError("expected a finite abelianization")
    reports: list[CandidateReport] = []
    candidates: list[tuple[int, ...]] = []
    n = 3
    while 2 * n <= order:
        if order % (2 * n) == 0:
            candidates.append((2, 2, n))
        n += 1
    candidates += [ms for ms, o in (((2, 3, 3), 12), ((2, 3, 4), 24),
                                    ((2, 3, 5), 60)) if order % o == 0]
    for ms in candidates:
        sig = OrbifoldSignature(0, 0, ms)
        target_order = classify(sig).order
        target_ab = _spherical_abelianization(ms)
        if not surjects_onto(ab, target_ab):
            reports.append(CandidateReport(
                sig, target_order, False,
                f"abelianization {ab} cannot surject onto {target_ab}"))
            continue
        reports.append(CandidateReport(
            sig, target_order, True,
            f"order {target_order} divides {order};"
            f" abelianization {ab} surjects onto {target_ab}"))
    verdict = "candidates" if any(r.survives for r in reports) else "no-target"
    return ObstructionReport(verdict, reports)


# --- infinite targets for rank-one groups ---------------------------------------


class TargetComparison:
    __slots__ = ("target", "excluded", "evidence")

    def __init__(self, target: OrbifoldSignature, excluded: bool,
                 evidence: list[str]):
        self.target = target
        self.excluded = excluded
        self.evidence = evidence


class InfiniteObstructionReport:
    __slots__ = ("verdict", "comparisons")

    def __init__(self, verdict: str, comparisons: list[TargetComparison]):
        self.verdict = verdict              # "no-surjection" or "not-excluded"
        self.comparisons = comparisons


def obstruct_infinite_rank_one(pres: Presentation,
                               variety: FiniteTorusVariety | RankOneVariety
                               ) -> InfiniteObstructionReport:
    """The two-step elimination of infinite orbifold targets.

    Any geometric surjection of a rank-one curve-complement group onto an
    infinite orbifold group would force one onto the degree-10 orbifolds
    P1_(2,5,10) or P1_(2,2,5,5).  The second is excluded by depth: its V_2
    consists of the primitive 10th roots, so they would have to lie in V_2 of
    the group.  The first is excluded by comparing the index-10 kernels: a
    surjection would map kernel onto kernel, so every graded quotient of the
    lower central series must dominate the target's; the genus-2 surface
    kernel has degree-2/3 ranks 5 and 16.

    ``variety`` is the characteristic variety of ``pres``, as
    ``charvar.characteristic_variety`` computes it; its abelianization is
    reused here.
    """
    ab = variety.group
    comparisons: list[TargetComparison] = []
    sig2510 = OrbifoldSignature(0, 0, (2, 5, 10))
    sig2255 = OrbifoldSignature(0, 0, (2, 2, 5, 5))

    if not (ab.rank == 1 and not ab.torsion
            or ab.rank == 0 and ab.exponent() % 10 == 0):
        raise InputError("expected abelianization Z (or finite of exponent"
                         " divisible by 10)")
    if len(ab.torsion) > 1:
        # both the depth test and the kernel spec below take the one map
        # onto Z/10 of Z or of a cyclic Z/N
        raise InputError(f"abelianization {ab} is not cyclic: its maps onto"
                         " Z/10 are not unique, and only Z or a cyclic Z/N"
                         " with 10 | N is supported")
    v1_prim10 = variety.contains_primitive(1, 10)
    v2_prim10 = variety.contains_primitive(2, 10)

    if not v1_prim10:
        ev = ["primitive 10th roots are not in V_1 of the group, but lie in"
              " V_1 of both targets"]
        comparisons.append(TargetComparison(sig2510, True, ev))
        comparisons.append(TargetComparison(sig2255, True, ev))
        return InfiniteObstructionReport("no-surjection", comparisons)

    # (i) P1_(2,2,5,5) via the second characteristic variety
    ev2255 = [f"target has V_2 = primitive 10th roots; group has"
              f" primitive 10th roots in V_2: {v2_prim10}"]
    comparisons.append(TargetComparison(sig2255, not v2_prim10, ev2255))

    # (ii) P1_(2,5,10) via the index-10 kernels; the target's is the genus-2
    # surface group (Riemann-Hurwitz: 10 * chi(2,5,10) = -2)
    if ab.rank == 1:
        spec = SubgroupSpec.kernel_of((10,), list(ab.gen_images))
    else:
        spec = SubgroupSpec.kernel_of((10,), [(i[-1] % 10,)
                                              for i in ab.gen_images])
    raw, _ = schreier_rewrite(pres, todd_coxeter(pres, spec))
    kernel = fewest_generators(raw) or tietze_simplify(raw).presentation
    k_lcs = lcs_quotients(kernel)
    t_lcs = lcs_quotients(orbifold_presentation(OrbifoldSignature(2)))
    k_ab, t_ab = k_lcs.degree(1), t_lcs.degree(1)
    evidence = [
        f"kernel abelianization: group {k_ab}, target {t_ab}",
        f"kernel lcs degree 2: group {k_lcs.degree(2)}, target {t_lcs.degree(2)}",
        f"kernel lcs degree 3: group {k_lcs.degree(3)}, target {t_lcs.degree(3)}",
    ]
    excluded = False
    if k_ab.rank < t_ab.rank:
        excluded = True
        evidence.append("kernel abelianization rank too small for a surjection")
    for d in (2, 3):
        if k_lcs.degree(d).rank < t_lcs.degree(d).rank:
            excluded = True
            evidence.append(
                f"lcs degree-{d} rank {k_lcs.degree(d).rank} cannot surject"
                f" onto rank {t_lcs.degree(d).rank}")
    if not excluded:
        evidence.append("no invariant obstruction found")
    comparisons.append(TargetComparison(sig2510, excluded, evidence))

    verdict = ("no-surjection"
               if all(c.excluded for c in comparisons) else "not-excluded")
    return InfiniteObstructionReport(verdict, comparisons)
