"""Named verification suites: exhaustive checks of the package's
structural identities and inequalities on bounded parameter grids.

Each suite returns a SuiteReport with per-check pass/fail, case counts
and a first counterexample when something breaks.  The default grids are
the pinned acceptance instances; each grid field a caller sets replaces
its default.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from . import codes, formulas, linalg, monomials, runtime, varieties
from .errors import DependentBasis, WitnessInvalid
from .gf import make_field
from .monomials import format_monomial
from .polys import make_poly, reduce_polynomial


@dataclass
class Check:
    name: str
    passed: bool = True
    cases: int = 0
    counterexample: dict | None = None
    note: str | None = None

    def case(self, ok: bool, counterexample=None, cases: int = 1) -> None:
        """Count cases; the first failing case's counterexample is kept.
        counterexample is a zero-argument callable that builds it, called
        only for that case, so passing cases format nothing."""
        self.cases += cases
        if not ok and self.passed:
            self.passed = False
            self.counterexample = None if counterexample is None else counterexample()


@dataclass
class SuiteReport:
    suite: str
    checks: list[Check] = field(default_factory=list)
    seconds: float = 0.0  # wall time of the run, set by run_suites

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def cases(self) -> int:
        return sum(c.cases for c in self.checks)

    def check(self, name: str) -> Check:
        """Append an empty check; the suite feeds it with Check.case."""
        self.checks.append(Check(name))
        return self.checks[-1]


@dataclass
class VerifyConfig:
    qs: tuple[int, ...] | None = None
    m_max: int | None = None
    d_max: int | None = None
    level: int | None = None
    budget: int | None = None
    workers: int = 1

    def grid(self, default_qs, default_m=None, default_d=None):
        return (self.qs or default_qs,
                self.m_max if self.m_max is not None else default_m,
                self.d_max if self.d_max is not None else default_d)

    def hypercube_level(self) -> int:
        return self.level if self.level is not None else 2


def _subsets(walks, cfg: VerifyConfig, suite: str):
    """(key, subset) for every subset of each (key, pool, targets) walk,
    pool by pool, smallest subsets first in combinations order.  Every pool
    is charged to the budget, in order, before the first subset of any:
    2^|pool| x targets, targets being the monomials that one subset's
    shadows and footprints test."""
    walks = [(key, list(pool), targets) for key, pool, targets in walks]
    for _, pool, targets in walks:
        runtime.charge_budget(2 ** len(pool) * targets, cfg.budget, f"{suite} subset walk")
    return ((key, sset) for key, pool, _ in walks
            for r in range(len(pool) + 1) for sset in itertools.combinations(pool, r))


def _names(mons):
    return [format_monomial(mu) for mu in mons]


def _reduced_count(m: int, q: int, degrees, lv: int | None = None) -> int:
    return sum(len(monomials.reduced_monomials(m, q, e, lv)) for e in degrees)


def suite_reduction(cfg: VerifyConfig) -> SuiteReport:
    """Projective reduction: idempotence, degree and evaluation invariance."""
    rep = SuiteReport("reduction")
    qs, m_max, d_max = cfg.grid((2, 3, 4), 2, 6)
    struct = rep.check("reduced form is degree-preserving idempotent normal form")
    evals = rep.check("reduction preserves evaluation on the full affine cube")
    # two evaluation matrices per degree, C(m+d, d) monomials on q^(m+1) points
    runtime.charge_budget(sum(q ** (m + 1) * 2 * math.comb(m + d, d) for q in qs
                              for m in range(m_max + 1) for d in range(d_max + 1)),
                          cfg.budget, "reduction cube evaluation")
    for q in qs:
        field_q = make_field(q)
        for m in range(m_max + 1):
            cube = list(itertools.product(range(q), repeat=m + 1))
            for d in range(d_max + 1):
                mons = monomials.all_monomials(m, d)
                reds = [monomials.reduce_monomial(mon, q) for mon in mons]
                # eval_matrix evaluates each monomial as written, so it is
                # independent of the reduction under test
                same = (linalg.eval_matrix(field_q, mons, cube)
                        == linalg.eval_matrix(field_q, reds, cube)).all(axis=1)
                for mon, red, row_same in zip(mons, reds, same):
                    def bad():
                        return {"q": q, "monomial": format_monomial(mon),
                                "reduced": format_monomial(red)}
                    ok = (sum(red) == d
                          and monomials.is_reduced(red, q)
                          and monomials.reduce_monomial(red, q) == red)
                    # a reduced monomial must be a fixed point
                    if monomials.is_reduced(mon, q):
                        ok = ok and red == mon
                    struct.case(ok, bad)
                    evals.case(row_same, bad)

    # coefficient aggregation may cancel terms entirely
    f2 = make_field(2)
    poly = make_poly(1, 3, {(2, 1): 1, (1, 2): 1})
    rep.check("colliding reductions aggregate in the field (x0^2*x1 + x0*x1^2 over F_2 dies)"
              ).case(reduce_polynomial(poly, f2).is_zero)
    f3 = make_field(3)
    poly3 = make_poly(1, 4, {(3, 1): 1, (1, 3): 2})
    rep.check("aggregated coefficient 1+2 vanishes over F_3"
              ).case(reduce_polynomial(poly3, f3).is_zero)
    return rep


def suite_footprint_decomposition(cfg: VerifyConfig) -> SuiteReport:
    """Level slices partition the footprint; slices only see the
    level-restricted generators; sizes stabilize past the stable degree."""
    rep = SuiteReport("footprint-decomposition")
    qs, m_max, d_max = cfg.grid((3,), 2, 2)
    part = rep.check("footprint is the disjoint union of its level slices")
    sliced = rep.check("level slice depends only on the level-restricted generators")
    stab = rep.check("footprint size is constant from the stable degree on")
    m = m_max
    walks = []
    for q in qs:
        # degree-0 generated sets are only {} and {1}; the stable degree
        # d + m(q-1) is meaningful for forms, so d starts at 1
        for d in range(1, d_max + 1):
            estar = monomials.stable_degree(d, m, q)
            stable = (estar, estar + 1, estar + 2)
            # the whole footprint, its level slices and the restricted slices
            walks.append(((q, d, stable), monomials.reduced_monomials(m, q, d),
                          3 * _reduced_count(m, q, stable)))
    for (q, d, stable), sset in _subsets(walks, cfg, rep.suite):
        sizes = []
        for e in stable:
            whole = monomials.footprint(sset, e, q, m)
            slices = [monomials.footprint(sset, e, q, m, lv) for lv in range(m + 1)]
            flat = [mu for sl in slices for mu in sl]
            part.case(sorted(flat) == sorted(whole) and len(flat) == len(whole),
                      lambda: {"q": q, "d": d, "e": e, "set": _names(sset)})
            for lv in range(m + 1):
                restr = monomials.restrict_level(sset, lv, q)
                sliced.case(monomials.footprint(restr, e, q, m, lv) == slices[lv],
                            lambda: {"q": q, "d": d, "e": e, "level": lv, "set": _names(sset)})
            sizes.append(len(whole))
        stab.case(len(set(sizes)) == 1,
                  lambda: {"q": q, "d": d, "set": _names(sset), "sizes": sizes})
    return rep


def suite_specialization(cfg: VerifyConfig) -> SuiteReport:
    """Dropping the level variable preserves divisibility and footprints."""
    rep = SuiteReport("specialization")
    qs, m_max, d_max = cfg.grid((3,), 2, 3)
    div = rep.check("divisibility into the top slice transfers through specialization")
    fp = rep.check("stable level-slice size equals the hypercube footprint of the specialized set")
    bij = rep.check(
        "below q the specialization is a lex-preserving bijection onto the bounded cube")
    for q in qs:
        m = m_max
        for d in range(1, d_max + 1):
            e = monomials.stable_degree(d, m, q)
            for lv in range(m + 1):
                tops = monomials.reduced_monomials(m, q, e, lv)
                mus = [mu for mu in monomials.reduced_monomials(m, q, d)
                       if all(a == 0 for a in mu[lv + 1:])]
                for mu in mus:
                    smu = mu[:lv]
                    for nu in tops:
                        div.case(monomials.divides(mu, nu) == monomials.divides(smu, nu[:lv]),
                                 lambda: {"q": q, "d": d, "e": e, "level": lv,
                                          "mu": format_monomial(mu),
                                          "nu": format_monomial(nu)})

    m = m_max
    d = min(2, d_max)
    walks = []
    for q in qs:
        e = monomials.stable_degree(d, m, q)
        # each level slice and the level-lv cube of its specialization
        walks.append(((q, e), monomials.reduced_monomials(m, q, d),
                      _reduced_count(m, q, [e]) + sum(q ** lv for lv in range(m + 1))))
    for (q, e), sset in _subsets(walks, cfg, rep.suite):
        for lv in range(m + 1):
            restr = monomials.restrict_level(sset, lv, q)
            lhs = len(monomials.footprint(restr, e, q, m, lv))
            rhs = len(monomials.hypercube_footprint(monomials.specialize(restr, lv), lv, q))
            fp.case(lhs == rhs, lambda: {"q": q, "d": d, "e": e, "level": lv,
                                         "set": _names(sset), "slice": lhs, "affine": rhs})

    for q in (3, 4):
        for m in range(1, 3):
            for d in range(1, q):
                image = [mu[:m] for mu in monomials.reduced_monomials(m, q, d)]
                target = [list(t) for t in monomials.hypercube_slice(m, q, d, "at_most")]
                bij.case([list(t) for t in image] == target, lambda: {"q": q, "m": m, "d": d})
    return rep


def suite_expander(cfg: VerifyConfig) -> SuiteReport:
    """The exponent-shifting expander never shrinks stable footprints."""
    rep = SuiteReport("expander")
    qs, m, d = cfg.grid((3,), 2, 2)
    inj = rep.check("expander is injective, reduced and degree-preserving")
    grow = rep.check("stable footprint never shrinks under the expander")
    top = rep.check("top level slice only gains footprint at stable degrees")
    nxt = rep.check("next-to-top slice only loses footprint (all degrees)")
    low = rep.check("sub-stable degrees scanned for contrast")
    drops = 0
    walks = []
    for q in qs:
        estar = monomials.stable_degree(d, m, q)
        stable = (estar, estar + 1, estar + 2)
        # before and after: whole footprints from d on, top two slices when stable
        targets = 2 * (_reduced_count(m, q, range(d, estar + 3))
                       + _reduced_count(m, q, stable, m) + _reduced_count(m, q, stable, m - 1))
        walks.append(((q, stable), monomials.reduced_monomials(m, q, d), targets))
    for (q, stable), sset in _subsets(walks, cfg, rep.suite):
        image = monomials.expand(sset, q)
        inj.case(len(image) == len(sset)
                 and all(monomials.is_reduced(mu, q) for mu in image)
                 and sorted(map(sum, image)) == sorted(map(sum, sset)),
                 lambda: {"set": _names(sset), "image": _names(image)})
        for e in stable:
            before = monomials.footprint(sset, e, q, m)
            after = monomials.footprint(image, e, q, m)
            grow.case(len(before) <= len(after),
                      lambda: {"e": e, "set": _names(sset),
                               "before": len(before), "after": len(after)})
            top.case(set(monomials.footprint(sset, e, q, m, m)) <= set(
                monomials.footprint(image, e, q, m, m)), lambda: {"e": e, "set": _names(sset)})
            nxt.case(set(monomials.footprint(image, e, q, m, m - 1)) <= set(
                monomials.footprint(sset, e, q, m, m - 1)),
                lambda: {"e": e, "set": _names(sset)})
        for e in range(d, stable[0]):
            low.case(True)
            drops += len(monomials.footprint(sset, e, q, m)) > len(
                monomials.footprint(image, e, q, m))
    low.note = f"{drops} size drops below the stable degree (recorded, not failures)"
    return rep


def suite_clements_lindstrom(cfg: VerifyConfig) -> SuiteReport:
    """Lex segments have extremal shadows, one degree step and iterated."""
    rep = SuiteReport("clements-lindstrom")
    qs, _, d_max = cfg.grid((2, 3), None, 2)
    lv = cfg.hypercube_level()
    step = rep.check("one-step shadows of lex segments are minimal and lex-initial")
    iterated = rep.check("iterated shadows keep lex segments extremal up to the cube top")
    walks = []
    for q in qs:
        top = lv * (q - 1)
        for d in range(d_max + 1):
            # tset and its segment: four slice tests one degree up, then per
            # degree to the top four slice tests and two whole-cube footprints
            targets = 4 * len(monomials.hypercube_slice(lv, q, d + 1)) + sum(
                4 * len(monomials.hypercube_slice(lv, q, e)) + 2 * q ** lv
                for e in range(d, top + 1))
            walks.append(((q, d, top), monomials.hypercube_slice(lv, q, d, "exact"), targets))
    for (q, d, top), tset in _subsets(walks, cfg, rep.suite):
        seg = monomials.hypercube_lex_segment(lv, q, d, len(tset), "exact")
        sh_seg = monomials.hypercube_shadow(seg, lv, q, d + 1)
        sh_t = monomials.hypercube_shadow(tset, lv, q, d + 1)
        prefix = monomials.hypercube_lex_segment(lv, q, d + 1, len(sh_t), "exact")
        contained = set(sh_seg) <= set(prefix)
        fp_ok = (len(monomials.hypercube_footprint(tset, lv, q, d + 1))
                 <= len(monomials.hypercube_footprint(seg, lv, q, d + 1)))
        step.case(contained and fp_ok, lambda: {"q": q, "d": d, "set": _names(tset)})
        for e in range(d, top + 1):
            sh_seg_e = monomials.hypercube_shadow(seg, lv, q, e)
            sh_t_e = monomials.hypercube_shadow(tset, lv, q, e)
            pre = monomials.hypercube_lex_segment(lv, q, e, len(sh_t_e), "exact")
            ok = (set(sh_seg_e) <= set(pre)
                  and len(sh_seg_e) <= len(sh_t_e)
                  and len(monomials.hypercube_footprint(tset, lv, q, e))
                  <= len(monomials.hypercube_footprint(seg, lv, q, e))
                  and len(monomials.hypercube_footprint(tset, lv, q))
                  <= len(monomials.hypercube_footprint(seg, lv, q)))
            iterated.case(ok, lambda: {"q": q, "d": d, "e": e, "set": _names(tset)})
    return rep


def suite_wei(cfg: VerifyConfig) -> SuiteReport:
    """Down-sets of lex type maximize footprints among mixed-degree sets."""
    rep = SuiteReport("wei")
    qs, _, d_max = cfg.grid((2, 3), None, 2)
    lv = cfg.hypercube_level()
    wei = rep.check("mixed-degree lex prefixes maximize the full footprint")
    shadow = rep.check("shadow of a lex prefix is the terminal up-set with the positional size")
    comp = rep.check("degree-step shadow of a lex prefix is a lex segment (nonempty when fed)")
    # no hypercube monomial has degree above the cube top l(q-1)
    walks = [((q, d), monomials.hypercube_slice(lv, q, d, "at_most"), 2 * q ** lv)
             for q in qs for d in range(min(d_max, lv * (q - 1)) + 1)]
    for (q, d), tset in _subsets(walks, cfg, rep.suite):
        seg = monomials.hypercube_lex_segment(lv, q, d, len(tset), "at_most")
        wei.case(len(monomials.hypercube_footprint(tset, lv, q))
                 <= len(monomials.hypercube_footprint(seg, lv, q)),
                 lambda: {"q": q, "d": d, "set": _names(tset)})
    for (q, d), pool, _ in walks:
        for rho in range(1, len(pool) + 1):
            seg = monomials.hypercube_lex_segment(lv, q, d, rho, "at_most")
            alpha = seg[-1]
            sh = monomials.hypercube_shadow(seg, lv, q)
            upset = [mu for mu in monomials.hypercube(lv, q) if mu >= alpha]
            below = sum(a * q ** (lv - 1 - i) for i, a in enumerate(alpha))
            ok = (sorted(sh) == sorted(upset)
                  and len(sh) == q**lv - below
                  and sorted(set(sh) & set(pool)) == sorted(seg))
            shadow.case(ok, lambda: {"q": q, "d": d, "rho": rho})
        if d >= 1:
            down = monomials.hypercube_slice(lv, q, d - 1, "at_most")
            for rho in range(len(down) + 1):
                seg = monomials.hypercube_lex_segment(lv, q, d - 1, rho, "at_most")
                sh = monomials.hypercube_shadow(seg, lv, q, d)
                want = monomials.hypercube_lex_segment(lv, q, d, len(sh), "exact")
                comp.case(sorted(sh) == sorted(want) and (rho == 0 or bool(sh)),
                          lambda: {"q": q, "d": d, "rho": rho})
    return rep


def suite_affinecomb(cfg: VerifyConfig) -> SuiteReport:
    """Mixed sets lose to the matched segment-union of the same shape."""
    rep = SuiteReport("affinecomb")
    qs, _, d_max = cfg.grid((2, 3), None, 2)
    lv = cfg.hypercube_level()
    check = rep.check("segment-union of matching shape has the larger footprint")
    walks = [((q, d), monomials.hypercube_slice(lv, q, d, "at_most"), 2 * q ** lv)
             for q in qs for d in range(1, d_max + 1)]
    for (q, d), tset in _subsets(walks, cfg, rep.suite):
        top = [mu for mu in tset if sum(mu) == d]
        u = set(monomials.hypercube_lex_segment(lv, q, d, len(top), "exact"))
        u |= set(monomials.hypercube_lex_segment(lv, q, d - 1, len(tset) - len(top), "at_most"))
        ok = (len(u) == len(tset)
              and len(monomials.hypercube_footprint(tset, lv, q))
              <= len(monomials.hypercube_footprint(u, lv, q)))
        check.case(ok, lambda: {"q": q, "d": d, "set": _names(tset)})
    return rep


def suite_macaulay(cfg: VerifyConfig) -> SuiteReport:
    """Binomial-sum representations agree with the direct tuple ranking."""
    rep = SuiteReport("macaulay")
    qs, m_max, _ = cfg.grid((3, 4, 5, 7), 4, None)
    h_form = rep.check("affine maximum agrees with its Macaulay form")
    e_form = rep.check("predicted projective maximum agrees with its Macaulay form")
    staircase = rep.check(
        "representation is monotone, strictly staircased and reconstructs its input")
    # both rank loops run over C(m+d, d) + 1 ranks, each tuple of m+d entries
    runtime.charge_budget(sum((m + d) * math.comb(m + d, d) for q in qs
                              for m in range(1, m_max + 1) for d in range(1, q)),
                          cfg.budget, "macaulay rank evaluation")
    for q in qs:
        for m in range(1, m_max + 1):
            for d in range(1, q):
                top = formulas.binom(m + d, d)
                for r in range(top + 1):
                    h_form.case(formulas.affine_max_points(r, d, m, q)
                                == formulas.affine_max_points_macaulay(r, d, m, q),
                                lambda: {"q": q, "m": m, "d": d, "r": r})
                for r in range(1, top + 1):
                    e_form.case(formulas.conjectured_max_points(r, d, m, q)[0]
                                == formulas.conjectured_max_points_macaulay(r, d, m, q),
                                lambda: {"q": q, "m": m, "d": d, "r": r})

    for d in range(1, 7):
        for n in range(formulas.binom(4 + d, d) + 1):
            parts = formulas.macaulay_tuple(n, d)
            svals = [parts[idx] + (d - idx) for idx in range(d)]
            ok = (all(x >= -1 for x in parts)
                  and all(a >= b for a, b in zip(parts, parts[1:]))
                  and all(a > b for a, b in zip(svals, svals[1:]))
                  and formulas.macaulay_value(parts) == n)
            staircase.case(ok, lambda: {"n": n, "d": d, "tuple": list(parts)})
    return rep


SANDWICH_INSTANCES = ((3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2), (4, 3, 1))
WITNESS_GRID = tuple((q, d, m) for q in (3, 4, 5)
                     for d in range(1, q) for m in (1, 2))


def suite_sandwich(cfg: VerifyConfig) -> SuiteReport:
    """Exhaustive maxima sit between prediction and the proven ceiling."""
    rep = SuiteReport("sandwich")
    sand = rep.check("prediction <= exhaustive maximum <= ceiling, equality when settled")
    order = rep.check("exhaustive maximum strictly decreases with the rank")
    viol = rep.check("no subspace beats the footprint of its leading monomials")
    viol_total = 0
    for q, d, m in SANDWICH_INSTANCES:
        k = len(monomials.reduced_monomials(m, q, d))
        prev = None
        for r in range(1, k + 1):
            res = varieties.brute_force_max_points(
                r, d, m, q, budget=cfg.budget, workers=cfg.workers, footprint_check=True)
            viol_total += len(res.violations)
            viol.case(not res.violations,
                      lambda: {"q": q, "d": d, "m": m, "r": r,
                               "violation": list(res.violations[0])},
                      cases=res.enumerated)
            conj, status = formulas.conjectured_max_points(r, d, m, q)
            ceiling = formulas.projective_upper_bound(r, d, m, q)
            known = formulas.known_max_points(r, d, m, q)
            recount = varieties.count_common_zeros(res.witness, m, q)
            ok = (conj <= res.value <= ceiling
                  and recount == res.value
                  and (status != "proven" or res.value == conj)
                  and (known is None or res.value == known))
            sand.case(ok, lambda: {"q": q, "d": d, "m": m, "r": r, "value": res.value,
                                   "predicted": conj, "ceiling": ceiling, "known": known})
            order.case(prev is None or res.value < prev,
                       lambda: {"q": q, "d": d, "m": m, "r": r})
            prev = res.value
    viol.note = f"{viol_total} violations in {viol.cases} subspaces"

    eq = rep.check("identically-vanishing forms shift but do not change the maxima")
    q, d, m = 2, 3, 1
    gdim = formulas.vanishing_forms_dim(d, m, q)
    for r in range(1, len(monomials.reduced_monomials(m, q, d)) + 1):
        full = varieties.brute_force_max_points(r + gdim, d, m, q, mode="all",
                                                budget=cfg.budget, workers=cfg.workers)
        red = varieties.brute_force_max_points(r, d, m, q, mode="reduced",
                                               budget=cfg.budget, workers=cfg.workers)
        eq.case(full.value == red.value, lambda: {"q": q, "d": d, "m": m, "r": r,
                                                  "full": full.value, "reduced": red.value})
    for r in range(1, gdim + 1):
        full = varieties.brute_force_max_points(r, d, m, q, mode="all",
                                                budget=cfg.budget, workers=cfg.workers)
        eq.case(full.value == formulas.projective_count(m, q),
                lambda: {"q": q, "d": d, "m": m, "r": r, "full": full.value})

    wit = rep.check("constructed witness families attain every predicted maximum")
    for q, d, m in WITNESS_GRID:
        for r in range(1, formulas.binom(m + d, d) + 1):
            try:
                res = varieties.construct_witness(r, d, m, q)
                ok, seen = res.value == res.predicted, {"value": res.value,
                                                        "predicted": res.predicted}
            except WitnessInvalid as exc:
                ok, seen = False, {"error": str(exc)}
            wit.case(ok, lambda: {"q": q, "d": d, "m": m, "r": r, **seen})
    return rep


MINDIST_INSTANCES = ((2, 1, 3), (2, 2, 3), (1, 2, 3), (2, 2, 2), (2, 1, 4), (3, 1, 4))
GHW_SMALL = ((2, 1, 3), (1, 1, 3), (1, 2, 3), (2, 2, 2), (3, 1, 2))


def suite_codes(cfg: VerifyConfig) -> SuiteReport:
    """Evaluation codes: dimension, nondegeneracy, distances, hierarchy."""
    rep = SuiteReport("codes")
    qs, m_max, _ = cfg.grid((2, 3, 4), 3, None)
    dim = rep.check("generator rank matches the alternating-sum dimension, no dead points")
    ideal = rep.check("vanishing-ideal dimension identities hold beyond the code range")
    mindist = rep.check("exhaustive minimum distance matches the closed form")
    hier = rep.check("weight hierarchy strictly increases to n and clears its floor")
    # one generator per (q, m, d), k forms evaluated at n points, then ranked
    runtime.charge_budget(sum(formulas.prm_dimension(d, m, q) * formulas.projective_count(m, q)
                              for q in qs for m in range(1, m_max + 1)
                              for d in range(1, m * (q - 1) + 1)),
                          cfg.budget, "codes generator evaluation")
    for q in qs:
        for m in range(1, m_max + 1):
            for d in range(1, m * (q - 1) + 1):
                code = codes.build_prm(d, m, q)
                ok = (linalg.rank(make_field(q), code.generator) == code.k
                      and code.k == formulas.prm_dimension(d, m, q)
                      and code.k == len(monomials.reduced_monomials(m, q, d))
                      and code.n == formulas.projective_count(m, q)
                      and not (code.generator == 0).all(axis=0).any())
                dim.case(ok, lambda: {"q": q, "m": m, "d": d, "k": code.k})

    for q in (2, 3, 4):
        for m in (1, 2):
            for d in range(0, m * (q - 1) + 3):
                k = len(monomials.reduced_monomials(m, q, d))
                gd = formulas.vanishing_forms_dim(d, m, q)
                ok = gd == formulas.binom(m + d, d) - k
                if d >= 1:
                    ok = ok and formulas.prm_dimension(d, m, q) == k
                if d <= q:
                    ok = ok and gd == 0
                if d == q + 1:
                    ok = ok and gd == formulas.binom(m + 1, 2)
                if d >= m * (q - 1) + 1:
                    ok = ok and k == formulas.projective_count(m, q)
                ideal.case(ok, lambda: {"q": q, "m": m, "d": d})

    # the witness's weight is recounted from the generator, not the scan's masks
    for d, m, q in MINDIST_INSTANCES:
        code = codes.build_prm(d, m, q)
        res = codes.ghw_exhaustive(code, 1, budget=cfg.budget, workers=cfg.workers)
        want = formulas.prm_min_distance(d, m, q)
        try:
            recount = codes.subspace_weight(code, res.rows)
        except DependentBasis:
            recount = None
        mindist.case(res.value == want == recount,
                     lambda: {"q": q, "m": m, "d": d, "weight": res.value, "formula": want,
                              "recount": recount})

    for d, m, q in GHW_SMALL:
        code = codes.build_prm(d, m, q)
        table = codes.ghw_table(code, budget=cfg.budget, workers=cfg.workers)
        ok = all(a < b for a, b in zip(table, table[1:])) and table[-1] == code.n
        if d < q:
            for r in range(1, code.k + 1):
                ok = ok and formulas.ghw_lower_bound(r, d, m, q) <= table[r - 1]
        hier.case(ok, lambda: {"q": q, "m": m, "d": d, "table": list(table)})
    return rep


DUALITY_INSTANCES = ((1, 1, 3), (1, 2, 3), (2, 1, 3), (2, 2, 3), (3, 1, 2))


def suite_duality(cfg: VerifyConfig) -> SuiteReport:
    """Exhaustive weights and exhaustive zero maxima are complementary."""
    rep = SuiteReport("duality")
    check = rep.check("weight + max zeros = point count at every rank")
    for d, m, q in DUALITY_INSTANCES:
        for row in codes.check_duality(d, m, q, budget=cfg.budget, workers=cfg.workers):
            check.case(row["holds"], lambda: {"q": q, "m": m, "d": d, **row})
    return rep


SUITES = {
    "reduction": suite_reduction,
    "footprint-decomposition": suite_footprint_decomposition,
    "specialization": suite_specialization,
    "expander": suite_expander,
    "clements-lindstrom": suite_clements_lindstrom,
    "wei": suite_wei,
    "affinecomb": suite_affinecomb,
    "macaulay": suite_macaulay,
    "sandwich": suite_sandwich,
    "codes": suite_codes,
    "duality": suite_duality,
}


def resolve_suites(names) -> list[str]:
    """Expand 'all' and drop repeats, keeping first-mention order; an
    unknown name raises KeyError listing the choices."""
    if isinstance(names, str):
        names = [names]
    expanded = []
    for name in names:
        if name == "all":
            expanded.extend(SUITES)
        elif name in SUITES:
            expanded.append(name)
        else:
            raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    return list(dict.fromkeys(expanded))


def run_suites(names, cfg: VerifyConfig) -> list[SuiteReport]:
    reports = []
    for name in resolve_suites(names):
        start = time.perf_counter()
        reports.append(SUITES[name](cfg))
        reports[-1].seconds = time.perf_counter() - start
    return reports
