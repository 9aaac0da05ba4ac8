"""Acceptance suites: one callable per numbered check, deterministic facts.

Each suite returns (passed, facts) where facts is a flat str -> str mapping
whose keys and values are reproducible across runs: every sampled check is
seeded, every witness comes from a canonical scan order, and no timing or
environment data leaks in.  The command line renders the facts sorted by
key, so two runs of the full battery are byte identical.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from .braid import (
    braid_group,
    braid_ordering_catalog,
    dehornoy_oracle,
    dehornoy_sign,
    flipped_dehornoy_oracle,
    handle_reduce,
    invert_generators,
    ordering_oracle,
    random_word,
)
from .core import (
    BudgetExceededError,
    RefusedConstructionError,
    SignOracle,
    check_bi_invariance,
    distinguishing_witness,
    inner_automorphism,
    least_positive_in_ball,
    separating_element,
    verify_cone_axioms,
)
from .extensions import (
    KleinAut,
    HYPERBOLIC_MATRIX,
    TWIST_CHECK_RADIUS,
    g_group,
    g_least_positive,
    g_ordering,
    k_group,
    klein_action_kernel,
    klein_action_witness,
    klein_as_extension,
    klein_family,
    klein_group,
    klein_inner,
    klein_orderings,
    lex_extension,
)
from .lattice import (
    FormFlag,
    comm_acts_trivially,
    eigen_orderings,
    flag_ordering,
    is_scalar_star,
    lattice_group,
    matrix_pushforward,
    preserves,
    probe_flags,
    vlo_equal,
)
from .lospace import (
    PartialCone,
    condition_star_check,
    enumerate_partial_cones,
    extend_partial_cone,
)
from .magnus import (
    FREE_PROBES,
    free_group,
    free_probe,
    free_probe_catalog,
    magnus_oracle,
)
from .quadfield import QuadRat

SEED = 1729

SAMPLE_WORDS = 10_000
SAMPLE_TRIPLES = 1_000

SCALAR_GRID = tuple((p, q) for p in range(1, 5) for q in range(1, 5))

NON_SCALARS = (
    ((1, 1), (0, 1)),
    ((3, 0), (0, 2)),
    ((1, 2), (1, 1)),
    ((-1, 0), (0, -1)),
    ((0, 1), (1, 0)),
    ((2, 1), (1, 1)),
    ((1, 0), (1, 1)),
    ((Fraction(1, 2), 0), (0, 2)),
    ((-2, 0), (0, -3)),
    ((2, 3), (1, 2)),
)

COMMENSURATIONS = (
    ((1, 0), (0, 1)),
    ((2, 0), (0, 2)),
    ((Fraction(3, 2), 0), (0, Fraction(3, 2))),
    ((Fraction(1, 3), 0), (0, Fraction(1, 3))),
    HYPERBOLIC_MATRIX,
    ((-1, -2), (-1, -1)),
    ((-1, 0), (0, -1)),
    ((0, 1), (1, 0)),
    ((1, 1), (0, 1)),
    ((3, 0), (0, 2)),
    ((1, 0), (1, 1)),
    ((Fraction(1, 2), 0), (0, 2)),
)

SCALAR_COUNT = 4


def _mat_key(rows) -> str:
    cells = "],[".join(",".join(str(Fraction(x)) for x in row) for row in rows)
    return f"[[{cells}]]"


def _axiom_jobs():
    kg = klein_group()
    for oracle in klein_orderings():
        yield oracle, kg, 8
    z2 = lattice_group(2)
    root = QuadRat.root(2)
    one = QuadRat.of(1, 0, 2)
    yield flag_ordering(z2, [(1, 0), (0, 1)]), z2, 8
    yield flag_ordering(z2, [(root, one)]), z2, 8
    yield flag_ordering(z2, [(-root, one)]), z2, 8
    f2 = free_group(2)
    yield magnus_oracle(f2), f2, 4
    for n in (3, 4):
        bn = braid_group(n)
        yield dehornoy_oracle(bn), bn, 4
        yield flipped_dehornoy_oracle(bn), bn, 4
        for i in range(1, n):
            yield ordering_oracle(bn, i), bn, 4
    yield g_ordering(), g_group(), 4


@functools.lru_cache(maxsize=1)
def _cone_report(oracle: SignOracle, group, radius: int):
    """verify_cone_axioms, remembering the last job only: cone-axioms ends
    with the G ordering on ball(4), and extension-pipeline checks the same
    job, so a battery runs it once."""
    return verify_cone_axioms(oracle, group, radius)


def suite_cone_axioms():
    """Positive cones really are cones: inverse signs flip and products of
    positives stay positive, for every catalogued ordering on its ball.
    Jobs with one sign function are one ordering under several names, such
    as dehornoy and least[s_(n-1)] on B_n: it is checked once, and its
    report is printed under each name."""
    passed = True
    facts = {}
    reports = {}
    for oracle, group, radius in _axiom_jobs():
        job = (oracle.fn, group, radius)
        if job not in reports:
            reports[job] = _cone_report(oracle, group, radius)
        report = reports[job]
        facts[f"{group.name}/{oracle.descriptor}"] = (
            "pass" if report.passed else f"fail[{len(report.violations)}]")
        passed = passed and report.passed
    return passed, facts


def suite_least_elements():
    """Each braid ordering bottoms out at its designated generator."""
    passed = True
    facts = {}
    for n in (3, 4):
        bn = braid_group(n)
        least = least_positive_in_ball(dehornoy_oracle(bn), bn, 4)
        ok = bn.key(least) == bn.key((n - 1,))
        facts[f"B{n}/dehornoy"] = bn.label(least)
        passed = passed and ok
        for i in range(1, n):
            least = least_positive_in_ball(ordering_oracle(bn, i), bn, 3)
            ok = bn.key(least) == bn.key((i,))
            facts[f"B{n}/least[s{i}]"] = bn.label(least)
            passed = passed and ok
    return passed, facts


def suite_handle_robustness():
    """Random braid word signs respect inversion, and comparisons survive
    renormalization by handle reduction, the engine independent of the
    Dynnikov signs.  budget-failures counts the triples whose handle
    reduction ran out of its budget of reductions; such a triple is
    skipped."""
    rng = random.Random(SEED)
    trichotomy_failures = 0
    for _ in range(SAMPLE_WORDS):
        w = random_word(rng, 4, rng.randint(1, 64))
        s = dehornoy_sign(w)
        s_inv = dehornoy_sign(tuple(-a for a in reversed(w)))
        if (s, s_inv) not in {(0, 0), (1, -1), (-1, 1)}:
            trichotomy_failures += 1
    budget_failures = 0
    triple_failures = 0
    for _ in range(SAMPLE_TRIPLES):
        u = random_word(rng, 4, rng.randint(1, 32))
        w1 = random_word(rng, 4, rng.randint(1, 32))
        w2 = random_word(rng, 4, rng.randint(1, 32))
        base = dehornoy_sign(tuple(-a for a in reversed(w1)) + w2)
        try:
            r1 = handle_reduce(u + w1)
            r2 = handle_reduce(u + w2)
        except BudgetExceededError:
            budget_failures += 1
            continue
        shifted = dehornoy_sign(tuple(-a for a in reversed(r1)) + r2)
        if base != shifted:
            triple_failures += 1
    passed = budget_failures == trichotomy_failures == triple_failures == 0
    return passed, {
        "budget-failures": str(budget_failures),
        "samples": str(SAMPLE_WORDS),
        "seed": str(SEED),
        "trichotomy-failures": str(trichotomy_failures),
        "triple-failures": str(triple_failures),
        "triples": str(SAMPLE_TRIPLES),
    }


def suite_braid_witnesses():
    """Generator inversion and conjugation by the first generator both move
    some catalogued braid ordering, witnessed by an element of ball(3)."""
    passed = True
    facts = {}
    for n in (3, 4):
        bn = braid_group(n)
        catalog = [dehornoy_oracle(bn)] + braid_ordering_catalog(bn)
        probes = (("invert-gens", invert_generators(bn)),
                  ("inner-s1", inner_automorphism(bn, (1,))))
        for name, phi in probes:
            hit = distinguishing_witness(phi, catalog, bn, 3)
            if hit is None:
                facts[f"B{n}/{name}"] = "none"
                passed = False
            else:
                oracle, g = hit
                facts[f"B{n}/{name}"] = f"{oracle.descriptor}@{bn.label(g)}"
    return passed, facts


def suite_klein_four():
    """Every radius-6 partial cone that completes to radius 12 is the
    restriction of one of the four total orderings, and those restrictions
    are already distinguishable at radius 2."""
    kg = klein_group()
    orderings = klein_orderings()
    restrictions = [PartialCone.from_oracle(P, kg, 6) for P in orderings]
    cones = enumerate_partial_cones(kg, 6)
    extendable = 0
    unmatched = 0
    for cone in cones:
        if not extend_partial_cone(cone, kg, 12, max_results=1):
            continue
        extendable += 1
        if cone not in restrictions:
            unmatched += 1
    present = sum(1 for r in restrictions if r in cones)
    separated = all(
        separating_element(orderings[i], orderings[j], kg, 2) is not None
        for i in range(4) for j in range(i + 1, 4))
    passed = unmatched == 0 and present == 4 and separated
    return passed, {
        "cones(6)": str(len(cones)),
        "extendable(12)": str(extendable),
        "restrictions-found": str(present),
        "separated(2)": "yes" if separated else "no",
        "unmatched": str(unmatched),
    }


def suite_klein_kernel():
    """The automorphism family acts on the four orderings through its sign
    pair alone: the kernel is every (1, 1, m), and each nontrivial sign pair
    moves a cone at a canonical witness."""
    kernel = klein_action_kernel(3)
    want = [KleinAut(1, 1, m) for m in range(-3, 4)]
    kernel_ok = kernel == want and klein_inner((1, 0)) in kernel
    facts = {
        "inner-y": klein_inner((1, 0)).descriptor(),
        "kernel": ";".join(phi.descriptor() for phi in kernel),
    }
    passed = kernel_ok
    for phi in klein_family(3):
        if (phi.eps, phi.delta) == (1, 1):
            continue
        hit = klein_action_witness(phi)
        expected_g = (0, 1) if phi.eps == -1 else (1, 0)
        ok = (hit is not None and hit[0].descriptor == "klein[++]"
              and hit[1] == expected_g)
        key = f"witness[{phi.descriptor()}]"
        if hit is None:
            facts[key] = "none"
        else:
            facts[key] = f"{hit[0].descriptor}@{klein_group().label(hit[1])}"
        passed = passed and ok
    return passed, facts


def suite_matrix_eigen():
    """The hyperbolic matrix preserves exactly the slope sqrt2 flags, its
    negation exactly the slope -sqrt2 flags, and the two sets share nothing."""
    neg = tuple(tuple(-x for x in row) for row in HYPERBOLIC_MATRIX)
    ea = eigen_orderings(HYPERBOLIC_MATRIX)
    en = eigen_orderings(neg)
    root = QuadRat.root(2)
    one = QuadRat.of(1, 0, 2)
    ok_a = {f.vectors[0] for f in ea} == {(root, one), (-root, -one)}
    ok_n = {f.vectors[0] for f in en} == {(-root, one), (root, -one)}
    common = any(vlo_equal(f, h)[0] for f in ea for h in en)
    keep = preserves(HYPERBOLIC_MATRIX, FormFlag.of([(root, one)]))
    drop = preserves(HYPERBOLIC_MATRIX, FormFlag.of([(-root, one)]))
    passed = ok_a and ok_n and not common and keep and not drop
    return passed, {
        "eigen(A)": ";".join(f.descriptor() for f in ea),
        "eigen(-A)": ";".join(f.descriptor() for f in en),
        "intersection": "empty" if not common else "nonempty",
        "preserves(A,+flag)": "yes" if keep else "no",
        "preserves(A,-flag)": "yes" if drop else "no",
    }


def suite_scalar_kernel():
    """Positive rational scalars fix every probe flag and satisfy the power
    compatibility condition; ten pinned non-scalar matrices each move a
    probe flag and break the condition at a concrete vector.  The condition
    is decided exactly, by is_scalar_star."""
    flags = probe_flags(2)
    passed = True
    facts = {}
    for p, q in SCALAR_GRID:
        c = Fraction(p, q)
        m = ((c, 0), (0, c))
        fixed = all(preserves(m, flag) for flag in flags)
        ok = fixed and is_scalar_star(m)[1] is None
        facts[f"scalar[{p}/{q}]"] = "fixed" if ok else "moved"
        passed = passed and ok
    for rows in NON_SCALARS:
        trivial, flag = comm_acts_trivially(rows)
        star = is_scalar_star(rows)[1]
        ok = not trivial and flag is not None and star is not None
        moved = flag.descriptor() if flag is not None else "none"
        witness = str(star) if star is not None else "none"
        facts[f"nonscalar{_mat_key(rows)}"] = f"moved {moved}, star-fails@{witness}"
        passed = passed and ok
    return passed, facts


# the battery's keys for the probes that move x
PROBE_LABELS = {"invert": "invert-x", "inner": "inner-x"}


def suite_free_probes():
    """The series ordering is conjugation invariant, yet four automorphism
    probes each move some ordering in the catalog and each fail the power
    compatibility condition."""
    f2 = free_group(2)
    mag = magnus_oracle(f2)
    bi = check_bi_invariance(mag, f2, 3)
    catalog = free_probe_catalog(f2)
    passed = bi is None
    facts = {"series-bi-invariant(3)": "yes" if bi is None else "no"}
    for probe in FREE_PROBES:
        phi = free_probe(f2, probe)
        name = PROBE_LABELS.get(probe, probe)
        hit = distinguishing_witness(phi, catalog, f2, 3)
        star = condition_star_check(phi, f2)
        if hit is None:
            facts[f"{name}/witness"] = "none"
        else:
            oracle, g = hit
            facts[f"{name}/witness"] = f"{oracle.descriptor}@{f2.label(g)}"
        facts[f"{name}/star-fails"] = f2.label(star) if star is not None else "no"
        passed = passed and hit is not None and star is not None
    return passed, facts


def suite_extension_pipeline():
    """The lexicographic extension refuses the Klein group with the witness
    y, accepts the plane extension tower, and the resulting ordering has t
    least positive while failing conjugation invariance."""
    klein = klein_as_extension()
    facts = {}
    try:
        lex_extension(magnus_oracle(klein.base), klein)
        facts["klein-refusal"] = "accepted"
        refused = False
    except RefusedConstructionError as err:
        refused = err.witness is not None and klein.base.label(err.witness) == "y"
        facts["klein-refusal"] = f"witness {klein.base.label(err.witness)}"
    # g_ordering() is lex_extension's own twist check on ball(TWIST_CHECK_RADIUS)
    try:
        pg = g_ordering()
    except RefusedConstructionError:
        facts[f"t-conjugation({TWIST_CHECK_RADIUS})"] = "moved"
        return False, facts
    facts[f"t-conjugation({TWIST_CHECK_RADIUS})"] = "kept"
    report = _cone_report(pg, g_group(), 4)
    facts["axioms(4)"] = "pass" if report.passed else "fail"
    least = g_least_positive(3)
    least_ok = g_group().key(least) == g_group().key((k_group().identity, 1))
    facts["least(3)"] = g_group().label(least)
    flip = check_bi_invariance(pg, g_group(), 3)
    if flip is None:
        facts["bi-invariance"] = "unexpectedly holds"
    else:
        g, p = flip
        facts["bi-invariance"] = (
            f"fails at {g_group().label(g)} conjugated by {g_group().label(p)}")
    passed = refused and report.passed and least_ok and flip is not None
    return passed, facts


def suite_vlo_commensuration():
    """Among the pinned commensurations exactly the positive scalars act
    trivially on all finite-index vector orderings, confirmed on explicit
    index-4 sublattice instances."""
    passed = True
    facts = {}
    for i, rows in enumerate(COMMENSURATIONS):
        trivial, flag = comm_acts_trivially(rows)
        expect = i < SCALAR_COUNT
        state = "trivial" if trivial else f"moves {flag.descriptor()}"
        facts[f"comm{_mat_key(rows)}"] = state
        passed = passed and (trivial == expect)
    lex = FormFlag.of([(1, 0), (0, 1)])
    double = ((2, 0), (0, 2))
    half = ((Fraction(1, 2), 0), (0, Fraction(1, 2)))
    eq1, w1 = vlo_equal(lex, matrix_pushforward(double, lex),
                        ((1, 0), (0, 1)), double)
    eq2, w2 = vlo_equal(lex, matrix_pushforward(half, lex),
                        double, ((1, 0), (0, 1)))
    facts["instance[x2]"] = "equal" if eq1 else f"differ@{w1}"
    facts["instance[x1/2]"] = "equal" if eq2 else f"differ@{w2}"
    passed = passed and eq1 and w1 is None and eq2 and w2 is None
    return passed, facts


SUITES = (
    ("cone-axioms", suite_cone_axioms),
    ("least-elements", suite_least_elements),
    ("handle-robustness", suite_handle_robustness),
    ("braid-witnesses", suite_braid_witnesses),
    ("klein-four", suite_klein_four),
    ("klein-kernel", suite_klein_kernel),
    ("matrix-eigen", suite_matrix_eigen),
    ("scalar-kernel", suite_scalar_kernel),
    ("free-probes", suite_free_probes),
    ("extension-pipeline", suite_extension_pipeline),
    ("vlo-commensuration", suite_vlo_commensuration),
)


def suite_names() -> list[str]:
    return [name for name, _ in SUITES]


def run(names=None) -> list[tuple[str, bool, dict]]:
    """Run the named suites (all by default) in catalog order."""
    chosen = set(suite_names() if names is None else names)
    unknown = chosen - set(suite_names())
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    results = []
    for name, fn in SUITES:
        if name in chosen:
            passed, facts = fn()
            results.append((name, passed, facts))
    return results


def structured_lines(results) -> list[str]:
    lines = []
    overall = True
    for name, passed, facts in results:
        lines.append(f"{name}: {'pass' if passed else 'FAIL'}")
        for key in sorted(facts):
            lines.append(f"{name}.{key}: {facts[key]}")
        overall = overall and passed
    lines.append(f"result: {'pass' if overall else 'FAIL'}")
    return lines
