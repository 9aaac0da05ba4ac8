"""Partial-cone enumeration checked against brute force, the clause index
shared by every search on a ball and checked against the product table's
clauses, pinned solver node counts, plus the exact isolator and
power-agreement checks, whose ray keys are compared with a bounded power
search."""

import collections
import gc
import itertools
import random
import tracemalloc
import types
import weakref
from fractions import Fraction
from operator import itemgetter

import pytest

import ordlib.lospace as lospace
from ordlib.braid import braid_group, dehornoy_oracle
from ordlib.core import BALL_CACHE_RADII, IdentitySignError, SizeLimitError
from ordlib.extensions import KleinAut, KleinGroup, klein_group, klein_orderings
from ordlib.lattice import LatticeGroup, lattice_group, mat_from_rows, row_times_mat
from ordlib.lospace import (
    PartialCone,
    condition_star_check,
    count_partial_cones,
    enumerate_partial_cones,
    extend_partial_cone,
    isolator_member,
)
from ordlib.magnus import FreeGroup, free_group, free_probe, reduce_word

Z = lattice_group(1)
Z2 = lattice_group(2)
KLEIN = klein_group()
F2 = free_group(2)


def _brute_force_cones(group, radius):
    """Every sign assignment on inverse pairs that closes under products
    staying in the ball, as a tuple of signs in ball order."""
    ball = group.ball(radius)
    nonid = [g for g in ball if not group.is_identity(g)]
    reps, seen = [], set()
    for g in nonid:
        if g not in seen:
            seen.add(g)
            seen.add(group.invert(g))
            reps.append(g)
    inside = set(ball)
    cones = []
    for bits in itertools.product((1, -1), repeat=len(reps)):
        sign = {}
        for g, s in zip(reps, bits):
            sign[g] = s
            sign[group.invert(g)] = -s
        positives = [g for g in nonid if sign[g] == 1]
        if all(sign.get(group.multiply(g, h), 1) == 1
               for g in positives for h in positives
               if group.multiply(g, h) in inside
               and not group.is_identity(group.multiply(g, h))):
            cones.append(tuple(sign[g] for g in nonid))
    return cones


@pytest.mark.parametrize("radius,count", [(1, 4), (2, 8)])
def test_enumeration_matches_brute_force_on_small_lattice_balls(radius, count):
    brute = _brute_force_cones(Z2, radius)
    enum = enumerate_partial_cones(Z2, radius)
    assert len(brute) == len(enum) == count
    assert {c.signs for c in enum} == set(brute)


def test_integer_line_has_two_cones():
    cones = enumerate_partial_cones(Z, 3)
    assert [c.serialize() for c in cones] == [
        "(1):+\n(-1):-\n(2):+\n(-2):-\n(3):+\n(-3):-",
        "(1):-\n(-1):+\n(2):-\n(-2):+\n(3):-\n(-3):+",
    ]


def test_klein_radius_six_cones_are_the_four_orderings():
    cones = enumerate_partial_cones(KLEIN, 6)
    assert len(cones) == 4
    restrictions = {PartialCone.from_oracle(o, KLEIN, 6).signs
                    for o in klein_orderings()}
    assert {c.signs for c in cones} == restrictions
    for cone in cones:
        assert len(extend_partial_cone(cone, KLEIN, 8)) == 1


def test_partial_cone_accessors():
    oracle = klein_orderings()[0]
    cone = PartialCone.from_oracle(oracle, KLEIN, 3)
    for g in cone.elements():
        assert cone.sign(g) == oracle.sign(g)
    assert cone.serialize().splitlines()[0] == "x:+"
    assert (PartialCone.from_oracle(cone, KLEIN, 1).signs
            == PartialCone.from_oracle(oracle, KLEIN, 1).signs)
    with pytest.raises(IdentitySignError):
        cone.sign(KLEIN.identity)
    with pytest.raises(KeyError):
        cone.sign((9, 9))
    with pytest.raises(ValueError):
        extend_partial_cone(cone, KLEIN, 3)


def test_partial_cone_signs_any_spelling():
    b3 = braid_group(3)
    cone = PartialCone.from_oracle(dehornoy_oracle(b3), b3, 3)
    assert cone.sign((2, 1, 2)) == cone.sign((1, 2, 1)) == 1


def test_braid_cone_restricts_and_extends_by_key():
    b3 = braid_group(3)
    oracle = dehornoy_oracle(b3)
    cone = PartialCone.from_oracle(oracle, b3, 3)
    inner = PartialCone.from_oracle(cone, b3, 2)
    assert inner.signs == PartialCone.from_oracle(oracle, b3, 2).signs
    assert len(cone.signs) == len(b3.ball(3)) - 1
    # s2 s1 s2 s1^-1 = s1 s2 lies in ball(2); s1 s2 s1 s2^-1 = s2 s1 too
    for c in (cone, inner):
        assert c.sign((2, 1, 2, -1)) == c.sign((1, 2)) == oracle.sign((1, 2))
        assert c.sign((1, 2, 1, -2)) == c.sign((2, 1)) == oracle.sign((2, 1))
        assert c.sign((1, -1, 2)) == c.sign((2,)) == 1
    completions = extend_partial_cone(inner, b3, 3)
    assert cone.signs in [c.signs for c in completions]
    for c in completions:
        assert PartialCone.from_oracle(c, b3, 2).signs == inner.signs


@pytest.mark.parametrize("max_results", [0, -3])
def test_extension_needs_a_positive_result_cap(max_results):
    cone = enumerate_partial_cones(Z2, 1)[0]
    with pytest.raises(ValueError, match="max_results must be at least 1"):
        extend_partial_cone(cone, Z2, 2, max_results=max_results)
    assert len(extend_partial_cone(cone, Z2, 2, max_results=1)) == 1


def test_cone_at_index_and_completion_counts():
    """partial_cone_at builds the cone that enumeration lists at that index,
    and a missed index names the full count; count_partial_cones with a
    base counts the completions that extend_partial_cone builds."""
    cones = enumerate_partial_cones(F2, 2)
    for i, cone in enumerate(cones):
        assert lospace.partial_cone_at(F2, 2, i) == cone
        found = extend_partial_cone(cone, F2, 3)
        assert count_partial_cones(F2, 3, base=cone) == len(found)
        for k in (1, 2, len(found) + 1):
            assert count_partial_cones(F2, 3, base=cone, max_results=k) == min(k, len(found))
    for index in (len(cones), len(cones) + 9, -1):
        with pytest.raises(IndexError, match=f"index {index} out of range for {len(cones)} cones"):
            lospace.partial_cone_at(F2, 2, index)
    with pytest.raises(ValueError, match="max_results must be at least 1"):
        count_partial_cones(F2, 3, base=cones[0], max_results=0)


def test_node_limit_and_ball_cap(monkeypatch):
    monkeypatch.setattr(lospace, "DEFAULT_NODE_LIMIT", 3)
    with pytest.raises(SizeLimitError):
        enumerate_partial_cones(free_group(2), 2)
    with pytest.raises(SizeLimitError):
        enumerate_partial_cones(Z2, 50)


@pytest.mark.parametrize("make,radius,count", [
    (lambda: LatticeGroup(3), 3, 336), (KleinGroup, 8, 4), (lambda: FreeGroup(2), 3, 216),
], ids=["Z3-3", "Klein-8", "F2-3"])
def test_a_first_cone_search_walks_its_ball_once(monkeypatch, make, radius, count):
    """The cone cap is read off the built ball, so a search on a fresh
    group walks its ball once, not once to count it and once to build it."""
    group = make()
    walks = []
    walk = group._ball_elements

    def counted(r):
        walks.append(r)
        yield from walk(r)

    monkeypatch.setattr(group, "_ball_elements", counted)
    assert count_partial_cones(group, radius) == count
    assert walks == [radius]


@pytest.mark.parametrize("search", [
    lambda group, cone: count_partial_cones(group, 2400),
    lambda group, cone: enumerate_partial_cones(group, 2400),
    lambda group, cone: extend_partial_cone(cone, group, 2400),
], ids=["count", "enumerate", "extend"])
def test_a_refused_cone_search_leaves_the_ball_cache_as_it_found_it(search):
    """Z ball(2400) has 4,801 elements: under the ball cap, over the cone
    cap.  The refusal neither keeps it nor evicts a cached ball, and the
    cache keeps its order."""
    group = LatticeGroup(1)
    cone = enumerate_partial_cones(group, 1)[0]
    for r in (2, 3, 5, 1):
        group.ball_data(r)
    before = list(group._balls.items())
    with pytest.raises(SizeLimitError, match=r"^ball\(2400\) of Z\^1 has more than 1000"):
        search(group, cone)
    assert list(group._balls.items()) == before


def _count_clause_builds(monkeypatch) -> list:
    """Patch _build_clauses to record the ball size of every build."""
    built = []
    build = lospace._build_clauses

    def counted(table, lit):
        built.append(len(lit))
        return build(table, lit)

    monkeypatch.setattr(lospace, "_build_clauses", counted)
    return built


def test_extensions_share_one_clause_set(monkeypatch):
    """The four Klein radius-6 cones extend to radius 12 over one clause
    set, and each completes as it does on a fresh group."""
    group = KleinGroup()
    cones = enumerate_partial_cones(group, 6)
    assert len(cones) == 4
    built = _count_clause_builds(monkeypatch)
    shared = [extend_partial_cone(cone, group, 12) for cone in cones]
    assert built == [len(group.ball(12))]
    for i, found in enumerate(shared):
        fresh = KleinGroup()
        alone = extend_partial_cone(enumerate_partial_cones(fresh, 6)[i], fresh, 12)
        assert [c.signs for c in found] == [c.signs for c in alone]
        assert len(found) == 1
    assert len(built) == 1 + 2 * len(cones)


def test_node_limit_applies_per_call(monkeypatch):
    group = free_group(2)
    full = enumerate_partial_cones(group, 2)
    first = enumerate_partial_cones(group, 1)[0]
    with monkeypatch.context() as m:
        m.setattr(lospace, "DEFAULT_NODE_LIMIT", 3)
        with pytest.raises(SizeLimitError, match="exceeded 3 nodes"):
            enumerate_partial_cones(group, 2)
        with pytest.raises(SizeLimitError, match="exceeded 3 nodes"):
            extend_partial_cone(first, group, 2)
        with pytest.raises(SizeLimitError, match="exceeded 3 nodes"):
            count_partial_cones(group, 2)
    assert [c.signs for c in enumerate_partial_cones(group, 2)] == [c.signs for c in full]


def test_enumeration_stops_at_max_results():
    cones = enumerate_partial_cones(Z2, 2)
    for k in (1, 3, len(cones), len(cones) + 5):
        assert enumerate_partial_cones(Z2, 2, max_results=k) == cones[:k]
    with pytest.raises(ValueError, match="max_results must be at least 1"):
        enumerate_partial_cones(Z2, 2, max_results=0)


# (group, radius, solver nodes, cones) of a full enumeration
SOLVER_WORK = [
    (KLEIN, 8, 160, 4),
    (Z2, 5, 214, 40),
    (lattice_group(3), 3, 1_142, 336),
    (F2, 3, 602, 216),
    (F2, 4, 38_120, 15_768),
    (braid_group(3), 4, 994, 240),
    (braid_group(4), 3, 12_464, 4_592),
]
WORK_IDS = ["Klein-8", "Z2-5", "Z3-3", "F2-3", "F2-4", "B3-4", "B4-3"]


def _signed(code: int) -> int:
    """The signed 1-based variable literal of a literal code."""
    v = (code >> 1) + 1
    return -v if code & 1 else v


@pytest.mark.parametrize("group,radius,nodes,count", SOLVER_WORK, ids=WORK_IDS)
def test_watch_lists_hold_each_product_clause_once(group, radius, nodes, count):
    """Decoded back into literal sets, the watch lists are exactly the
    clauses of the product table, each listed once under each of its
    literals."""
    index = lospace._clause_index(group, radius)
    lit = [_signed(c) for c in index.code]
    table = group.ball_data(radius).product_table()
    n = len(lit)
    brute = {frozenset({-lit[i], -lit[j], lit[table[i][j]]})
             for i in range(1, n) for j in range(1, n) if table[i][j] > 0}
    false = 2 * index.nvars
    entries = collections.Counter()
    for f, others in enumerate(index.watch):
        for a, b in zip(others[::2], others[1::2]):
            clause = frozenset(_signed(c) for c in (f, a, b) if c != false)
            entries[_signed(f), clause] += 1
    assert set(entries.values()) == {1}
    assert set(entries) == {(x, clause) for clause in brute for x in clause}


def _table_clauses(table, code) -> list:
    """The watch lists as built from the whole clipped product table, each
    row read over its cells j >= i: the reference that the one pass over
    the upper product rows must match, list for list and in order."""
    n = len(code)
    false = 2 * ((max(code) >> 1) + 1)
    neg = [c ^ 1 for c in code]
    where = {c: i for i, c in enumerate(code)}
    inv = [where.get(c, 0) for c in neg]
    watch = [[] for _ in range(false)]
    for i in range(1, n):
        row = table[i]
        a = neg[i]
        for j in range(i, n):
            k = row[j]
            if k <= 0:
                continue
            m = inv[k]
            if m < i or (m < j and row[m] == inv[j]):
                continue
            b, c = neg[j], neg[m]
            if b == c:
                c = false
            elif a == b:
                b, c = c, false
            watch[a] += (b, c)
            watch[b] += (a, c)
            if c != false:
                watch[c] += (a, b)
    return watch


# every SOLVER_WORK ball, the Klein ball(12) that cone completions reach,
# and the largest ball of each group that `ord lospace` offers, the last
# six on a group built in the test, so their balls leave with it
PIN_BALLS = [(lambda g=g: g, r) for g, r, _, _ in SOLVER_WORK] + [
    (klein_group, 12), (lambda: lattice_group(1), 499), (lambda: lattice_group(2), 21),
    (lambda: lattice_group(3), 8), (klein_group, 21), (lambda: free_group(2), 5)]
PIN_IDS = WORK_IDS + ["Klein-12", "Z-499", "Z2-21", "Z3-8", "Klein-21", "F2-5"]


@pytest.mark.parametrize("make,radius", PIN_BALLS, ids=PIN_IDS)
def test_watch_lists_match_the_table_clauses(make, radius):
    """One pass over the upper product rows gives the watch lists that the
    whole table gave, each in the same order, so every search visits the
    same nodes."""
    group = make()
    index = lospace._clause_index(group, radius)
    table = group.ball_data(radius).product_table()
    assert index.watch == _table_clauses(table, index.code)


@pytest.mark.parametrize("make,radius,bound_mib", [
    (klein_group, 21, 9), (lambda: free_group(2), 5, 10)], ids=["Klein-21", "F2-5"])
def test_clause_index_build_holds_no_table(make, radius, bound_mib):
    """One clause-index build on a new group, its ball included, peaks
    under the bound: the rows of the product table are read as they are
    gathered, and the ball keeps none of them."""
    group = make()
    tracemalloc.start()
    try:
        lospace._clause_index(group, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20
    data = group.ball_data(radius)
    assert not [name for name, v in vars(data).items()
                if isinstance(v, list) and v and isinstance(v[0], list)]


@pytest.mark.parametrize("group,radius,nodes,count", SOLVER_WORK, ids=WORK_IDS)
def test_solver_work_is_pinned(group, radius, nodes, count):
    search = lospace._ConeSearch(group, radius)
    assert sum(1 for _ in search.solutions(())) == count
    assert search.nodes == nodes
    assert count_partial_cones(group, radius) == count


# solver nodes spent up to the third cone of each SOLVER_WORK search
HEAD_NODES = [152, 33, 36, 29, 83, 60, 69]


@pytest.mark.parametrize("work,head_nodes", zip(SOLVER_WORK, HEAD_NODES), ids=WORK_IDS)
def test_first_cones_stop_the_search(work, head_nodes):
    """The first three cones are the head of the full list, and taking
    them spends the nodes up to the third solution and no more."""
    group, radius, _, _ = work
    search = lospace._ConeSearch(group, radius)
    end = 2 * search.nvars
    head = [search.pack(*val[0:end:2]) for val in itertools.islice(search.solutions(()), 3)]
    assert search.nodes == head_nodes
    full = enumerate_partial_cones(group, radius)
    assert head == [c.pairs for c in full[:3]]
    assert enumerate_partial_cones(group, radius, max_results=3) == full[:3]


@pytest.mark.parametrize("group", [Z2, F2, KLEIN], ids=["Z2", "F2", "Klein"])
def test_radius_zero_has_one_empty_cone(group):
    cones = enumerate_partial_cones(group, 0)
    assert [c.signs for c in cones] == [()]
    extended = extend_partial_cone(cones[0], group, 1)
    assert [c.signs for c in extended] == [c.signs for c in enumerate_partial_cones(group, 1)]


@pytest.mark.parametrize("group,radius,nodes,count", SOLVER_WORK, ids=WORK_IDS)
def test_pair_signs_are_the_element_signs(group, radius, nodes, count):
    """Each cone's per-pair bytes give the signs that one itemgetter over
    the solver's element codes reads off the same solution, element by
    element, and packing those signs again gives an equal cone."""
    cones = enumerate_partial_cones(group, radius, max_results=500)
    search = lospace._ConeSearch(group, radius)
    read = itemgetter(*search.code[1:])
    elements = group.ball(radius)[1:]
    for cone, val in zip(cones, search.solutions(())):
        assert cone.signs == read(val)
        assert [cone.sign(g) for g in elements] == list(cone.signs)
        oracle = types.SimpleNamespace(sign=dict(zip(elements, cone.signs)).__getitem__)
        assert PartialCone.from_oracle(oracle, group, radius) == cone
    assert len(cones) == min(count, 500)
    assert len({c.pairs for c in cones}) == len(set(cones)) == len(cones)


@pytest.mark.parametrize("group", [Z2, F2, KLEIN], ids=["Z2", "F2", "Klein"])
def test_radius_zero_cone_has_no_pairs(group):
    cone = enumerate_partial_cones(group, 0)[0]
    assert cone.pairs == b"" and cone.signs == ()
    again = PartialCone.from_oracle(cone, group, 0)
    assert again == cone and hash(again) == hash(cone)


def test_enumerated_cones_are_compact():
    """F2 ball(4)'s 15,768 cones, with the ball, its product table and
    clause index, peak under 6 MiB: about 0.2 KB a cone."""
    group = free_group(2)
    tracemalloc.start()
    try:
        cones = enumerate_partial_cones(group, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cones) == 15_768
    assert peak < 6 * 2**20


def test_extension_refuses_a_cone_of_another_group():
    """Z^2 and Klein both spell elements as integer pairs, so only the
    group's name tells a Z^2 cone from a Klein one."""
    cone = enumerate_partial_cones(Z2, 1)[0]
    with pytest.raises(ValueError, match=r"Z\^2.*Klein"):
        extend_partial_cone(cone, KleinGroup(), 3)
    assert len(extend_partial_cone(cone, LatticeGroup(2), 3)) == 4


def test_clause_index_leaves_with_its_ball():
    """A ball evicted from the group's ball cache takes its clause index
    with it."""
    group = lattice_group(1)
    enumerate_partial_cones(group, 1)
    data = weakref.ref(group.ball_data(1))
    index = weakref.ref(lospace._CLAUSE_INDEX[data()])
    for radius in range(2, 2 + BALL_CACHE_RADII):
        enumerate_partial_cones(group, radius)
    gc.collect()
    assert data() is None and index() is None
    assert len(group._balls) == BALL_CACHE_RADII
    kept = [d for d in lospace._CLAUSE_INDEX.keys() if d.group is group]
    assert sorted(d.radius for d in kept) == list(range(2, 2 + BALL_CACHE_RADII))


def test_isolator_membership():
    assert isolator_member(Z2, (1, 1), (2, 2)) is True
    assert isolator_member(Z2, (-3, 0), (1, 0)) is True
    assert isolator_member(Z2, (1, 0), (0, 1)) is False
    assert isolator_member(Z2, (0, 0), (0, 1)) is True
    assert isolator_member(KLEIN, (3, 0), (1, 0)) is True
    assert isolator_member(KLEIN, (0, 2), (1, 0)) is False
    # x^18 = (x^2)^9 is the first common power: it needs an exponent of 9
    assert isolator_member(F2, (1,) * 9, (1, 1)) is True
    assert isolator_member(F2, (1, 2), (2, 1)) is False
    with pytest.raises(ValueError):
        isolator_member(Z2, (1, 0), (0, 0))


def test_power_agreement_probe():
    assert condition_star_check(lambda g: (2 * g[0], 2 * g[1]), Z2) is None
    shear = lambda g: (g[0] + g[1], g[1])
    assert condition_star_check(shear, Z2) == (0, 1)
    flip = KleinAut(1, -1, 0).to_automorphism()
    assert condition_star_check(flip, KLEIN) == (1, 0)
    assert condition_star_check(free_probe(F2, "swap"), F2) == (1,)
    # scalar 9 needs an exponent of 9; scalar 1/2 has Fraction images
    for c in (1, 9, Fraction(1, 2)):
        scalar = mat_from_rows([[c, 0], [0, c]])
        assert condition_star_check(lambda v: row_times_mat(v, scalar), Z2) is None


def _powers(group, g, bound=12):
    """Keys of g, g^2, ..., g^bound: x^n = y^m for some n, m in [1, bound]
    exactly when the sets of x and y meet."""
    keys, p = set(), g
    for _ in range(bound):
        keys.add(group.key(p))
        p = group.multiply(p, g)
    return keys


@pytest.mark.parametrize("group", [F2, Z2, KLEIN], ids=["F2", "Z2", "Klein"])
def test_rays_match_bounded_power_search(group):
    ball = [g for g in group.ball(4) if not group.is_identity(g)]
    rays = [group.ray(g) for g in ball]
    powers = [_powers(group, g) for g in ball]
    agree = 0
    for x, rx, px in zip(ball, rays, powers):
        for y, ry, py in zip(ball, rays, powers):
            assert (rx == ry) == (not px.isdisjoint(py)), (x, y)
            agree += rx == ry
    assert agree > len(ball)


def test_free_rays_of_seeded_conjugates():
    """u p^a u^-1 against u' q^b u'^-1 for short random u, u', p, q, with q
    often p, a power of p, or p^-1."""
    rng = random.Random(7)
    words = [g for g in F2.ball(3) if g]
    conj = lambda u, p, k: F2.multiply(F2.multiply(u, reduce_word(p * k)), F2.invert(u))
    for _ in range(500):
        u, p = rng.choice(words), rng.choice(words)
        u2 = u if rng.random() < 0.7 else rng.choice(words)
        q = rng.choice([p, reduce_word(p * 2), F2.invert(p), rng.choice(words)])
        x, y = conj(u, p, rng.randint(1, 4)), conj(u2, q, rng.randint(1, 4))
        shared = not _powers(F2, x).isdisjoint(_powers(F2, y))
        assert (F2.ray(x) == F2.ray(y)) == shared, (x, y)


def test_free_ray_of_a_long_conjugate():
    u = (1, 2) * 501 + (1,)
    p = (2, 2) + (1, 2) * 570
    w = F2.multiply(F2.multiply(u, reduce_word(p * 7)), F2.invert(u))
    assert len(w) == 10_000
    assert F2.ray(w) == (u, p)
    assert F2.ray(w) == F2.ray(F2.multiply(F2.multiply(u, p), F2.invert(u)))
    assert F2.ray(F2.invert(w)) == (u, F2.invert(p))
    assert isolator_member(F2, F2.invert(w), w) is True
