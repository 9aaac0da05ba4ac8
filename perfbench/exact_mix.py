"""exact-mix: exact arithmetic outside braids, in three parts.

Why: this is where ``lattice``, ``quadfield`` and ``magnus`` do most of their
work, while ``extensions`` does a minority of its work here; the Magnus
prefix cache grows with every word, so ``peak_rss_mb`` matters here.

- flags: ``FormFlag.form_sign`` over balls of Z^2 and Z^3 with sqrt 2, 3 and
  5 flags; ``QuadRat`` signs of p - q sqrt d near cancellation; and
  ``eigen_orderings``, ``preserves``, ``vlo_equal`` and
  ``comm_acts_trivially`` over a fixed pool of 2x2 matrices and flags;
- series: ``magnus_sign`` and ``closure_lex_sign`` on seeded F2 words;
- extensions: K and G ``multiply``, ``invert`` and sign on seeded elements of
  balls up to radius 4.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

from common import Op, rng_for, stratified_log_lengths

NAME = "exact-mix"
WHY = ("lattice, quadfield and magnus do most of their work here; "
       "extensions only a minority")
BATCH_SECONDS = 1.6

FLAG_FIELDS = (2, 3, 5)
VECTORS_PER_FLAG = 800
BALL_RADIUS = {2: 24, 3: 8}
QUAD_SIGNS = 300
QUAD_FIELDS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15)
# Costs within the matrix and flag-pair pools differ by 100x (a fast exact
# path against a ball(24) scan), so every run uses each matrix POOL_PASSES
# times and each flag pair once, dealt across its batches in seeded order.
POOL_PASSES = 2
# Magnus words stay below the depth at which the recursive prefix expansion
# of the reference code overflows Python's stack (about 500 letters); longer
# words are run once, untimed, as LONG_PROBE below.
SERIES_BAND = (4, 448)
MAGNUS_PAIRS = 3
CLOSURE_PAIRS = 2
LONG_PROBE = (4, 600, 800)
G_ELEMENTS = 1500
K_ELEMENTS = 1500
EXT_RADIUS = 4
# Span-site prefixes of the three parts, for the measured time shares.
PARTS = {"flags": ("lattice.", "quadfield."), "series": ("magnus.",),
         "extensions": ("extensions.",)}


def setup(m) -> dict:
    ext = m.extensions
    h = {"m": m,
         "g_group": ext.g_group(),
         "k_group": ext.k_group(),
         "g_ordering": ext.g_ordering(),
         "k_ordering": ext.k_ordering(ext.k_eigen_flag()),
         "free": m.magnus.free_group(2)}
    return h


# --- arithmetic helpers -------------------------------------------------------

def deal(items: list, n_batches: int) -> list[list]:
    """Split items round-robin into n_batches lists."""
    return [items[b::n_batches] for b in range(n_batches)]


def quad_sign(a, b, d: int) -> int:
    """Sign of a + b*sqrt(d) for rationals a, b, from a^2 against d*b^2."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa or sb
    if sa == 0:
        return sb
    lhs, rhs = a * a, d * b * b
    if lhs == rhs:
        raise ArithmeticError("a + b*sqrt(d) = 0 with b != 0: d is a square")
    return sa if lhs > rhs else sb


def convergents(d: int, count: int) -> list[tuple[int, int]]:
    """The first ``count`` continued-fraction convergents p/q of sqrt(d)."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    out = [(p, q)]
    while len(out) < count:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        out.append((p, q))
    return out


def weighted_rational(rng, w: int) -> Fraction:
    """A rational of weight |p| + q - 1 = w, as ordlib's rational plane grades."""
    if w == 0:
        return Fraction(0)
    while True:
        q = rng.randint(1, w + 1)
        p = w + 1 - q
        if p and math.gcd(p, q) == 1:
            return Fraction(p if rng.random() < 0.5 else -p, q)


def split_weight(rng, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


# --- fixed pools with reference answers -------------------------------------

def matrix_pool() -> list:
    """A fixed pool of 2x2 matrices: seeded integer and rational ones plus a
    few with known structure (scalar, hyperbolic, singular, involution)."""
    rng = rng_for(NAME, 0, "matrix-pool")
    pool = [((2, 0), (0, 2)), ((-1, 0), (0, -1)), ((3, 0), (0, 2)),
            ((1, 2), (1, 1)), ((2, 1), (1, 1)), ((1, 2), (2, 4)),
            ((0, 1), (1, 0)), ((1, 1), (0, 1))]
    while len(pool) < 48:
        pool.append(tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2)))
    entries = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
               Fraction(-1, 2), Fraction(3, 2), Fraction(-1, 3)]
    while len(pool) < 60:
        pool.append(tuple(tuple(rng.choice(entries) for _ in range(2)) for _ in range(2)))
    return pool


def flag_pool() -> list:
    """Rank-2 flags over Q(sqrt 2) given as (a, b) integer pairs per entry."""
    return [
        (((1, 0), (0, 0)), ((0, 0), (1, 0))),          # lex
        (((0, 0), (1, 0)), ((1, 0), (0, 0))),          # reversed lex
        (((1, 0), (0, 0)), ((0, 0), (-1, 0))),
        (((2, 0), (0, 0)), ((0, 0), (2, 0))),          # lex, scaled
        (((1, 0), (0, 0)), ((1, 0), (1, 0))),          # lex, not proportional
        (((0, 1), (1, 0)),),                           # (sqrt2, 1)
        (((0, -1), (1, 0)),),                          # (-sqrt2, 1)
        (((0, 2), (2, 0)),),                           # (2 sqrt2, 2)
        (((2, 1), (1, 1)),),                           # (1 + sqrt2)(sqrt2, 1)
        (((1, 0), (1, 0)), ((1, 0), (0, 0))),
    ]


def matrix_key(rows) -> str:
    return ";".join(",".join(str(Fraction(x)) for x in row) for row in rows)


def matrix_field(rows) -> int:
    """The d whose field holds the eigenvalues, or 2 when none is irrational."""
    (a, b), (c, e) = rows
    disc = Fraction(a + e) ** 2 - 4 * (Fraction(a) * e - Fraction(b) * c)
    if disc <= 0 or disc.denominator != 1:
        return 2
    value = disc.numerator
    part = value
    for k in range(2, math.isqrt(value) + 1):
        while part % (k * k) == 0:
            part //= k * k
    return 2 if part == 1 else part


def answer_text(out) -> str:
    if isinstance(out, tuple) and out and out[0] == "refused":
        return f"refused:{out[1]}"
    if isinstance(out, list):
        return "[" + "|".join(f.descriptor() for f in out) + "]"
    if isinstance(out, tuple):
        ok, witness = out
        return f"{ok}:{witness.descriptor() if hasattr(witness, 'descriptor') else witness}"
    return str(out)


# --- operations --------------------------------------------------------------

def _form_sign(call, site, flag, v):
    return call(site, flag.form_sign, v)


def _quad_sign(call, x):
    return call("quadfield.sign", x.sign)


def _eigen(call, h, rows, d):
    return call("lattice.eigen_orderings", h["m"].lattice.eigen_orderings, rows, d)


def _preserves(call, h, rows, flag):
    return call("lattice.preserves", h["m"].lattice.preserves, rows, flag)


def _comm(call, h, rows, d):
    return call("lattice.comm_acts_trivially", h["m"].lattice.comm_acts_trivially, rows, d)


def _vlo(call, h, f1, f2):
    return call("lattice.vlo_equal", h["m"].lattice.vlo_equal, f1, f2)


def _magnus(call, h, w):
    return call("magnus.magnus_sign", h["m"].magnus.magnus_sign, w)


def _closure(call, h, w):
    return call("magnus.closure_lex_sign", h["m"].magnus.closure_lex_sign, h["free"], w)


def _invert(call, site, group, state, key, g):
    state[key] = out = call(site, group.invert, g)
    return out


def _multiply_by(call, site, group, state, key, g):
    return call(site, group.multiply, g, state[key])


def _multiply(call, site, group, state, key, g, x):
    state[key] = out = call(site, group.multiply, g, x)
    return out


def _sign(call, site, oracle, g):
    return call(site, oracle.sign, g)


def _sign_of(call, site, oracle, state, key):
    return call(site, oracle.sign, state[key])


# --- inputs ------------------------------------------------------------------

def make_flag(m, vectors, d: int):
    q = m.quadfield.QuadRat
    return m.lattice.FormFlag.of([tuple(q.of(a, b, d) for a, b in u) for u in vectors], d)


def _det3(r):
    return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))


def random_flag_vectors(rng, rank: int) -> list:
    """Integer (a, b) parts of a total flag: one vector on Z^2 with a, b
    independent, two on Z^3 with a1, b1, a2 independent."""
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(2 * (rank - 1))]
        if rank == 2 and rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] != 0:
            return [tuple(zip(rows[0], rows[1]))]
        if rank == 3 and _det3(rows[:3]) != 0:
            return [tuple(zip(rows[0], rows[1])), tuple(zip(rows[2], rows[3]))]


def ball_vectors(rng, rank: int, radius: int, count: int) -> list:
    out = []
    while len(out) < count:
        v = tuple(rng.randint(-radius, radius) for _ in range(rank))
        if any(v) and sum(map(abs, v)) <= radius:
            out.append(v)
    return out


def free_word(rng, length: int) -> tuple:
    out: list = []
    while len(out) < length:
        a = rng.choice((1, -1, 2, -2))
        if not out or out[-1] != -a:
            out.append(a)
    return tuple(out)


def closure_word(rng, length: int) -> tuple:
    """An F2 word whose y-exponent prefix sums stay in {0, 1}: its part in
    the normal closure of x uses two conjugates of x, which keeps the
    series in two variables."""
    out: list = []
    level = 0
    while len(out) < length:
        a = (2 if level == 0 else -2) if rng.random() < 0.3 else rng.choice((1, -1))
        if out and out[-1] == -a:
            continue
        if abs(a) == 2:
            level ^= 1
        out.append(a)
    return tuple(out)


def inverse(w) -> tuple:
    return tuple(-a for a in reversed(w))


def k_element(rng, radius: int):
    wv, wc = split_weight(rng, radius, 2)
    w1, w2 = split_weight(rng, wv, 2)
    v = (weighted_rational(rng, w1), weighted_rational(rng, w2))
    return (v, wc if rng.random() < 0.5 else -wc)


def g_element(rng, radius: int):
    wk, wt = split_weight(rng, radius, 2)
    return (k_element(rng, wk), wt if rng.random() < 0.5 else -wt)


def batches(seed: int, n_batches: int, h):
    """Yields one batch of operations at a time."""
    m = h["m"]
    rng = rng_for(NAME, seed, "inputs")
    pool = matrix_pool()
    flags = flag_pool()
    lex = make_flag(m, flags[0], 2)
    line = make_flag(m, flags[6], 2)
    series_words = []
    for kind, count, maker in (("magnus", MAGNUS_PAIRS, free_word),
                               ("closure", CLOSURE_PAIRS, closure_word)):
        lengths = stratified_log_lengths(rng, *SERIES_BAND, count * n_batches)
        series_words.append(deal([(kind, maker(rng, L)) for L in lengths], n_batches))
    matrices = [rows for _ in range(POOL_PASSES) for rows in rng.sample(pool, len(pool))]
    matrices = deal(matrices, n_batches)
    pairs = [(i, j) for i in range(len(flags)) for j in range(len(flags))]
    pairs = deal(rng.sample(pairs, len(pairs)), n_batches)
    for b in range(n_batches):
        ops: list[Op] = []
        # flags
        for d in FLAG_FIELDS:
            for rank in (2, 3):
                vectors = random_flag_vectors(rng, rank)
                flag = make_flag(m, vectors, d)
                site = f"lattice.form_sign.d{d}"
                for v in ball_vectors(rng, rank, BALL_RADIUS[rank], VECTORS_PER_FLAG):
                    ops.append(Op("form_sign", _form_sign, (site, flag, v),
                                  {"flag": vectors, "d": d, "v": v}))
        for _ in range(QUAD_SIGNS):
            d = rng.choice(QUAD_FIELDS)
            p, q = rng.choice(convergents(d, 30)[2:])
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            s = rng.choice((1, -1))
            a, bb = s * p * scale, -s * q * scale
            ops.append(Op("quad_sign", _quad_sign, (m.quadfield.QuadRat(a, bb, d),),
                          {"a": a, "b": bb, "d": d}))
        for rows in matrices[b]:
            key = matrix_key(rows)
            d = matrix_field(rows)
            ops.append(Op("eigen_orderings", _eigen, (h, rows, d), {"ref": f"eigen/{key}"},
                          refusals=(ValueError,)))
            ops.append(Op("preserves", _preserves, (h, rows, lex), {"ref": f"preserves-lex/{key}"},
                          refusals=(ValueError,)))
            ops.append(Op("preserves", _preserves, (h, rows, line),
                          {"ref": f"preserves-line/{key}"}, refusals=(ValueError,)))
            ops.append(Op("comm_acts_trivially", _comm, (h, rows, d), {"ref": f"comm/{key}"},
                          refusals=(ValueError,)))
        for i, j in pairs[b]:
            ops.append(Op("vlo_equal", _vlo, (h, make_flag(m, flags[i], 2),
                                              make_flag(m, flags[j], 2)),
                          {"ref": f"vlo/{i}/{j}"}))
        # series
        for words in series_words:
            for kind, w in words[b]:
                fn = _magnus if kind == "magnus" else _closure
                site = "magnus_sign" if kind == "magnus" else "closure_lex_sign"
                ops.append(Op(site, fn, (h, w), {"length": len(w), "pair": 0}))
                ops.append(Op(site, fn, (h, inverse(w)), {"length": len(w), "pair": 1}))
        # extensions: each element is inverted, multiplied by its inverse and
        # signed on both sides; consecutive elements are multiplied and the
        # product signed.  Results pass between operations through ``state``.
        state: dict = {}
        for tag, count, maker in (("g", G_ELEMENTS, g_element), ("k", K_ELEMENTS, k_element)):
            group, oracle = h[f"{tag}_group"], h[f"{tag}_ordering"]
            prev = None
            for k in range(count):
                g = maker(rng, rng.randint(1, EXT_RADIUS))
                while g == group.identity:
                    g = maker(rng, rng.randint(1, EXT_RADIUS))
                inv, prod = f"{tag}{k}-inv", f"{tag}{k}-prod"
                site = f"extensions.{tag}_"
                ops.append(Op(f"{tag}_invert", _invert, (site + "invert", group, state, inv, g),
                              {"tag": tag}))
                ops.append(Op(f"{tag}_multiply", _multiply_by,
                              (site + "multiply", group, state, inv, g),
                              {"tag": tag, "expect_identity": True}))
                ops.append(Op(f"{tag}_sign", _sign, (site + "sign", oracle, g),
                              {"tag": tag, "element": g, "pair": 0}))
                ops.append(Op(f"{tag}_sign", _sign_of, (site + "sign", oracle, state, inv),
                              {"tag": tag, "pair": 1}))
                if prev is not None:
                    ops.append(Op(f"{tag}_multiply", _multiply,
                                  (site + "multiply", group, state, prod, prev, g),
                                  {"tag": tag, "product": prod}))
                    ops.append(Op(f"{tag}_sign", _sign_of, (site + "sign", oracle, state, prod),
                                  {"tag": tag, "state": state, "product": prod}))
                prev = g
        yield ops


# --- checks ------------------------------------------------------------------

def k_sign_ref(k) -> int:
    (v0, v1), c = k
    if c:
        return 1 if c > 0 else -1
    return quad_sign(v1, -v0, 2)


def g_sign_ref(g) -> int:
    k, c = g
    if k != ((0, 0), 0):
        return k_sign_ref(k)
    return 1 if c > 0 else -1


def flag_sign_ref(vectors, d: int, v) -> int:
    for u in vectors:
        a = sum(x * ua for x, (ua, _) in zip(v, u))
        b = sum(x * ub for x, (_, ub) in zip(v, u))
        s = quad_sign(a, b, d)
        if s:
            return s
    return 0


def check(done, h, ref) -> tuple[list[str], dict]:
    errors: list[str] = []
    counts = {"magnus.words.in_letters": 0}
    identity = {"g": h["g_group"].identity, "k": h["k_group"].identity}
    ref_sign = {"g": g_sign_ref, "k": k_sign_ref}
    answers = ref["exact_answers"]
    last_sign: dict = {}
    for op, out, _ in done:
        info = op.info
        if op.kind == "form_sign":
            want = flag_sign_ref(info["flag"], info["d"], info["v"])
            if out != want:
                errors.append(f"form_sign d={info['d']} v={info['v']}: {out}, expected {want}")
        elif op.kind == "quad_sign":
            want = quad_sign(info["a"], info["b"], info["d"])
            if out != want:
                errors.append(f"QuadRat sign of {info['a']} + {info['b']}*sqrt{info['d']}: {out}")
        elif "ref" in info:
            got = answer_text(out)
            if answers.get(info["ref"]) != got:
                errors.append(f"{info['ref']}: {got}, reference {answers.get(info['ref'])}")
        elif op.kind in ("magnus_sign", "closure_lex_sign"):
            if info["pair"] == 0:
                counts["magnus.words.in_letters"] += info["length"]
                last_sign[op.kind] = out
            elif not (isinstance(out, int) and out != 0 and out == -last_sign[op.kind]):
                errors.append(f"{op.kind} L={info['length']}: {last_sign[op.kind]} then "
                              f"{out} on the inverse")
        elif op.kind.endswith("_multiply"):
            if info.get("expect_identity") and out != identity[info["tag"]]:
                errors.append(f"{op.kind}: g * g^-1 = {out}")
        elif op.kind.endswith("_sign"):
            tag = info["tag"]
            if "element" in info:
                want = ref_sign[tag](info["element"])
                last_sign[tag] = out
            elif "product" in info:
                product = info["state"][info["product"]]
                want = (("refused", "IdentitySignError") if product == identity[tag]
                        else ref_sign[tag](product))
            else:
                want = -last_sign[tag]
            if out != want:
                errors.append(f"{op.kind}: {out}, expected {want}")
    return errors, counts


def final_check(h, ref) -> list[str]:
    if series_digest(h) != ref["series_corpus_sha256"]:
        return ["series corpus signs differ from the reference digest"]
    return []


def series_digest(h) -> str:
    m = h["m"]
    rng = rng_for(NAME, 0, "series-corpus")
    signs = []
    for L in stratified_log_lengths(rng, 4, 128, 16):
        signs.append(m.magnus.magnus_sign(free_word(rng, L)))
        signs.append(m.magnus.closure_lex_sign(h["free"], closure_word(rng, L)))
    return hashlib.sha256(",".join(map(str, signs)).encode()).hexdigest()


def long_probe(seed: int, h, run_op) -> dict:
    """Magnus signs of words above the reference code's recursion limit,
    run once and untimed so that fixing the recursion changes no timed
    metric."""
    count, lo, hi = LONG_PROBE
    rng = rng_for(NAME, seed, "long-probe")
    fails = 0
    for L in stratified_log_lengths(rng, lo, hi, count):
        failed, _ = run_op(Op("magnus_sign", _magnus, (h, free_word(rng, L))))
        fails += failed
    return {"magnus.long_probe.attempted": count, "magnus.long_probe.fail": fails}


def reference_answers(m) -> dict:
    """Answers of the current code on the fixed pools (see make_reference.py)."""
    h = {"m": m}
    out = {}
    flags = flag_pool()
    lex = make_flag(m, flags[0], 2)
    line = make_flag(m, flags[6], 2)

    def run(fn, *args):
        try:
            return answer_text(fn(*args))
        except ValueError as err:
            return f"refused:{type(err).__name__}"

    call = lambda site, fn, *a: fn(*a)
    for rows in matrix_pool():
        key, d = matrix_key(rows), matrix_field(rows)
        out[f"eigen/{key}"] = run(_eigen, call, h, rows, d)
        out[f"preserves-lex/{key}"] = run(_preserves, call, h, rows, lex)
        out[f"preserves-line/{key}"] = run(_preserves, call, h, rows, line)
        out[f"comm/{key}"] = run(_comm, call, h, rows, d)
    for i, f1 in enumerate(flags):
        for j, f2 in enumerate(flags):
            out[f"vlo/{i}/{j}"] = run(_vlo, call, h, make_flag(m, f1, 2), make_flag(m, f2, 2))
    return out
