"""braid-words: random braid words through the sign, compare, reduce and
identity entry points of ``ordlib.braid``.

Why: handle reduction does nearly all the work here, and ``extensions``,
``lattice`` and ``quadfield`` do none; its cost grows faster than linearly
in word length, so a faster braid engine moves ``op_tail_ms`` most.

Handle-reduction cost varies a lot between random words of one length (the
spread is about 65% at 2048 letters), so words drawn afresh for each seed
would make the run's total depend on the seed by about 10%.  Instead, batch
b always holds the same seeded corpus, and the run seed mirrors each word
(every letter s_i^e becomes s_i^-e) or leaves it, and shuffles the order.
Mirroring is an automorphism that reverses every ordering and that handle
reduction treats symmetrically, so it changes each input and answer but not
the work: runs of different seeds then differ only by the host's noise, and
every timed answer can be checked against the reference digest of its batch.
"""

from __future__ import annotations

import hashlib

from common import Op, rng_for, stratified_log_lengths

NAME = "braid-words"
WHY = ("handle reduction does nearly all the work; extensions, lattice and "
       "quadfield do none")
BATCH_SECONDS = 1.15

# Word-length bands per group (80% of the words in B4, 20% in B10).
BANDS = {4: (16, 4096), 10: (16, 1024)}

# Per batch: (kind, strands, words).  A "pair" kind issues two operations per
# word (w and its inverse, or (g, h) and (h, g)), so that antisymmetry is
# checked on timed answers; is_identity makes a true and a false case per
# word.  Operation shares: sign 50%, ordering_sign 15%, compare 15%,
# handle_reduce 10%, is_identity 10%; B10 takes 16 of the 80.
CELLS = (
    ("dehornoy_sign", 4, 16), ("dehornoy_sign", 10, 4),
    ("ordering_sign", 4, 5), ("ordering_sign", 10, 1),
    ("compare", 4, 5), ("compare", 10, 1),
    ("handle_reduce", 4, 6), ("handle_reduce", 10, 2),
    ("is_identity", 4, 3), ("is_identity", 10, 1),
)
PAIR_KINDS = ("dehornoy_sign", "ordering_sign", "compare")
# Batches whose answers the reference pins; later batches get only the
# structural checks.
REFERENCE_BATCHES = 40


def setup(m) -> dict:
    h = {"m": m, "group": {}, "dehornoy": {}, "ordering": {}}
    for n in BANDS:
        g = m.braid.braid_group(n)
        h["group"][n] = g
        h["dehornoy"][n] = m.braid.dehornoy_oracle(g)
        h["ordering"][n] = m.braid.braid_ordering_catalog(g)
    return h


def random_word(rng, strands: int, length: int) -> tuple:
    """A freely reduced word of exactly ``length`` letters."""
    letters = [a for i in range(1, strands) for a in (i, -i)]
    out: list = []
    while len(out) < length:
        a = rng.choice(letters)
        if not out or out[-1] != -a:
            out.append(a)
    return tuple(out)


def inverse(w) -> tuple:
    return tuple(-a for a in reversed(w))


def mirror(w) -> tuple:
    return tuple(-a for a in w)


def rewrite(rng, w) -> tuple:
    """The same braid spelt differently: far commutations, braid relations
    and inserted cancelling pairs at random places."""
    out = list(w)
    for _ in range(max(1, len(out) // 4)):
        p = rng.randrange(len(out))
        a = out[p]
        if p + 1 < len(out) and abs(abs(a) - abs(out[p + 1])) >= 2:
            out[p], out[p + 1] = out[p + 1], a
        elif (p + 2 < len(out) and out[p + 2] == a and abs(abs(a) - abs(out[p + 1])) == 1
              and (a > 0) == (out[p + 1] > 0)):
            out[p:p + 3] = [out[p + 1], a, out[p + 1]]
        else:
            out[p:p] = [a, -a]
    return tuple(out)


def exponent_sum(w) -> int:
    return sum(1 if a > 0 else -1 for a in w)


def permutation(n: int, w) -> tuple:
    perm = list(range(n))
    for a in w:
        i = abs(a) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)


def _sign(call, h, w):
    return call("braid.dehornoy_sign", h["m"].braid.dehornoy_sign, w)


def _ordering_sign(call, oracle, w):
    return call("braid.ordering_sign", oracle.sign, w)


def _compare(call, h, n, g, x):
    return call("braid.compare", h["m"].core.compare, h["dehornoy"][n], g, x)


def _reduce(call, h, w):
    return call("braid.handle_reduce", h["m"].braid.handle_reduce, w)


def _is_identity(call, group, w):
    return call("braid.is_identity", group.is_identity, w)


def corpus_units(b: int, h) -> list[list[tuple]]:
    """Batch b's fixed corpus: units of (kind, n, length, fn, fixed args,
    word args, info); mirroring acts on the word args."""
    rng = rng_for(NAME, 0, f"batch-{b}")
    units = []
    for kind, n, per in CELLS:
        lo, hi = BANDS[n]
        for L in stratified_log_lengths(rng, lo, hi, per):
            if kind == "dehornoy_sign":
                w = random_word(rng, n, L)
                units.append([(kind, n, L, _sign, (h,), (w,), {}),
                              (kind, n, L, _sign, (h,), (inverse(w),), {})])
            elif kind == "ordering_sign":
                oracle = h["ordering"][n][rng.randrange(n - 1)]
                w = random_word(rng, n, L)
                units.append([(kind, n, L, _ordering_sign, (oracle,), (w,), {}),
                              (kind, n, L, _ordering_sign, (oracle,), (inverse(w),), {})])
            elif kind == "compare":
                g = random_word(rng, n, max(8, L // 2))
                x = random_word(rng, n, max(8, L // 2))
                units.append([(kind, n, L, _compare, (h, n), (g, x), {}),
                              (kind, n, L, _compare, (h, n), (x, g), {})])
            elif kind == "handle_reduce":
                units.append([(kind, n, L, _reduce, (h,), (random_word(rng, n, L),), {})])
            else:
                group = h["group"][n]
                w = random_word(rng, n, max(8, L // 2))
                units.append([(kind, n, L, _is_identity, (group,),
                               (w + inverse(rewrite(rng, w)),), {"expect": True})])
                while True:
                    w = random_word(rng, n, L)
                    i = rng.randrange(1, n)
                    if exponent_sum(w) + 1 != 0:
                        break
                units.append([(kind, n, L, _is_identity, (group,), (w + (i,),),
                               {"expect": False})])
    return units


def batches(seed: int, n_batches: int, h):
    """Yields batch b: its corpus, each unit mirrored or not by the seed,
    in an order the seed shuffles; the two operations of a pair stay
    adjacent."""
    for b in range(n_batches):
        rng = rng_for(NAME, seed, f"batch-{b}")
        units = []
        for slot, unit in enumerate(corpus_units(b, h)):
            flip = rng.choice((1, -1))
            ops = []
            for kind, n, L, fn, fixed, words, info in unit:
                if flip < 0:
                    words = tuple(mirror(w) for w in words)
                ops.append(Op(kind, fn, fixed + words,
                              dict(info, n=n, length=L, batch=b, slot=slot, mirror=flip)))
            units.append(ops)
        rng.shuffle(units)
        yield [op for unit in units for op in unit]


def band(length: int) -> str:
    return "short" if length <= 64 else "mid" if length <= 512 else "long"


def batch_digest(done) -> str:
    """Digest of a batch's answers on the unmirrored corpus, in corpus
    order: signs are unmirrored, reduced words enter by length."""
    answers = []
    for op, out, _ in sorted(done, key=lambda d: d[0].info["slot"]):
        if op.kind in PAIR_KINDS and isinstance(out, int):
            out *= op.info["mirror"]
        elif op.kind == "handle_reduce" and isinstance(out, tuple):
            out = len(out)
        answers.append((op.info["slot"], out))
    return hashlib.sha256(repr(answers).encode()).hexdigest()


def check(done, h, ref) -> tuple[list[str], dict]:
    """done: one batch of (op, output, latency_s) in issue order."""
    errors: list[str] = []
    counts = {"braid.handle_reduce.out_letters": 0, "braid.words.in_letters": 0}
    i = 0
    while i < len(done):
        op, out, _ = done[i]
        n = op.info["n"]
        counts["braid.words.in_letters"] += op.info["length"]
        if op.kind in PAIR_KINDS:
            out2 = done[i + 1][1]
            if not (isinstance(out, int) and isinstance(out2, int) and out == -out2):
                errors.append(f"{op.kind} B{n} L={op.info['length']}: {out} vs {out2}, "
                              "expected opposite signs")
            i += 2
            continue
        if op.kind == "handle_reduce":
            w = op.args[-1]
            if not isinstance(out, tuple):
                errors.append(f"handle_reduce B{n}: got {out!r}")
            else:
                counts["braid.handle_reduce.out_letters"] += len(out)
                if exponent_sum(out) != exponent_sum(w) or permutation(n, out) != permutation(n, w):
                    errors.append(f"handle_reduce B{n} L={len(w)}: output is another braid")
        elif out is not op.info["expect"]:
            errors.append(f"is_identity B{n}: got {out!r}, constructed {op.info['expect']}")
        i += 1
    b = done[0][0].info["batch"]
    pinned = ref["braid_batch_sha256"]
    if b < len(pinned) and batch_digest(done) != pinned[b]:
        errors.append(f"batch {b}: answers differ from the reference digest")
    return errors, counts


def reference_digests(h, runner) -> list[str]:
    """Digests of the first REFERENCE_BATCHES batches (see make_reference.py)."""
    return [batch_digest([(op, runner(op)[1], 0.0) for op in ops])
            for ops in batches(0, REFERENCE_BATCHES, h)]


def latency_key(op):
    """Latency class for the per-band dehornoy_sign p50 metrics."""
    if op.kind == "dehornoy_sign":
        return f"braid.dehornoy_sign.B{op.info['n']}.{band(op.info['length'])}.p50_ms"
    return None
