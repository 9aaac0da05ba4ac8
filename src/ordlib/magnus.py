"""Free groups ordered through truncated power-series expansions.

A word maps to a series in noncommuting variables by sending each generator
x to 1 + X and each inverse to the alternating geometric series.  The word's
sign is the sign of the coefficient on its least nonconstant monomial in
(degree, lex) order.  Truncating at total degree d computes every
coefficient of degree at most d exactly, so the sign is found by expanding
letter by letter at truncation 1, 2, 3, ... until some monomial survives; a
nontrivial reduced word always has one.  No truncation choice can change a
sign, only the time it takes.  Each letter is one step on a
{monomial: coefficient} dict: x keeps every term and adds it times X, and
x^-1 adds it times (-X)^j for every j the truncation leaves room for.  The
resulting ordering of the free group is invariant under conjugation on both
sides.

A second family of orderings is not: close one generator into its normal
closure N, a free group on the shifted conjugates x_i = y^i x y^-i, and let N
dominate.  One walk reads a word as its N-part and the leftover power of y.
The word is positive when its N-part is series-positive, or when the N-part
is trivial and the leftover power of y is positive.  Conjugating by y
shifts the x_i and preserves signs, but conjugating by x can move a positive
word onto a pure negative power of y.
"""

from __future__ import annotations

import itertools
import re

from .core import (
    Group,
    GroupAutomorphism,
    InconclusiveTruncationError,
    SignOracle,
    act_automorphism,
)

ESCALATION_CAP = 32
# parse_word refuses to expand x^k factors past this many letters
MAX_WORD_LETTERS = 10**6

_INT_TOKEN = re.compile(r"[+-]?\d+")


def reduce_word(letters) -> tuple:
    """Freely reduce a sequence of signed generator indices."""
    out = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def word_sort_key(g) -> tuple:
    """(length, letters): lower indices first, a letter before its inverse."""
    return (len(g), tuple((abs(a) - 1, 0 if a > 0 else 1) for a in g))


class WordGroup(Group):
    """A group whose elements are freely reduced tuples of signed generator
    indices: i stands for the i-th named generator, -i for its inverse.
    Subclasses whose words have relations override ``key``."""

    sort_key = staticmethod(word_sort_key)

    def __init__(self, names: tuple):
        super().__init__()
        self.names = tuple(names)
        self.generators = tuple((i,) for i in range(1, len(self.names) + 1))

    @property
    def identity(self):
        return ()

    def multiply(self, g, h):
        return reduce_word(itertools.chain(g, h))

    def key_times(self, key_g, h):
        """key(g*h): both words are reduced, so only letters at the
        junction cancel, and neither word is walked past them."""
        i, m = 0, min(len(key_g), len(h))
        while i < m and key_g[-1 - i] == -h[i]:
            i += 1
        return key_g[:len(key_g) - i] + h[i:]

    def invert(self, g):
        return tuple(-a for a in reversed(g))

    def generator(self, index: int) -> tuple:
        if not 1 <= index <= len(self.names):
            raise ValueError(f"generator index out of range: {index}")
        return (index,)

    def label(self, g):
        if not g:
            return "1"
        parts = []
        for a, run in itertools.groupby(g):
            k = sum(1 for _ in run) * (1 if a > 0 else -1)
            name = self.names[abs(a) - 1]
            parts.append(name if k == 1 else f"{name}^{k}")
        return " ".join(parts)


class FreeGroup(WordGroup):
    """A finite-rank free group; elements are reduced signed-index tuples."""

    def __init__(self, rank: int, names: tuple = ()):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        if not names:
            names = tuple("xyzuvw"[:rank]) if rank <= 6 else tuple(f"x{i}" for i in range(1, rank + 1))
        if len(names) != rank:
            raise ValueError("need one name per generator")
        super().__init__(names)
        self.rank = rank
        self.name = f"F({','.join(self.names)})"

    # equal by rank and names, so free_group(...) needs no instance cache
    def __eq__(self, other):
        return (isinstance(other, FreeGroup)
                and (self.rank, self.names) == (other.rank, other.names))

    def __hash__(self):
        return hash((self.rank, self.names))

    def ray(self, g):
        """(u, p) with g = u p^k u^-1 for some k > 0, p cyclically reduced
        and not a proper power.  Roots in a free group are unique, so this
        pair is shared by exactly the elements with a common positive
        power."""
        i = 0
        while i < len(g) - 1 - i and g[i] == -g[len(g) - 1 - i]:
            i += 1
        core = g[i:len(g) - i]
        n = len(core)
        period = next((d for d in range(1, n) if n % d == 0
                       and core == core[:d] * (n // d)), n)
        return (g[:i], core[:period])


def free_group(rank: int, names: tuple = ()) -> FreeGroup:
    return FreeGroup(rank, names)


def parse_word(group: FreeGroup, text: str) -> tuple:
    """Parse 'x y^-1 x^2' (spaces or * between factors) into a reduced word.

    When every generator name is a single lowercase letter, a compact run
    like 'xyX' is also accepted, uppercase meaning the inverse.  Signed
    generator indices like '1 2 -1' work as well.
    """
    text = text.strip()
    if text in ("", "1"):
        return ()
    tokens = text.replace(",", " ").split()
    if tokens and all(_INT_TOKEN.fullmatch(t) for t in tokens):
        letters = [int(t) for t in tokens]
        if any(a == 0 or abs(a) > len(group.names) for a in letters):
            raise ValueError(f"generator index out of range in {text!r}")
        return reduce_word(letters)
    by_name = {n: i + 1 for i, n in enumerate(group.names)}
    compact_ok = all(len(n) == 1 and n.islower() for n in group.names)
    letters = []
    for token in text.replace("*", " ").split():
        if "^" in token:
            name, _, exp = token.partition("^")
            k = int(exp)
        elif token in by_name:
            name, k = token, 1
        elif compact_ok and all(c.lower() in by_name for c in token):
            for c in token:
                i = by_name[c.lower()]
                letters.append(i if c.islower() else -i)
            continue
        else:
            raise ValueError(f"unknown factor {token!r}")
        if name not in by_name:
            raise ValueError(f"unknown generator {name!r}")
        i = by_name[name]
        if abs(k) > MAX_WORD_LETTERS - len(letters):
            raise ValueError(f"word expands past {MAX_WORD_LETTERS} letters at {token!r}")
        letters.extend([i if k > 0 else -i] * abs(k))
    return reduce_word(letters)


def expand_letters(pairs, degree: int) -> dict:
    """The series of a word given as (label, sign) pairs, truncated at total
    degree ``degree``, as a {monomial: coefficient} dict keyed by tuples of
    labels.  One step per letter, zero coefficients dropped after each;
    every coefficient of degree at most ``degree`` is exact."""
    terms = {(): 1}
    for label, e in pairs:
        out = dict(terms)
        for m, c in terms.items():
            # the term times (eX)^j: j = 1 for x, every j with room for x^-1
            for _ in range(degree - len(m) if e < 0 else min(1, degree - len(m))):
                m += (label,)
                c *= e
                out[m] = out.get(m, 0) + c
        terms = {m: c for m, c in out.items() if c}
    return terms


def least_term(terms: dict):
    """The least nonconstant monomial of an expansion in (degree, lex)
    order, with its coefficient, or None if the series is 1 + O(degree+1)."""
    best = min((m for m in terms if m), key=lambda m: (len(m), m), default=None)
    return None if best is None else (best, terms[best])


def series_sign(pairs) -> int:
    """Sign of the least nonconstant monomial's coefficient, expanding at
    truncation 1, 2, 3, ... up to ESCALATION_CAP until some monomial
    survives, so the last expansion is at the least term's degree."""
    pairs = tuple(pairs)
    if not pairs:
        return 0
    d = 1
    while True:
        term = least_term(expand_letters(pairs, d))
        if term is not None:
            return 1 if term[1] > 0 else -1
        if d >= ESCALATION_CAP:
            raise InconclusiveTruncationError(
                f"expansion is trivial up to degree {d}; the word may need a larger cap")
        d += 1


def _word_pairs(word):
    return tuple((abs(a), 1 if a > 0 else -1) for a in word)


def magnus_sign(word) -> int:
    return series_sign(_word_pairs(word))


def magnus_oracle(group: FreeGroup) -> SignOracle:
    """The series ordering of a free group; invariant under conjugation.

    Signs do not depend on a truncation degree.  The descriptor keeps the
    fixed label ``series[deg6]`` that existing outputs print.
    """
    return SignOracle(group=group, fn=magnus_sign, descriptor="series[deg6]")


def closure_rewrite(word, closed: int):
    """Read a word in one walk as (pairs, t): its part in the normal closure
    of generator ``closed``, spelled in the conjugate generators
    x_i = y^i x y^-i as (i, sign) pairs, and the leftover exponent t of the
    other generator y, so that the word is that part times y^t."""
    other = 3 - closed
    t = 0
    pairs = []
    for a in word:
        if abs(a) == other:
            t += 1 if a > 0 else -1
        else:
            pairs.append((t, 1 if a > 0 else -1))
    return tuple(pairs), t


def closure_lex_sign(group: FreeGroup, word, closed: int = 1) -> int:
    if group.rank != 2:
        raise ValueError("closure ordering is defined for rank 2")
    pairs, t = closure_rewrite(word, closed)
    if pairs:
        return series_sign(pairs)
    return (t > 0) - (t < 0)


def closure_lex_oracle(group: FreeGroup, closed: int = 1) -> SignOracle:
    """The normal-closure-dominant ordering of a rank 2 free group.

    Positive words have a series-positive part in the closure of the chosen
    generator, or a trivial part and a positive power of the other one.  The
    ordering is left-invariant but not invariant under conjugation.
    """
    if group.rank != 2:
        raise ValueError("closure ordering is defined for rank 2")
    name = group.names[closed - 1]
    return SignOracle(
        group=group,
        fn=lambda w: closure_lex_sign(group, w, closed),
        descriptor=f"nclex[{name}]",
    )


def substitute(group: FreeGroup, word, images: dict) -> tuple:
    """Apply a generator-image map to a word and reduce."""
    out = []
    for a in word:
        img = images[abs(a)]
        out.extend(img if a > 0 else group.invert(img))
    return reduce_word(out)


def free_automorphism(group: FreeGroup, images: dict, inverse_images: dict,
                      name: str) -> GroupAutomorphism:
    """An automorphism from generator images, with its inverse supplied and
    checked on the generators."""
    for i in range(1, group.rank + 1):
        gen = group.generator(i)
        if substitute(group, substitute(group, gen, images), inverse_images) != gen:
            raise ValueError(f"maps are not mutually inverse at generator {i}")
        if substitute(group, substitute(group, gen, inverse_images), images) != gen:
            raise ValueError(f"maps are not mutually inverse at generator {i}")
    return GroupAutomorphism(
        group=group,
        forward=lambda w: substitute(group, w, images),
        backward=lambda w: substitute(group, w, inverse_images),
        descriptor=name,
    )


# name: (descriptor, images of x and y, their images under the inverse),
# each image a word that parse_word reads
FREE_PROBES = {
    "swap": ("swap", ("y", "x"), ("y", "x")),
    "invert": ("invert-first", ("x^-1", "y"), ("x^-1", "y")),
    "shear": ("shear", ("x y", "y"), ("x y^-1", "y")),
    "inner": ("inner[x]", ("x", "x y x^-1"), ("x", "x^-1 y x")),
}


def free_probe(group: FreeGroup, name: str) -> GroupAutomorphism:
    """The automorphism of F2 that row ``name`` of FREE_PROBES spells."""
    if group.rank != 2:
        raise ValueError("the free probes are defined on rank 2")
    descriptor, images, inverse = FREE_PROBES[name]
    read = lambda words: {i: parse_word(group, w) for i, w in enumerate(words, 1)}
    return free_automorphism(group, read(images), read(inverse), descriptor)


def free_probe_catalog(group: FreeGroup) -> list:
    """The series ordering, its pushforward by each probe in table order,
    then the two closure orderings."""
    series = magnus_oracle(group)
    return [series,
            *(act_automorphism(free_probe(group, p), series) for p in FREE_PROBES),
            closure_lex_oracle(group, 1), closure_lex_oracle(group, 2)]
