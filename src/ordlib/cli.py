"""Command line front end: ord <area> <command>.

Exit codes: 0 on success, 2 on usage errors, 1 on computational failures
with the error class named in the output.  All output is deterministic for
a fixed argv, newline terminated, with structured listings sorted by key.

Text formats.  Braid and free words are whitespace or comma separated
signed indices ("1 2 -1"); free words also accept letter form ("xyX").
Vectors are "(x1,x2)" with rational entries like "3/2" or quadratic ones
like "1+√2", "-√2", "3/2√2" (ASCII "sqrt2" works too).  Flags are vectors
joined by ";".  Matrices are "[[a,b],[c,d]]" with rational entries.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from fractions import Fraction

from . import verify as verify_mod
from .braid import (
    braid_group,
    dehornoy_oracle,
    flipped_dehornoy_oracle,
    handle_reduce,
    ordering_oracle,
    DEFAULT_BUDGET,
)
from .core import (
    EQ,
    GT,
    LT,
    BudgetExceededError,
    IdentitySignError,
    InconclusiveTruncationError,
    RefusedConstructionError,
    SizeLimitError,
    compare,
    distinguishing_witness,
    separating_element,
    verify_cone_axioms,
)
from .extensions import (
    KleinAut,
    KleinOrderingParams,
    g_group,
    g_ordering,
    klein_action_kernel,
    klein_action_witness,
    klein_as_extension,
    klein_group,
    klein_ordering,
    klein_orderings,
    lex_extension,
)
from .lattice import (
    ALL_ORDERINGS,
    FormFlag,
    TotalityError,
    is_scalar_star,
    lattice_group,
    mat_from_rows,
    mat_times_col,
    row_times_mat,
    eigen_orderings,
    vlo_equal,
)
from .lospace import (
    condition_star_check,
    count_partial_cones,
    enumerate_partial_cones,
    partial_cone_at,
)
from .magnus import (
    FREE_PROBES,
    closure_lex_oracle,
    free_group,
    free_probe,
    free_probe_catalog,
    magnus_oracle,
    parse_word,
)
from .quadfield import QuadRat, UnsupportedFieldError, _is_square_free

COMPUTE_ERRORS = (
    BudgetExceededError,
    SizeLimitError,
    InconclusiveTruncationError,
    IdentitySignError,
    RefusedConstructionError,
    TotalityError,
    UnsupportedFieldError,
)

SIGN_CHARS = {1: "+", -1: "-", 0: "0"}
MAX_FIELD_D = 10**9
# a braid key holds 2 * strands integers and free-group names are built per
# generator, so both are bounded before any group is made
MAX_STRANDS = 1000
MAX_RANK = 1000
# klein kernel builds 4 (2m + 1) automorphisms
MAX_M_BOUND = 10**4


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print to stderr and exit, so
    a bad value, an unrecognized or missing option and an invalid choice
    reach main as usage errors like every other."""

    def error(self, message):
        raise UsageError(message)


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _non_negative(text: str) -> int:
    value = _int_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _int_between(low: int, high: int):
    def parse(text: str) -> int:
        value = _int_arg(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"must be between {low} and {high}, got {value}")
        return value
    return parse


def _field_d(text: str) -> int:
    d = _int_arg(text)
    # square-freeness is tested by trial division, so bound d before it
    if d > MAX_FIELD_D:
        raise argparse.ArgumentTypeError(f"d must be at most 10**9, got {d}")
    if not _is_square_free(d):
        raise argparse.ArgumentTypeError(f"d must be square-free and >= 2, got {d}")
    return d


def _parse_letters(text: str) -> tuple:
    tokens = text.replace(",", " ").split()
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise UsageError(f"expected signed integer letters, got {text!r}")


def _parse_braid_word(text: str, strands: int) -> tuple:
    word = _parse_letters(text)
    for a in word:
        if not 0 < abs(a) < strands:
            raise UsageError(f"braid letter {a} is not a generator of B{strands}")
    return word


_ROOT_RE = re.compile(r"(?:√|sqrt)(\d+)")


def _parse_entry(text: str, d: int):
    text = text.strip()
    m = _ROOT_RE.search(text)
    if m is None:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad vector entry {text!r}")
    if text[m.end():]:
        raise UsageError(f"bad vector entry {text!r}")
    if int(m.group(1)) != d:
        raise UsageError(f"entry {text!r} is not in Q(√{d}); pass --d {m.group(1)}")
    head = text[: m.start()]
    split = max(head.rfind("+", 1), head.rfind("-", 1))
    rational, coeff = (head[:split], head[split:]) if split > 0 else ("", head)
    if coeff in ("", "+"):
        b = Fraction(1)
    elif coeff == "-":
        b = Fraction(-1)
    else:
        try:
            b = Fraction(coeff)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad vector entry {text!r}")
    try:
        a = Fraction(rational) if rational else Fraction(0)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad vector entry {text!r}")
    return QuadRat(a, b, d)


def _parse_vector(text: str, d: int) -> tuple:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    if not text.strip():
        raise UsageError(f"empty vector {text!r}")
    # an empty entry, as in "(1,,0)", is a bad entry, not a dropped one
    return tuple(_parse_entry(e, d) for e in text.split(","))


def _parse_flag(text: str, d: int = 2) -> FormFlag:
    if not text.strip():
        raise UsageError(f"empty flag {text!r}")
    return FormFlag.of([_parse_vector(part, d) for part in text.split(";")], d)


def _parse_matrix(text: str) -> tuple:
    body = text.replace(" ", "")
    if not (body.startswith("[[") and body.endswith("]]")):
        raise UsageError(f"bad matrix {text!r}")
    rows = []
    for chunk in body[2:-2].split("],["):
        try:
            rows.append(tuple(Fraction(x) for x in chunk.split(",")))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad matrix {text!r}")
    if any(len(r) != len(rows) for r in rows):
        raise UsageError(f"matrix must be square, got {text!r}")
    return tuple(rows)


def _vec_str(v) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def _braid_oracle(group, name: str):
    if name == "dehornoy":
        return dehornoy_oracle(group)
    if name == "flip":
        return flipped_dehornoy_oracle(group)
    try:
        index = int(name)
    except ValueError:
        raise UsageError(f"unknown ordering {name!r}")
    if not 1 <= index < group.strands:
        raise UsageError(f"ordering index out of range: {name}")
    return ordering_oracle(group, index)


def _lospace_group(name: str):
    groups = {
        "z": lambda: lattice_group(1),
        "z2": lambda: lattice_group(2),
        "z3": lambda: lattice_group(3),
        "klein": klein_group,
        "f2": lambda: free_group(2),
    }
    if name not in groups:
        raise UsageError(f"unknown group {name!r}")
    return groups[name]()


def _klein_params(text: str) -> KleinOrderingParams:
    signs = {"+": 1, "p": 1, "-": -1, "m": -1}
    if len(text) == 2 and text[0] in signs and text[1] in signs:
        return KleinOrderingParams(signs[text[0]], signs[text[1]])
    raise UsageError(f"expected a sign pair like ++ or pm, got {text!r}")


def cmd_braid_sign(args) -> int:
    group = braid_group(args.strands)
    oracle = _braid_oracle(group, args.ordering)
    print(SIGN_CHARS[oracle.fn(_parse_braid_word(args.word, args.strands))])
    return 0


def cmd_braid_compare(args) -> int:
    group = braid_group(args.strands)
    oracle = _braid_oracle(group, args.ordering)
    left = _parse_braid_word(args.left, args.strands)
    right = _parse_braid_word(args.right, args.strands)
    print({LT: "<", EQ: "=", GT: ">"}[compare(oracle, left, right)])
    return 0


def cmd_braid_reduce(args) -> int:
    reduced = handle_reduce(_parse_braid_word(args.word, args.strands), args.budget)
    print(" ".join(map(str, reduced)) if reduced else "e")
    return 0


def cmd_braid_least(args) -> int:
    group = braid_group(args.strands)
    print(group.label(_braid_oracle(group, args.ordering).least))
    return 0


def cmd_klein_orderings(args) -> int:
    group = klein_group()
    for oracle in klein_orderings():
        signs = " ".join(
            f"{group.label(g)}:{SIGN_CHARS[oracle.sign(g)]}"
            for g in group.ball(args.radius)[1:])
        print(f"{oracle.descriptor} {signs}")
    return 0


def cmd_klein_kernel(args) -> int:
    for phi in klein_action_kernel(args.m_bound):
        print(phi.descriptor())
    return 0


def cmd_klein_witness(args) -> int:
    phi = KleinAut(args.eps, args.delta, args.m)
    hit = klein_action_witness(phi)
    if hit is None:
        print("kernel")
    else:
        oracle, g = hit
        print(f"{oracle.descriptor}@{klein_group().label(g)}")
    return 0


def cmd_abelian_sign(args) -> int:
    flag = _parse_flag(args.flag, args.d)
    vector = _parse_vector(args.vector, args.d)
    if any(isinstance(x, QuadRat) for x in vector):
        raise UsageError(f"vector entries must be rational, got {args.vector!r}")
    if not flag.is_total():
        raise TotalityError(f"{flag.descriptor()} is not total")
    print(SIGN_CHARS[flag.form_sign(vector)])
    return 0


def cmd_abelian_eigen(args) -> int:
    rows = _parse_matrix(args.matrix)
    flags = eigen_orderings(rows, args.d)
    if flags == ALL_ORDERINGS:
        print("all")
        return 0
    if not flags:
        print("none")
        return 0
    m = mat_from_rows(rows)
    for flag in flags[::2]:
        u = flag.vectors[0]
        image = mat_times_col(m, u)
        i = next(k for k, x in enumerate(u) if x.sign() != 0)
        lam = image[i] / u[i]
        print(f"±{_vec_str(u)}, eigenvalue {lam}")
    return 0


def cmd_abelian_star(args) -> int:
    ratio, witness = is_scalar_star(_parse_matrix(args.matrix))
    if ratio is not None:
        print(str(ratio))
    else:
        print(f"none, witness {_vec_str(witness)}")
    return 0


def cmd_abelian_vlo(args) -> int:
    f1 = _parse_flag(args.first, args.d)
    f2 = _parse_flag(args.second, args.d)
    basis1 = _parse_matrix(args.basis1) if args.basis1 else None
    basis2 = _parse_matrix(args.basis2) if args.basis2 else None
    # a rank mismatch is a usage error, whatever the totality of the flags
    if f2.rank != f1.rank:
        raise UsageError("flags have different ranks")
    if any(b is not None and len(b) != f1.rank for b in (basis1, basis2)):
        raise UsageError("sublattice basis has the wrong rank")
    for flag in (f1, f2):
        if not flag.is_total():
            raise TotalityError(f"{flag.descriptor()} is not total")
    equal, witness = vlo_equal(f1, f2, basis1, basis2)
    print("equal" if equal else f"differ, witness {_vec_str(witness)}")
    return 0


def _free_oracle(group, name: str):
    if name == "series":
        return magnus_oracle(group)
    if name == "nclex-x":
        return closure_lex_oracle(group, 1)
    if name == "nclex-y":
        return closure_lex_oracle(group, 2)
    raise UsageError(f"unknown ordering {name!r}")


def cmd_free_sign(args) -> int:
    group = free_group(args.rank)
    oracle = _free_oracle(group, args.ordering)
    print(SIGN_CHARS[oracle.fn(parse_word(group, args.word))])
    return 0


def cmd_free_witness(args) -> int:
    group = free_group(2)
    hit = distinguishing_witness(free_probe(group, args.probe),
                                 free_probe_catalog(group), group, args.radius)
    if hit is None:
        print("none")
    else:
        oracle, g = hit
        print(f"{oracle.descriptor}@{group.label(g)}")
    return 0


def cmd_ext_build(args) -> int:
    if args.target == "g":
        print(f"constructed {g_ordering().descriptor}")
        return 0
    ext = klein_as_extension()
    lex_extension(magnus_oracle(ext.base), ext)
    print("unexpectedly constructed an ordering of the Klein group")
    return 0


def cmd_ext_verify(args) -> int:
    report = verify_cone_axioms(g_ordering(), g_group(), args.radius)
    print("pass" if report.passed else f"fail: {report}")
    return 0 if report.passed else 1


def cmd_ext_least(args) -> int:
    print(g_group().label(g_ordering().least))
    return 0


def cmd_lospace_enum(args) -> int:
    group = _lospace_group(args.group)
    if not args.show:
        print(f"count: {count_partial_cones(group, args.radius)}")
        return 0
    cones = enumerate_partial_cones(group, args.radius)
    print(f"count: {len(cones)}")
    for cone in cones:
        print(f"\n{cone.serialize()}")
    return 0


def cmd_lospace_extend(args) -> int:
    group = _lospace_group(args.group)
    # build only the cone asked for; a negative or missing index counts them all
    try:
        cone = partial_cone_at(group, args.radius, args.index)
    except IndexError as exc:
        raise UsageError(str(exc)) from None
    count = count_partial_cones(group, args.radius2, base=cone,
                                max_results=args.max_results)
    print(f"completions: {count}")
    return 0


def cmd_lospace_separate(args) -> int:
    if args.group != "klein":
        raise UsageError("separate supports the klein group")
    group = klein_group()
    first = klein_ordering(_klein_params(args.first))
    second = klein_ordering(_klein_params(args.second))
    g = separating_element(first, second, group, args.radius)
    print(group.label(g) if g is not None else "none")
    return 0


def cmd_lospace_star(args) -> int:
    group = _lospace_group(args.group)
    given = [v for v in (args.matrix, args.probe, args.aut) if v]
    if len(given) != 1:
        raise UsageError("give exactly one of --matrix, --probe, --aut")
    if args.matrix:
        if args.group not in ("z", "z2", "z3"):
            raise UsageError("--matrix applies to the lattice groups")
        m = mat_from_rows(_parse_matrix(args.matrix))
        if len(m) != group.rank:
            raise UsageError("matrix size does not match the group rank")
        phi = lambda v: row_times_mat(v, m)
    elif args.probe:
        if args.group != "f2":
            raise UsageError("--probe applies to the group f2")
        if args.probe not in FREE_PROBES:
            raise UsageError(f"unknown probe {args.probe!r}")
        phi = free_probe(group, args.probe)
    else:
        if args.group != "klein":
            raise UsageError("--aut applies to the klein group")
        triple = _parse_letters(args.aut)
        if len(triple) != 3:
            raise UsageError("expected --aut e,d,m")
        phi = KleinAut(*triple).to_automorphism()
    witness = condition_star_check(phi, group)
    if witness is None:
        print("holds")
    else:
        print(f"fails at {group.label(witness)}")
    return 0


def cmd_verify(args) -> int:
    names = args.suites or ["all"]
    if "determinism" in names:
        if names != ["determinism"]:
            raise UsageError("determinism runs alone")
        return _verify_determinism()
    chosen = []
    for name in names:
        if name == "all":
            chosen.extend(verify_mod.suite_names())
        elif name.isdigit():
            index = int(name)
            if not 1 <= index <= len(verify_mod.SUITES):
                raise UsageError(f"suite number out of range: {name}")
            chosen.append(verify_mod.SUITES[index - 1][0])
        elif name in verify_mod.suite_names():
            chosen.append(name)
        else:
            raise UsageError(f"unknown suite {name!r}")
    results = verify_mod.run(chosen)
    for line in verify_mod.structured_lines(results):
        print(line)
    return 0 if all(passed for _, passed, _ in results) else 1


def _verify_determinism() -> int:
    command = [sys.executable, "-m", "ordlib.cli", "verify", "all"]
    runs = [subprocess.run(command, capture_output=True) for _ in range(2)]
    same = (runs[0].stdout == runs[1].stdout
            and runs[0].returncode == runs[1].returncode == 0)
    print(f"determinism: {'pass' if same else 'FAIL'}")
    print(f"result: {'pass' if same else 'FAIL'}")
    return 0 if same else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ord",
        description="left-orderings of concrete groups as sign oracles")
    sub = parser.add_subparsers(dest="area", required=True)

    braid = sub.add_parser("braid", help="braid group orderings").add_subparsers(
        dest="command", required=True)
    p = braid.add_parser("sign", help="sign of a word")
    p.add_argument("--strands", type=_int_between(2, MAX_STRANDS), required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--ordering", default="dehornoy")
    p.set_defaults(func=cmd_braid_sign)
    p = braid.add_parser("compare", help="compare two words")
    p.add_argument("--strands", type=_int_between(2, MAX_STRANDS), required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--ordering", default="dehornoy")
    p.set_defaults(func=cmd_braid_compare)
    p = braid.add_parser("reduce", help="reduce the handles of a word")
    p.add_argument("--strands", type=_int_between(2, MAX_STRANDS), required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--budget", type=_non_negative, default=DEFAULT_BUDGET,
                   help="bound on handle reductions")
    p.set_defaults(func=cmd_braid_reduce)
    p = braid.add_parser("least", help="least positive element of the ordering")
    p.add_argument("--strands", type=_int_between(2, MAX_STRANDS), required=True)
    p.add_argument("--ordering", default="dehornoy")
    p.set_defaults(func=cmd_braid_least)

    klein = sub.add_parser("klein", help="the four Klein bottle orderings").add_subparsers(
        dest="command", required=True)
    p = klein.add_parser("orderings", help="list the four orderings")
    p.add_argument("--radius", type=int, default=1)
    p.set_defaults(func=cmd_klein_orderings)
    p = klein.add_parser("kernel", help="automorphisms fixing all orderings")
    p.add_argument("--m-bound", type=_int_between(1, MAX_M_BOUND), required=True)
    p.set_defaults(func=cmd_klein_kernel)
    p = klein.add_parser("witness", help="first ordering an automorphism moves")
    p.add_argument("--eps", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.set_defaults(func=cmd_klein_witness)

    abelian = sub.add_parser("abelian", help="lattice orderings by form flags").add_subparsers(
        dest="command", required=True)
    p = abelian.add_parser("sign", help="sign of a vector under a flag")
    p.add_argument("--flag", required=True)
    p.add_argument("--vector", required=True)
    p.add_argument("--d", type=_field_d, default=2)
    p.set_defaults(func=cmd_abelian_sign)
    p = abelian.add_parser("eigen", help="flags preserved by a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--d", type=_field_d, default=2)
    p.set_defaults(func=cmd_abelian_eigen)
    p = abelian.add_parser("star", help="positive scalar ratio or a witness")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_abelian_star)
    p = abelian.add_parser("vlo", help="compare two flags on sublattices")
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    p.add_argument("--basis1")
    p.add_argument("--basis2")
    p.add_argument("--d", type=_field_d, default=2)
    p.set_defaults(func=cmd_abelian_vlo)

    free = sub.add_parser("free", help="free group orderings").add_subparsers(
        dest="command", required=True)
    p = free.add_parser("sign", help="sign of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--rank", type=_int_between(1, MAX_RANK), default=2)
    p.add_argument("--ordering", default="series")
    p.set_defaults(func=cmd_free_sign)
    p = free.add_parser("witness", help="ordering moved by an automorphism")
    p.add_argument("--probe", required=True, choices=sorted(FREE_PROBES))
    p.add_argument("--radius", type=int, default=3)
    p.set_defaults(func=cmd_free_witness)

    ext = sub.add_parser("ext", help="ordered split extensions").add_subparsers(
        dest="command", required=True)
    p = ext.add_parser("build", help="build a lexicographic extension")
    p.add_argument("--target", default="g", choices=("g", "klein"))
    p.set_defaults(func=cmd_ext_build)
    p = ext.add_parser("verify", help="cone axioms of the built ordering")
    p.add_argument("--radius", type=int, default=4)
    p.set_defaults(func=cmd_ext_verify)
    p = ext.add_parser("least", help="least positive element of the ordering")
    p.set_defaults(func=cmd_ext_least)

    lospace = sub.add_parser("lospace", help="spaces of partial orderings").add_subparsers(
        dest="command", required=True)
    p = lospace.add_parser("enum", help="enumerate partial cones on a ball")
    p.add_argument("--group", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--show", action="store_true")
    p.set_defaults(func=cmd_lospace_enum)
    p = lospace.add_parser("extend", help="extend one cone to a larger ball")
    p.add_argument("--group", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--radius2", type=int, required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--max-results", type=int)
    p.set_defaults(func=cmd_lospace_extend)
    p = lospace.add_parser("separate", help="element separating two orderings")
    p.add_argument("--group", required=True)
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    p.add_argument("--radius", type=int, default=2)
    p.set_defaults(func=cmd_lospace_separate)
    p = lospace.add_parser("star", help="power compatibility of a map")
    p.add_argument("--group", required=True)
    p.add_argument("--matrix")
    p.add_argument("--probe")
    p.add_argument("--aut")
    p.set_defaults(func=cmd_lospace_star)

    p = sub.add_parser("verify", help="run acceptance suites")
    p.add_argument("suites", nargs="*",
                   help="suite names, 1-based numbers, all, or determinism")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except COMPUTE_ERRORS as err:
        print(f"error: {type(err).__name__}: {err}")
        return 1
    except ValueError as err:
        print(f"usage error: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
