"""End-to-end runs of the command tree against frozen text output."""

import random
import resource
import subprocess
import sys
import time
import tracemalloc

import pytest

import ordlib.cli as cli
from ordlib.cli import main
from ordlib.lattice import lattice_group
import ordlib.lospace as lospace
from ordlib.lospace import PartialCone, enumerate_partial_cones, extend_partial_cone


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out.splitlines()


def test_braid_sign(capsys):
    rc, out = run(capsys, "braid", "sign", "--strands", "3", "--word", "1 2 -1")
    assert (rc, out) == (0, ["+"])
    rc, out = run(capsys, "braid", "sign", "--strands", "3", "--word", "-1 2",
                  "--ordering", "flip")
    assert (rc, out) == (0, ["+"])


def test_braid_compare_and_reduce(capsys):
    rc, out = run(capsys, "braid", "compare", "--strands", "3",
                  "--left", "2", "--right", "1")
    assert (rc, out) == (0, ["<"])
    rc, out = run(capsys, "braid", "compare", "--strands", "3",
                  "--left", "1 2 1", "--right", "2 1 2")
    assert (rc, out) == (0, ["="])
    rc, out = run(capsys, "braid", "compare", "--strands", "3",
                  "--left", "1", "--right", "2")
    assert (rc, out) == (0, [">"])
    rc, out = run(capsys, "braid", "reduce", "--strands", "4",
                  "--word", "1 3 2 3 -2 -3 -2 -1")
    assert (rc, out) == (0, ["e"])
    rc, out = run(capsys, "braid", "reduce", "--strands", "3",
                  "--word", "1 2 -1")
    assert (rc, out) == (0, ["-2 1 2"])


def test_braid_least(capsys):
    rc, out = run(capsys, "braid", "least", "--strands", "4")
    assert (rc, out) == (0, ["s3"])
    rc, out = run(capsys, "braid", "least", "--strands", "3", "--ordering", "1")
    assert (rc, out) == (0, ["s1"])
    # stated, not scanned: ball(3) of B1000 is over the ball cap
    rc, out = run(capsys, "braid", "least", "--strands", "1000")
    assert (rc, out) == (0, ["s999"])


def test_klein_commands(capsys):
    rc, out = run(capsys, "klein", "orderings")
    assert rc == 0
    assert out[0] == "klein[++] x:+ x^-1:- y:+ y^-1:-"
    assert len(out) == 4
    rc, out = run(capsys, "klein", "kernel", "--m-bound", "2")
    assert (rc, out) == (0, [f"klein-aut[1,1,{m}]" for m in range(-2, 3)])
    rc, out = run(capsys, "klein", "witness", "--eps", "-1", "--delta", "1")
    assert (rc, out) == (0, ["klein[++]@x"])
    rc, out = run(capsys, "klein", "witness", "--eps", "1", "--delta", "-1",
                  "--m", "2")
    assert (rc, out) == (0, ["klein[++]@y"])
    rc, out = run(capsys, "klein", "witness", "--eps", "1", "--delta", "1",
                  "--m", "-2")
    assert (rc, out) == (0, ["kernel"])


def test_abelian_sign(capsys):
    rc, out = run(capsys, "abelian", "sign", "--flag", "(1,0);(0,1)",
                  "--vector", "(0,-3)")
    assert (rc, out) == (0, ["-"])
    rc, out = run(capsys, "abelian", "sign", "--flag", "(-√2,1)",
                  "--vector", "(1,1)")
    assert (rc, out) == (0, ["-"])
    rc, out = run(capsys, "abelian", "sign", "--flag", "(sqrt2,1)",
                  "--vector", "(1,-1)")
    assert (rc, out) == (0, ["+"])
    rc, out = run(capsys, "abelian", "sign", "--flag", "(√3,1)",
                  "--vector", "(1,-2)", "--d", "3")
    assert (rc, out) == (0, ["-"])


def test_abelian_eigen_output_reads_back_in(capsys):
    rc, out = run(capsys, "abelian", "eigen", "--matrix", "[[0,1],[1,1]]", "--d", "5")
    assert (rc, out) == (0, ["±(-1/2+1/2√5,1), eigenvalue 1/2+1/2√5"])
    flag = out[0][1:out[0].index(")") + 1]
    rc, out = run(capsys, "abelian", "sign", "--flag", flag, "--vector", "(1,-1)",
                  "--d", "5")
    assert (rc, out) == (0, ["-"])
    rc, out = run(capsys, "abelian", "sign", "--flag", flag, "--vector", "(-1,2)",
                  "--d", "5")
    assert (rc, out) == (0, ["+"])


def test_abelian_sign_refuses_what_it_cannot_sign(capsys):
    rc, out = run(capsys, "abelian", "sign", "--flag", "(1,1)", "--vector", "(1,-1)")
    assert (rc, out) == (1, ["error: TotalityError: flag[(1,1)] is not total"])
    rc, out = run(capsys, "abelian", "sign", "--flag", "(1,0);(0,1)",
                  "--vector", "(1,2,3)")
    assert (rc, out) == (2, ["usage error: vector has rank 3, flag has rank 2"])
    rc, out = run(capsys, "abelian", "sign", "--flag", "(1,0);(0,1)",
                  "--vector", "(√2,1)")
    assert rc == 2
    assert out[0].startswith("usage error: vector entries must be rational")


@pytest.mark.parametrize("matrix,message", [
    ("[[10000000000,0],[0,-10000000000]]",
     "eigenvalues are rational; no irrational one-vector flag is preserved"),
    ("[[100000000000,1],[1,0]]", "eigenvalues lie outside Q(sqrt 2)"),
    ("[[1,5],[1,1]]", "eigenvalues live in Q(sqrt 5); construct the flag with d=5"),
])
def test_abelian_eigen_field_refusals_are_quick(capsys, matrix, message):
    start = time.perf_counter()
    rc, out = run(capsys, "abelian", "eigen", "--matrix", matrix)
    assert time.perf_counter() - start < 2.0
    assert (rc, out) == (1, [f"error: UnsupportedFieldError: {message}"])


def test_abelian_eigen_star_vlo(capsys):
    rc, out = run(capsys, "abelian", "eigen", "--matrix", "[[1,2],[1,1]]")
    assert (rc, out) == (0, ["±(√2,1), eigenvalue 1+√2"])
    rc, out = run(capsys, "abelian", "eigen", "--matrix", "[[2,0],[0,2]]")
    assert (rc, out) == (0, ["all"])
    rc, out = run(capsys, "abelian", "eigen", "--matrix", "[[-1,0],[0,-1]]")
    assert (rc, out) == (0, ["none"])
    rc, out = run(capsys, "abelian", "star", "--matrix", "[[3,0],[0,2]]")
    assert (rc, out) == (0, ["none, witness (1,1)"])
    rc, out = run(capsys, "abelian", "star", "--matrix", "[[3,0],[0,3]]")
    assert (rc, out) == (0, ["3"])
    rc, out = run(capsys, "abelian", "vlo", "--first", "(1,0);(0,1)",
                  "--second", "(2,0);(0,2)")
    assert (rc, out) == (0, ["equal"])
    rc, out = run(capsys, "abelian", "vlo", "--first", "(1,0);(0,1)",
                  "--second", "(-1,0);(0,-1)")
    assert (rc, out) == (0, ["differ, witness (1,0)"])
    rc, out = run(capsys, "abelian", "vlo", "--first", "(1,0);(0,1)",
                  "--second", "(0,1);(1,0)")
    assert (rc, out) == (0, ["differ, witness (1,-1)"])
    rc, out = run(capsys, "abelian", "vlo", "--first", "(1,0);(0,1)",
                  "--second", "(1,1/1000);(0,1)")
    assert (rc, out) == (0, ["differ, witness (1,-1000)"])


@pytest.mark.parametrize("first,second,bad", [
    ("(0,0)", "(0,0)", "(0,0)"),
    ("(1,0)", "(2,0)", "(1,0)"),
    ("(1,0)", "(1,0);(0,1)", "(1,0)"),
    ("(1,0);(0,1)", "(0,1)", "(0,1)"),
])
def test_abelian_vlo_refuses_a_flag_that_is_not_total(capsys, first, second, bad):
    rc, out = run(capsys, "abelian", "vlo", "--first", first, "--second", second)
    assert (rc, out) == (1, [f"error: TotalityError: flag[{bad}] is not total"])


def _unit_flag(rank, last=0):
    rows = [["1" if i == j else "0" for j in range(rank)] for i in range(rank)]
    rows[-2][-1] = str(last)
    return ";".join("(" + ",".join(row) + ")" for row in rows)


@pytest.mark.parametrize("rank", [4, 8])
def test_abelian_vlo_answers_past_rank_three(capsys, rank):
    """The witness comes from the first differing canonical step, so no
    rank is refused: here the plane of the last two unit vectors."""
    start = time.perf_counter()
    rc, out = run(capsys, "abelian", "vlo", "--first", _unit_flag(rank),
                  "--second", _unit_flag(rank, "1/1000"))
    assert time.perf_counter() - start < 2.0
    assert (rc, out) == (0, ["differ, witness (" + "0," * (rank - 2) + "1,-1000)"])
    rc, out = run(capsys, "abelian", "vlo", "--first", _unit_flag(rank),
                  "--second", _unit_flag(rank).replace("(1,", "(2,", 1))
    assert (rc, out) == (0, ["equal"])


@pytest.mark.parametrize("nudge,witness", [
    ("1/1000", "(41,-58)"),
    ("1/1" + "0" * 300, None),
])
def test_abelian_vlo_walks_to_a_nudged_line_quickly(capsys, nudge, witness):
    start = time.perf_counter()
    rc, out = run(capsys, "abelian", "vlo", "--first", "(√2,1)",
                  "--second", f"({nudge}+√2,1)")
    assert time.perf_counter() - start < 2.0
    assert rc == 0 and out[0].startswith("differ, witness (")
    assert witness is None or out == [f"differ, witness {witness}"]


def test_abelian_vlo_has_no_radius(capsys):
    rc, out = run(capsys, "abelian", "vlo", "--first", "(1,0)", "--second", "(0,1)",
                  "--radius", "0")
    assert (rc, out) == (2, ["usage error: unrecognized arguments: --radius 0"])


def test_free_commands(capsys):
    rc, out = run(capsys, "free", "sign", "--word", "x y x^-1 y^-1")
    assert (rc, out) == (0, ["+"])
    rc, out = run(capsys, "free", "sign", "--word", "x^-1 y",
                  "--ordering", "nclex-x")
    assert (rc, out) == (0, ["-"])
    rc, out = run(capsys, "free", "witness", "--probe", "inner")
    assert (rc, out) == (0, ["nclex[x]@x y^-1"])
    rc, out = run(capsys, "free", "witness", "--probe", "swap")
    assert (rc, out) == (0, ["series[deg6]@x y^-1"])


def test_free_sign_of_a_long_word(capsys):
    rc, out = run(capsys, "free", "sign", "--word", " ".join(["x y"] * 400))
    assert (rc, out) == (0, ["+"])


def test_ext_commands(capsys):
    rc, out = run(capsys, "ext", "build")
    assert (rc, out) == (0, ["constructed lex[k-lex[flag[(-√2,1)]]]"])
    rc, out = run(capsys, "ext", "build", "--target", "klein")
    assert rc == 1
    assert out == ["error: RefusedConstructionError: conjugation by the "
                   "Z letter moves y across the cone"]
    rc, out = run(capsys, "ext", "verify", "--radius", "3")
    assert (rc, out) == (0, ["pass"])
    rc, out = run(capsys, "ext", "least")
    assert (rc, out) == (0, ["(((0, 0), 0), 1)"])


def test_lospace_commands(capsys):
    rc, out = run(capsys, "lospace", "enum", "--group", "klein", "--radius", "6")
    assert (rc, out) == (0, ["count: 4"])
    rc, out = run(capsys, "lospace", "enum", "--group", "z", "--radius", "2",
                  "--show")
    assert rc == 0
    assert out[0] == "count: 2"
    assert out[1:6] == ["", "(1):+", "(-1):-", "(2):+", "(-2):-"]
    rc, out = run(capsys, "lospace", "extend", "--group", "klein",
                  "--radius", "6", "--radius2", "8")
    assert (rc, out) == (0, ["completions: 1"])
    rc, out = run(capsys, "lospace", "separate", "--group", "klein",
                  "--first", "pp", "--second", "mm")
    assert (rc, out) == (0, ["x"])
    rc, out = run(capsys, "lospace", "separate", "--group", "klein",
                  "--first", "++", "--second", "+-")
    assert (rc, out) == (0, ["y"])
    rc, out = run(capsys, "lospace", "separate", "--group", "klein",
                  "--first", "++", "--second", "++")
    assert (rc, out) == (0, ["none"])


def test_lospace_count_stores_no_cones(capsys):
    """The count comes from the solver's stream: 15,768 cones are counted
    within a 4 MB allocation peak, with no cone or solution kept."""
    tracemalloc.start()
    try:
        rc, out = run(capsys, "lospace", "enum", "--group", "f2", "--radius", "4")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out) == (0, ["count: 15768"])
    assert peak < 4 << 20


def test_lospace_extend_stops_at_the_index(capsys, monkeypatch):
    """extend builds only the cone it extends, and counts its completions
    without building them; a missed index, too large or negative, still
    reports the full count, builds no cone and streams the first ball once."""
    cones = enumerate_partial_cones(lattice_group(2), 2)
    assert len(cones) == 8
    wants = [len(extend_partial_cone(cone, lattice_group(2), 3)) for cone in cones]
    built, streams = [], []
    solutions = lospace._ConeSearch.solutions

    def counted(*args):
        built.append(PartialCone(*args))
        return built[-1]

    def streamed(search, preset):
        streams.append(search.nvars)
        return solutions(search, preset)

    monkeypatch.setattr(lospace, "PartialCone", counted)
    monkeypatch.setattr(lospace._ConeSearch, "solutions", streamed)
    nvars = [len(lattice_group(2).ball(r)) // 2 for r in (2, 3)]
    for index in (0, 2, 7):
        rc, out = run(capsys, "lospace", "extend", "--group", "z2", "--radius", "2",
                      "--radius2", "3", "--index", str(index))
        assert (rc, out) == (0, [f"completions: {wants[index]}"])
        assert (built, streams) == ([cones[index]], nvars)
        built.clear()
        streams.clear()
    for index in (8, 40, -1):
        rc, out = run(capsys, "lospace", "extend", "--group", "z2", "--radius", "2",
                      "--radius2", "3", "--index", str(index))
        assert (rc, out) == (2, [f"usage error: index {index} out of range for 8 cones"])
        assert (built, streams) == ([], nvars[:1])
        streams.clear()


def test_lospace_extend_count_stores_no_cones(capsys):
    """The completions are counted from the solver's stream: the 7,362
    completions of a Z^3 ball(1) cone to ball(8) are counted within a
    10 MB allocation peak, most of it the ball's product table and clause
    index, with no cone kept."""
    tracemalloc.start()
    try:
        rc, out = run(capsys, "lospace", "extend", "--group", "z3", "--radius", "1",
                      "--radius2", "8")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out) == (0, ["completions: 7362"])
    assert peak < 10 << 20


def test_lospace_star(capsys):
    rc, out = run(capsys, "lospace", "star", "--group", "z2",
                  "--matrix", "[[1,1],[0,1]]")
    assert (rc, out) == (0, ["fails at (1,0)"])
    rc, out = run(capsys, "lospace", "star", "--group", "z2",
                  "--matrix", "[[2,0],[0,2]]")
    assert (rc, out) == (0, ["holds"])
    # v^9 = (9v)^1 is the first common power: it needs an exponent of 9
    rc, out = run(capsys, "lospace", "star", "--group", "z2",
                  "--matrix", "[[9,0],[0,9]]")
    assert (rc, out) == (0, ["holds"])
    rc, out = run(capsys, "lospace", "star", "--group", "f2", "--probe", "swap")
    assert (rc, out) == (0, ["fails at x"])
    rc, out = run(capsys, "lospace", "star", "--group", "klein",
                  "--aut", "1,-1,0")
    assert (rc, out) == (0, ["fails at y"])


def test_verify_single_suite(capsys):
    rc, out = run(capsys, "verify", "matrix-eigen")
    assert rc == 0
    assert out[0] == "matrix-eigen: pass"
    assert out[-1] == "result: pass"
    rc, out = run(capsys, "verify", "7")
    assert rc == 0
    assert out[0] == "matrix-eigen: pass"


@pytest.mark.parametrize("argv", [
    ("verify", "nosuch"),
    ("verify", "99"),
    ("verify", "determinism", "matrix-eigen"),
    ("abelian", "eigen", "--matrix", "[[1,2]"),
    ("braid", "sign", "--strands", "3", "--word", "x"),
    ("braid", "sign", "--strands", "3", "--word", "1 2", "--ordering", "9"),
    ("klein", "witness", "--eps", "2", "--delta", "1"),
    ("lospace", "enum", "--group", "nope", "--radius", "2"),
    ("lospace", "separate", "--group", "z2", "--first", "++", "--second", "mm"),
    ("lospace", "star", "--group", "z2", "--matrix", "[[1,0],[0,1]]",
     "--probe", "swap"),
    ("free", "sign", "--word", "q"),
    ("braid", "sign", "--strands", "3", "--word", "0"),
    ("braid", "sign", "--strands", "3", "--word", "5"),
    ("braid", "sign", "--strands", "3", "--word", "1 -3"),
    ("braid", "compare", "--strands", "3", "--left", "1", "--right", "0"),
    ("braid", "reduce", "--strands", "3", "--word", "0,0"),
    ("abelian", "sign", "--flag", "(√3,1)", "--vector", "(1,-2)"),
    ("abelian", "vlo", "--first", "(sqrt5,1)", "--second", "(1,0)", "--d", "3"),
    ("braid", "reduce", "--strands", "4", "--word", "1 2 -1", "--budget", "-5"),
    ("abelian", "sign", "--flag", "(1,1)", "--vector", "(1,-2)", "--d", "4"),
    ("abelian", "sign", "--flag", "(1,1)", "--vector", "(1,-2)", "--d", "1"),
    ("abelian", "sign", "--flag", "(1,1)", "--vector", "(1,-2)", "--d", "0"),
    ("free", "sign", "--word", "x^99999999999"),
    ("free", "sign", "--word", "x^600000 y^600000"),
    # 10**18 - 11 is prime: trial division would run for minutes
    ("abelian", "eigen", "--matrix", "[[1,2],[1,1]]", "--d", str(10**18 - 11)),
    ("lospace", "extend", "--group", "z2", "--radius", "1", "--radius2", "2",
     "--max-results", "0"),
    ("lospace", "extend", "--group", "z2", "--radius", "1", "--radius2", "2",
     "--max-results", "-3"),
    ("braid", "reduce", "--strands", "1", "--word", ""),
    ("braid", "least", "--strands", "1001"),
    ("free", "sign", "--word", "x", "--rank", "0"),
    ("free", "sign", "--word", "x", "--rank", "1001"),
    # a zero denominator is a bad entry, not a ZeroDivisionError traceback
    ("abelian", "star", "--matrix", "[[1,0],[0,1/0]]"),
    ("abelian", "eigen", "--matrix", "[[1/0,0],[0,1]]"),
    ("lospace", "star", "--group", "z2", "--matrix", "[[1/0,0],[0,1]]"),
    ("abelian", "vlo", "--first", "(1,0)", "--second", "(0,1)",
     "--basis1", "[[1/0,0],[0,1]]"),
    ("abelian", "sign", "--flag", "(1,0)", "--vector", "(1/0,1)"),
    ("abelian", "sign", "--flag", "(1/0√2,1)", "--vector", "(1,1)"),
    # ranks are checked before totality
    ("abelian", "vlo", "--first", "(1,0)", "--second", "(1,0,0);(0,1,0);(0,0,1)"),
    # a stray separator is not dropped
    ("abelian", "vlo", "--first", "(√2,,1)", "--second", "(√2,1)"),
    ("abelian", "sign", "--flag", "(1,0);;(0,1)", "--vector", "(1,1)"),
    ("abelian", "sign", "--flag", "(,1,0)", "--vector", "(1,1)"),
    ("free", "sign", "--word", "x^2^3"),
])
def test_usage_errors_exit_two(capsys, argv):
    start = time.perf_counter()
    rc, out = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert out[0].startswith("usage error: ")


@pytest.mark.parametrize("argv", [
    ("free", "sign", "--word", "x", "--degree", "8"),
    ("free", "witness", "--probe", "swap", "--degree", "6"),
    ("klein", "kernel", "--m-bound", "2", "--radius", "8"),
    ("lospace", "star", "--group", "z2", "--matrix", "[[2,0],[0,2]]", "--bound", "8"),
    ("braid", "sign", "--strands", "4", "--word", "1 2 -1", "--budget", "5"),
    ("braid", "compare", "--strands", "4", "--left", "1", "--right", "2", "--budget", "5"),
    ("braid", "least", "--strands", "4", "--budget", "5"),
    ("lospace", "star", "--group", "z3", "--matrix", "[[2,0,0],[0,2,0],[0,0,2]]",
     "--radius", "1000"),
    ("lospace", "star", "--group", "f2", "--probe", "swap", "--radius", "40"),
    ("lospace", "star", "--group", "klein", "--aut", "1,-1,0", "--radius", "100000"),
    ("braid", "least", "--strands", "4", "--radius", "6"),
    ("braid", "least", "--strands", "1000", "--radius", "2"),
    ("braid", "least", "--strands", "3", "--ordering", "1", "--radius", "4"),
    ("ext", "least", "--radius", "400"),
    ("ext", "least", "--radius", "100000000"),
])
def test_removed_options_are_rejected(capsys, argv):
    rc, out = run(capsys, *argv)
    assert (rc, out) == (2, [f"usage error: unrecognized arguments: {' '.join(argv[-2:])}"])


def test_computational_errors_exit_one(capsys):
    rc, out = run(capsys, "braid", "reduce", "--strands", "3",
                  "--word", "1 2 -1", "--budget", "0")
    assert rc == 1
    assert out == ["error: BudgetExceededError: "
                   "handle reduction budget of 0 reductions exhausted"]
    rc, out = run(capsys, "lospace", "enum", "--group", "z2", "--radius", "50")
    assert rc == 1
    assert out[0].startswith("error: SizeLimitError: ")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv,code", [
    (("free", "witness", "--probe", "inner", "--radius", "400"), 1),
    (("ext", "verify", "--radius", "100000000"), 1),
    (("klein", "orderings", "--radius", "100000"), 1),
    (("free", "witness", "--probe", "swap", "--radius", "40"), 1),
    (("ext", "verify", "--radius", "3000"), 1),
    (("klein", "orderings", "--radius", "3000"), 1),
    (("lospace", "separate", "--group", "klein", "--first", "++", "--second", "+-",
      "--radius", "100000000"), 1),
    (("lospace", "separate", "--group", "klein", "--first", "++", "--second", "++",
      "--radius", "3000"), 1),
    (("free", "sign", "--word", "x", "--rank", "100000000"), 2),
    (("braid", "least", "--strands", "100000"), 2),
    (("braid", "sign", "--strands", "100000", "--word", "1"), 2),
    (("klein", "kernel", "--m-bound", "100000000"), 2),
    (("lospace", "extend", "--group", "z2", "--radius", "1", "--radius2", "2",
      "--max-results", "0"), 2),
    (("braid", "sign", "--strands", "3", "--word", "1", "--budget", "5"), 2),
    (("braid", "sign", "--strands", "3"), 2),
    (("free", "witness", "--probe", "nope"), 2),
])
def test_refusals_are_quick_under_an_address_space_limit(argv, code):
    """Oversized balls, strand counts and ranks, and a result cap below 1,
    are refused before any large structure is built, and an unrecognized
    option, a missing one and an invalid choice print their usage error on
    stdout: under a 2 GB address-space limit each run ends within 2 s with
    an error line."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ordlib.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_address_space)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == code
    assert "Traceback" not in proc.stdout + proc.stderr
    prefix = "error: SizeLimitError: " if code == 1 else "usage error: "
    assert proc.stdout.startswith(prefix)


def test_repeated_runs_print_identical_text(capsys):
    first = run(capsys, "klein", "orderings", "--radius", "2")
    second = run(capsys, "klein", "orderings", "--radius", "2")
    assert first == second


@pytest.mark.parametrize("argv", [
    ("ext", "verify", "--radius", "-1"),
    ("lospace", "enum", "--group", "z2", "--radius", "-2"),
])
def test_negative_radius_is_a_usage_error(argv):
    proc = subprocess.run([sys.executable, "-m", "ordlib.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout == "usage error: radius must be non-negative\n"


@pytest.mark.parametrize("argv", [
    ("lospace", "enum", "--group", "klein", "--radius", "100000"),
    ("lospace", "enum", "--group", "f2", "--radius", "13"),
    ("lospace", "enum", "--group", "z3", "--radius", "200"),
    ("lospace", "enum", "--group", "z3", "--radius", "1000000"),
    ("lospace", "extend", "--group", "z2", "--radius", "2", "--radius2", "5000"),
    # under the 5,000-element ball cap, but over the 1,000-element cone cap
    ("lospace", "enum", "--group", "z", "--radius", "2400"),
    ("lospace", "enum", "--group", "f2", "--radius", "6"),
    ("lospace", "enum", "--group", "klein", "--radius", "49"),
    ("lospace", "extend", "--group", "z", "--radius", "1", "--radius2", "2400"),
])
def test_oversized_cone_balls_are_refused_before_they_are_built(argv):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ordlib.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout.startswith("error: SizeLimitError: ")


def test_lospace_refusals_name_their_cap(capsys):
    """A ball over 5,000 elements is refused as it is walked; one under
    that but over 1,000 elements is refused by the cone search."""
    rc, out = run(capsys, "lospace", "enum", "--group", "klein", "--radius", "100000")
    assert (rc, out) == (1, ["error: SizeLimitError: ball(100000) of Klein "
                             "has more than 5000 elements"])
    rc, out = run(capsys, "lospace", "enum", "--group", "z", "--radius", "2400")
    assert (rc, out) == (1, ["error: SizeLimitError: ball(2400) of Z^1 has more "
                             "than 1000 elements, too many for a cone search"])


# Values the argv fuzz draws from: valid ones, malformed ones, and values
# that once crashed or stalled the command (huge exponents and fields, long
# words, negative radii, oversized radii, strand counts and ranks).  Radii
# that build a ball stay small where it grows fast; the oversized ones are
# refused before any ball is built.
_WORDS = ["x y x^-1 y^-1", "xyX", "x^-1 y", "1 2 -1", "", "1", "q", "x^",
          "x^99999999999", "x^1000001", "3 1", "0", "y^-3 x^2 y^3",
          " ".join(["x y"] * 400), "x*y", "x^-0", "x^2^3"]
_BRAID_WORDS = ["1 2 -1", "-1 2", "", "0", "5", "x", "1,-3", "2,2,-1",
                "1 3 2 3 -2 -3 -2 -1", " ".join(["1 2"] * 200)]
_MATRICES = ["[[1,2],[1,1]]", "[[3,0],[0,2]]", "[[2,0],[0,2]]",
             "[[0,0],[0,0]]", "[[1,1],[0,1]]", "[[0,1],[1,1]]", "[[1,2]",
             "[[a,b],[c,d]]", "[[1/2,0],[0,1]]", "[[1,0,0],[0,2,0],[0,0,3]]",
             "[[1,2],[3]]", "[[-1,0],[0,-1]]", "[[1,0],[0,1/0]]"]
_FLAGS = ["(1,0);(0,1)", "(√2,1)", "(-√2,1)", "(sqrt2,1)", "(1+√2,1)",
          "(√3,1)", "(√5,1)", "(1,1/1000);(0,1)", "(0,0)", "(1,", "",
          "(2,0);(0,2)", "(1,0,0);(0,1,0);(0,0,1)", "(3/2√2,1)", "(√4,1)",
          "(1/0√2,1)", "(1/1000+√2,1)", "(1,0,0,0);(0,1,0,0);(0,0,1,0);(0,0,0,1)",
          "(1,0,0,0);(0,1,0,0);(0,0,1,1/1000);(0,0,0,1)", "(√2,,1)",
          "(1,0);;(0,1)"]
# rank-2 flags of d = 2, the nudged ones among them, and valid rank-2
# sublattice bases: a run drawn from these reaches the vlo witness walk
_VLO_FLAGS = ["(1,0);(0,1)", "(0,1);(1,0)", "(√2,1)", "(-√2,1)", "(1+√2,1)",
              "(3/2√2,1)", "(1,1/1000);(0,1)", "(1/1000+√2,1)"]
_VLO_BASES = ["[[3,1],[1,2]]", "[[1,0],[0,1]]", "[[2,0],[0,3]]", "[[1,1],[0,2]]",
              "[[2,1],[1,1]]"]
_VECTORS = ["(1,1)", "(0,-3)", "(1,-2)", "(√2,1)", "()", "(1,2,3)", "(x,1)",
            "(1/0,1)"]
_D = ["2", "3", "5", "1", "0", "-7", "4", str(10**18 - 11), "1000000007", "x"]
_RADII = ["-3", "-1", "0", "1", "2", "3", "x", ""]
_INTS = ["-2", "0", "1", "2", "3", "x"]
_SIGNS = ["1", "-1", "0", "2", "x"]
_HUGE_RADII = ["400", "3000", "100000000"]
_HUGE_STRANDS = ["1001", "100000"]

_COMMANDS = [
    (("braid", "sign"), {"--strands": ["2", "3", "4", "0", "x"] + _HUGE_STRANDS,
                         "--word": _BRAID_WORDS,
                         "--ordering": ["dehornoy", "flip", "1", "2", "9", "x"],
                         "--budget": ["0", "-5", "100", "x"]}),
    (("braid", "compare"), {"--strands": ["3", "4", "1"] + _HUGE_STRANDS,
                            "--left": _BRAID_WORDS,
                            "--right": _BRAID_WORDS,
                            "--ordering": ["dehornoy", "flip", "2"]}),
    (("braid", "reduce"), {"--strands": ["3", "4", "-1"] + _HUGE_STRANDS,
                           "--word": _BRAID_WORDS,
                           "--budget": ["0", "5", "-5"]}),
    (("braid", "least"), {"--strands": ["2", "3", "4", "1"] + _HUGE_STRANDS,
                          "--ordering": ["dehornoy", "flip", "1", "3"]}),
    (("klein", "orderings"), {"--radius": _RADII + ["6"] + _HUGE_RADII}),
    (("klein", "kernel"), {"--m-bound": ["-1", "0", "1", "3", "50", "x", "100000000"]}),
    (("klein", "witness"), {"--eps": _SIGNS, "--delta": _SIGNS, "--m": _INTS}),
    (("abelian", "sign"), {"--flag": _FLAGS, "--vector": _VECTORS, "--d": _D}),
    (("abelian", "eigen"), {"--matrix": _MATRICES, "--d": _D}),
    (("abelian", "star"), {"--matrix": _MATRICES}),
    (("abelian", "vlo"), {"--first": _FLAGS, "--second": _FLAGS,
                          "--basis1": _MATRICES, "--basis2": _MATRICES,
                          "--d": _D}),
    (("abelian", "vlo"), {"--first": _VLO_FLAGS, "--second": _VLO_FLAGS,
                          "--basis1": _VLO_BASES, "--basis2": _VLO_BASES}),
    (("free", "sign"), {"--word": _WORDS,
                        "--rank": ["1", "2", "3", "0", "x", "1001", "100000000"],
                        "--ordering": ["series", "nclex-x", "nclex-y", "nope"]}),
    (("free", "witness"), {"--probe": ["swap", "invert", "shear", "inner", "nope"],
                           "--radius": _RADII + _HUGE_RADII}),
    (("ext", "build"), {"--target": ["g", "klein", "x"]}),
    (("ext", "verify"), {"--radius": _RADII[:6] + _HUGE_RADII}),
    (("ext", "least"), {}),
    (("lospace", "enum"), {"--group": ["z", "z2", "z3", "klein", "f2", "nope"],
                           "--radius": _RADII[:5] + _HUGE_RADII}),
    (("lospace", "extend"), {"--group": ["z", "z2", "klein", "f2"],
                             "--radius": _RADII[:5],
                             "--radius2": _RADII[:6] + _HUGE_RADII,
                             "--index": _INTS, "--max-results": _INTS}),
    (("lospace", "separate"), {"--group": ["klein", "z2"],
                               "--first": ["++", "+-", "pm", "mm", "zz", ""],
                               "--second": ["++", "-+", "mp", "x"],
                               "--radius": _RADII + ["6"] + _HUGE_RADII}),
    (("lospace", "star"), {"--group": ["z", "z2", "z3", "klein", "f2"],
                           "--matrix": _MATRICES, "--probe": ["swap", "nope"],
                           "--aut": ["1,-1,0", "-1,1,2", "1,1", "2,1,0", "x"]}),
    (("verify",), {None: ["matrix-eigen", "free-probes", "klein-kernel", "7",
                          "11", "0", "99", "nosuch", "determinism matrix-eigen"]}),
]

# Dropping an option of these runs its default, a multi-second check.
_SLOW_DEFAULTS = {("verify",), ("ext", "verify")}
# Text values also get one random character edit; numbers do not, since an
# edit can turn a radius of 3 into 33.
_TEXT_OPTIONS = {"--word", "--left", "--right", "--matrix", "--basis1",
                 "--basis2", "--flag", "--vector", "--first", "--second", "--aut"}


def _mutate(rng, text):
    """Drop, repeat or insert one character."""
    i = rng.randrange(len(text) + 1)
    edit = rng.randrange(3) if text else 2
    if edit == 0:
        return text[:i] + text[i + 1:]
    if edit == 1:
        return text[:i] + text[i:i + 1] * 2 + text[i + 1:]
    return text[:i] + rng.choice("xyXY012-^*,;()[]/√ ") + text[i:]


def test_argv_fuzz_keeps_the_exit_contract(capsys):
    """Seeded argv mutations over every subcommand: each run ends within
    2 s with main returning 0, 1 or 2; any exception leaving main, an
    argparse exit included, fails the test.  At least one run walks to a
    vlo witness."""
    rng = random.Random(6)
    codes = set()
    witnessed = False
    for _ in range(400):
        path, options = rng.choice(_COMMANDS)
        argv = list(path)
        for option, pool in options.items():
            if path not in _SLOW_DEFAULTS and rng.random() < 0.15:
                continue
            value = rng.choice(pool)
            if option in _TEXT_OPTIONS and rng.random() < 0.3:
                value = _mutate(rng, value)
            argv += value.split() if option is None else [option, value]
        start = time.perf_counter()
        rc = main(argv)
        witnessed |= capsys.readouterr().out.startswith("differ, witness")
        assert rc in (0, 1, 2), argv
        assert time.perf_counter() - start < 2.0, argv
        codes.add(rc)
    assert codes == {0, 1, 2}
    assert witnessed
