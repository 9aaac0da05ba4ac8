"""The acceptance battery: one test per criterion.

Each test runs the corresponding deterministic suite, checks its headline
facts, and prints a single pass/fail line with the runtime against the
stated budget.  The final criterion shells out to the installed command
twice and compares the bytes with each other and with the pinned output
in tests/data/verify_all.txt.
"""

import pathlib
import subprocess
import sys
import time

from ordlib import verify

PINNED_BATTERY = pathlib.Path(__file__).parent / "data" / "verify_all.txt"


def _run(name):
    start = time.perf_counter()
    [(_, passed, facts)] = verify.run([name])
    elapsed = time.perf_counter() - start
    return passed, facts, elapsed


def _report(capsys, number, name, ok, elapsed, budget):
    line = (f"criterion {number} ({name}): {'pass' if ok else 'FAIL'} "
            f"[{elapsed:.1f}s < {budget}s]")
    with capsys.disabled():
        print(line)
    assert ok
    assert elapsed < budget


def test_criterion_01_cone_axioms(capsys):
    passed, facts, elapsed = _run("cone-axioms")
    ok = passed and len(facts) == 18 and all(v == "pass" for v in facts.values())
    _report(capsys, 1, "cone-axioms", ok, elapsed, 120)


def test_criterion_02_least_elements(capsys):
    passed, facts, elapsed = _run("least-elements")
    ok = (passed
          and facts["B3/dehornoy"] == "s2"
          and facts["B4/dehornoy"] == "s3"
          and all(facts[f"B{n}/least[s{i}]"] == f"s{i}"
                  for n in (3, 4) for i in range(1, n)))
    _report(capsys, 2, "least-elements", ok, elapsed, 60)


def test_criterion_03_handle_robustness(capsys):
    passed, facts, elapsed = _run("handle-robustness")
    ok = (passed
          and facts["samples"] == "10000"
          and facts["triples"] == "1000"
          and facts["budget-failures"] == "0"
          and facts["trichotomy-failures"] == "0"
          and facts["triple-failures"] == "0")
    _report(capsys, 3, "handle-robustness", ok, elapsed, 120)


def test_criterion_04_braid_witnesses(capsys):
    passed, facts, elapsed = _run("braid-witnesses")
    ok = (passed
          and facts["B3/invert-gens"] == "dehornoy@s1"
          and facts["B3/inner-s1"] == "dehornoy@s1 s2^-1"
          and facts["B4/invert-gens"] == "dehornoy@s1"
          and facts["B4/inner-s1"] == "dehornoy@s1 s2^-1")
    _report(capsys, 4, "braid-witnesses", ok, elapsed, 30)


def test_criterion_05_klein_four(capsys):
    passed, facts, elapsed = _run("klein-four")
    ok = (passed
          and facts["cones(6)"] == "4"
          and facts["extendable(12)"] == "4"
          and facts["restrictions-found"] == "4"
          and facts["unmatched"] == "0"
          and facts["separated(2)"] == "yes")
    _report(capsys, 5, "klein-four", ok, elapsed, 180)


def test_criterion_06_klein_kernel(capsys):
    passed, facts, elapsed = _run("klein-kernel")
    want_kernel = ";".join(f"klein-aut[1,1,{m}]" for m in range(-3, 4))
    witnesses = [v for k, v in facts.items() if k.startswith("witness[")]
    ok = (passed
          and facts["kernel"] == want_kernel
          and facts["inner-y"] == "klein-aut[1,1,-2]"
          and len(witnesses) == 21
          and all(w.startswith("klein[++]@") for w in witnesses))
    _report(capsys, 6, "klein-kernel", ok, elapsed, 60)


def test_criterion_07_matrix_eigen(capsys):
    passed, facts, elapsed = _run("matrix-eigen")
    ok = (passed
          and facts["eigen(A)"] == "flag[(√2,1)];flag[(-√2,-1)]"
          and facts["eigen(-A)"] == "flag[(-√2,1)];flag[(√2,-1)]"
          and facts["intersection"] == "empty"
          and facts["preserves(A,+flag)"] == "yes"
          and facts["preserves(A,-flag)"] == "no")
    _report(capsys, 7, "matrix-eigen", ok, elapsed, 5)


def test_criterion_08_scalar_kernel(capsys):
    passed, facts, elapsed = _run("scalar-kernel")
    scalars = [v for k, v in facts.items() if k.startswith("scalar[")]
    others = [v for k, v in facts.items() if k.startswith("nonscalar")]
    ok = (passed
          and len(scalars) == 16 and set(scalars) == {"fixed"}
          and len(others) == 10
          and all(v.startswith("moved flag[") and "star-fails@(" in v
                  for v in others))
    _report(capsys, 8, "scalar-kernel", ok, elapsed, 60)


def test_criterion_09_free_probes(capsys):
    passed, facts, elapsed = _run("free-probes")
    ok = (passed
          and facts["series-bi-invariant(3)"] == "yes"
          and facts["swap/witness"] == "series[deg6]@x y^-1"
          and facts["invert-x/witness"] == "series[deg6]@x"
          and facts["shear/witness"] == "swap.series[deg6]@x^-1 y"
          and facts["inner-x/witness"] == "nclex[x]@x y^-1"
          and facts["inner-x/star-fails"] == "y"
          and all(facts[f"{p}/star-fails"] == "x"
                  for p in ("swap", "invert-x", "shear")))
    _report(capsys, 9, "free-probes", ok, elapsed, 120)


def test_criterion_10_extension_pipeline(capsys):
    passed, facts, elapsed = _run("extension-pipeline")
    ok = (passed
          and facts["klein-refusal"] == "witness y"
          and facts["t-conjugation(6)"] == "kept"
          and facts["axioms(4)"] == "pass"
          and facts["least(3)"] == "(((0, 0), 0), 1)"
          and facts["bi-invariance"].startswith("fails at "))
    _report(capsys, 10, "extension-pipeline", ok, elapsed, 120)


def test_criterion_11_vlo_commensuration(capsys):
    passed, facts, elapsed = _run("vlo-commensuration")
    comm = [v for k, v in facts.items() if k.startswith("comm[")]
    ok = (passed
          and facts["instance[x2]"] == "equal"
          and facts["instance[x1/2]"] == "equal"
          and len(comm) == 12
          and sum(1 for v in comm if v == "trivial") == 4
          and all(v == "trivial" or v.startswith("moves flag[") for v in comm))
    _report(capsys, 11, "vlo-commensuration", ok, elapsed, 10)


def test_criterion_12_determinism(capsys):
    command = [sys.executable, "-m", "ordlib.cli", "verify", "all"]
    start = time.perf_counter()
    runs = [subprocess.run(command, capture_output=True) for _ in range(2)]
    elapsed = time.perf_counter() - start
    ok = (runs[0].returncode == runs[1].returncode == 0
          and runs[0].stdout == runs[1].stdout
          and runs[0].stdout.endswith(b"result: pass\n")
          and runs[0].stdout == PINNED_BATTERY.read_bytes())
    line = f"criterion 12 (determinism): {'pass' if ok else 'FAIL'} [{elapsed:.1f}s]"
    with capsys.disabled():
        print(line)
    assert ok
