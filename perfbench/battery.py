"""battery: the acceptance battery through the ``ord`` front end, in process.

Why: it is the end-to-end number of ``ord verify all``.  The operation is
``ordlib.cli.main(["verify", "all"])`` with stdout captured: the same work as
``ord verify all`` without its subprocess determinism check.  The battery is
seeded inside ordlib, so the workload seed changes nothing; the work is fixed.

The traced run issues the 11 suites one by one instead, in catalog order
(``ordlib.cli.main(["verify", <suite>])``), so that each suite gets a span.
Untraced, one operation per suite would make ``op_p50_ms`` the time of a
0.2-second suite, which moves by up to 40% from run to run on a shared
2-core host; the whole battery is the latency a user of ``ord verify all``
waits on.
"""

from __future__ import annotations

import contextlib
import io

from common import Op

NAME = "battery"
WHY = "the end-to-end number of ord verify all"
# One pass of the battery; it runs once per run whatever --seconds says.
BATCH_SECONDS = float("inf")


def setup(m) -> dict:
    return {"m": m, "suites": m.verify.suite_names(), "wrap": None}


def _verify(call, h, site, name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = call(site, h["m"].cli.main, ["verify", name])
    return rc, buf.getvalue()


def batches(seed: int, n_batches: int, h) -> list[list[Op]]:
    if h["wrap"] is None:
        return [[Op("verify-all", _verify, (h, "verify.all", "all"))]]
    return [[Op(name, _verify, (h, f"verify.{name}", name)) for name in h["suites"]]]


def facts(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def check(done, h, ref) -> tuple[list[str], dict]:
    """Every suite passes and every seed fact keeps its value."""
    errors: list[str] = []
    got: dict = {}
    for op, out, _ in done:
        if not (isinstance(out, tuple) and out[0] == 0):
            errors.append(f"{op.kind}: exit {out[0] if isinstance(out, tuple) else out!r}")
            continue
        got.update(facts(out[1]))
    for name in h["suites"]:
        if got.get(name) != "pass":
            errors.append(f"suite {name}: {got.get(name)}")
    for key, value in ref["battery_facts"].items():
        if key != "result" and got.get(key) != value:
            errors.append(f"fact {key}: {got.get(key)!r}, reference value {value!r}")
    return errors, {"verify.facts": len(got)}
