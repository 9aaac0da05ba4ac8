"""cone-search: ``ord lospace``-style queries, each on a freshly built group.

Why: it runs ``core.ball_data`` and ``product_table``, the solver in
``lospace``, and each group's ``multiply`` and ``locate``; it uses ``braid``
for equality through ``locate``/``same``, not for signs.  A command-line
call pays the ball and product-table build, so each query pays it too.
The seed only permutes the query order: the queries are fixed.
"""

from __future__ import annotations

from common import Op, rng_for

NAME = "cone-search"
WHY = ("ball and product-table builds, the cone solver, and braid equality "
       "through locate/same, per fresh group")
BATCH_SECONDS = 7.5

# (group, radius, number of partial cones the reference pins)
QUERIES = (
    ("klein", 8, 4), ("klein", 12, 4), ("klein", 16, 4),
    ("z2", 5, 40), ("z2", 8, 88),
    ("z3", 3, 336), ("z3", 4, 1248),
    ("f2", 3, 216), ("f2", 4, 15768),
    ("b3", 4, 240), ("b3", 5, 2340),
    ("b4", 3, 4592),
)
# Klein cones on ball(6), each extended to ball(12) with max_results=1:
# all four extend.
EXTEND = ("klein", 6, 12, 4)


def setup(m) -> dict:
    lattice, ext, magnus, braid = m.lattice, m.extensions, m.magnus, m.braid
    return {"m": m, "wrap": None, "groups": {
        "klein": ext.KleinGroup,
        "z2": lambda: lattice.LatticeGroup(2),
        "z3": lambda: lattice.LatticeGroup(3),
        "f2": lambda: magnus.FreeGroup(2),
        "b3": lambda: braid.BraidGroup(3),
        "b4": lambda: braid.BraidGroup(4),
    }}


def _new_group(h, name):
    group = h["groups"][name]()
    if h["wrap"] is not None and name.startswith("b"):
        # braid equality is decided inside locate; time it where it happens
        group.same = h["wrap"]("braid.same", group.same)
    return group


def _enumerate(call, h, name, radius):
    group = _new_group(h, name)
    data = call("core.ball_data", group.ball_data, radius)
    table = call(f"core.product_table.{name}", data.product_table)
    cones = call("lospace.enumerate", h["m"].lospace.enumerate_partial_cones, group, radius)
    return {"elements": len(data.elements), "cells": sum(map(len, table)),
            "cones": len(cones)}


def _extend(call, h, name, r1, r2, index):
    group = _new_group(h, name)
    cones = call("lospace.enumerate", h["m"].lospace.enumerate_partial_cones, group, r1)
    found = call("lospace.extend", h["m"].lospace.extend_partial_cone, cones[index], group,
                 r2, max_results=1)
    return {"cones": len(cones), "completions": len(found)}


def batches(seed: int, n_batches: int, h) -> list[list[Op]]:
    rng = rng_for(NAME, seed, "order")
    out = []
    for _ in range(n_batches):
        ops = [Op(f"enumerate:{g}:{r}", _enumerate, (h, g, r),
                  {"expect": c, "group": g, "radius": r}) for g, r, c in QUERIES]
        name, r1, r2, count = EXTEND
        ops += [Op("extend", _extend, (h, name, r1, r2, i), {"expect": count})
                for i in range(count)]
        rng.shuffle(ops)
        out.append(ops)
    return out


def check(done, h, ref) -> tuple[list[str], dict]:
    errors: list[str] = []
    counts = {"core.ball_data.elements": 0, "core.product_table.cells": 0,
              "lospace.enumerate.cones": 0, "lospace.extend.completions": 0,
              "lospace.extend.hits": 0, "lospace.extend.hit_base": 0}
    for op, out, _ in done:
        if not isinstance(out, dict):
            errors.append(f"{op.kind} {op.args[1:]}: {out!r}")
            continue
        if op.kind.startswith("enumerate"):
            counts["core.ball_data.elements"] += out["elements"]
            counts["core.product_table.cells"] += out["cells"]
            counts["lospace.enumerate.cones"] += out["cones"]
            if out["cones"] != op.info["expect"]:
                errors.append(f"{op.info['group']} r={op.info['radius']}: {out['cones']} cones, "
                              f"expected {op.info['expect']}")
        else:
            counts["lospace.enumerate.cones"] += out["cones"]
            counts["lospace.extend.completions"] += out["completions"]
            counts["lospace.extend.hit_base"] += 1
            counts["lospace.extend.hits"] += out["completions"] > 0
            if out["cones"] != op.info["expect"] or out["completions"] != 1:
                errors.append(f"klein 6->12 cone {op.args[-1]}: {out}, expected "
                              f"{op.info['expect']} cones and one completion")
    return errors, counts
