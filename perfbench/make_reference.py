"""Write perfbench/reference.json: the answers the benchmark's correctness
gate pins, computed by the ordlib sources in ``src/``.

    python3 perfbench/make_reference.py

Run it only on a commit whose answers are trusted (the battery passes and
the tests pass); the benchmark then refuses any run that answers otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json

import battery
import braid_words
import exact_mix
from run import HERE, Runner, import_ordlib
from spans import untraced


def main() -> None:
    m = import_ordlib()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = m.cli.main(["verify", "all"])
    if rc != 0:
        raise SystemExit("the battery fails; refusing to pin its facts")
    ref = {
        "battery_facts": battery.facts(buf.getvalue()),
        "braid_batch_sha256": braid_words.reference_digests(braid_words.setup(m),
                                                           Runner(m, untraced)),
        "series_corpus_sha256": exact_mix.series_digest(exact_mix.setup(m)),
        "exact_answers": exact_mix.reference_answers(m),
    }
    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
