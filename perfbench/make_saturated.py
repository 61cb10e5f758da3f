"""Regenerate the committed saturated inputs of the automaton-check workload.

    python3 perfbench/make_saturated.py

Each file is the pipeline output (`convert --to automaton`) for one omega
expression, with the state labels dropped, and a `# source:` header that
names the expression.  The files are committed so that the benchmark's
set-up never runs the pipeline and its inputs do not drift when the
pipeline's output changes; rerun this script only on purpose, and treat
the result as a new benchmark.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import CORPUS, HARD, SATURATED_DIR, random_oexp  # noqa: E402
from lassokit import Alphabet, omega_to_omega_automaton, parse_oexpr, write_automaton  # noqa: E402

RANDOM_COUNT = 12
GENERATION_SEED = "saturated-inputs-v1"


def expressions() -> list[str]:
    rng = random.Random(GENERATION_SEED)
    return CORPUS + HARD + [random_oexp(rng, 2) for _ in range(RANDOM_COUNT)]


def main() -> None:
    ab = Alphabet(("a", "b"))
    SATURATED_DIR.mkdir(exist_ok=True)
    for old in SATURATED_DIR.glob("*.lauto"):
        old.unlink()
    for i, text in enumerate(expressions()):
        aut = omega_to_omega_automaton(parse_oexpr(text, ab), ab)
        aut = dataclasses.replace(aut, spoke_labels=None, loop_labels=None)
        header = (
            f"# source: {text}\n"
            "# Saturated lasso automaton of the omega expression above: lassokit's\n"
            "# `convert --to automaton` output with state labels dropped, written by\n"
            "# perfbench/make_saturated.py.\n"
        )
        (SATURATED_DIR / f"sat{i:02d}.lauto").write_text(header + write_automaton(aut))
        print(f"sat{i:02d}.lauto {aut.n_spoke}+{aut.n_loop} states  {text}")


if __name__ == "__main__":
    main()
