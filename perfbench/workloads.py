"""The benchmark's workloads: what each item is, how it runs, how its
answer is checked, and what it produced.

An item runs in a child process forked from the benchmark's parent (see
run.py), so it starts from the program state right after import.  Items
call lassokit through module attributes (`omega.omega_to_omega_automaton`
rather than a name imported here), so the traced run's wrappers see them.

Item outcomes:
  ok     the operation answered;
  cap    the operation stopped at a documented resource cap
         (StateLimitError, which the CLI reports with exit code 2);
  error  anything else that escaped: CertificationError, RecursionError or
         an unexpected exception.  These are failures of the program.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import defaultdict
from dataclasses import dataclass, field

import inputs
from lassokit import cli, lassoaut, lassoexp, lassos, langops, omega, ratexp, syntax
from lassokit.errors import StateLimitError

AB = ratexp.Alphabet(("a", "b"))
# Lassos with |spoke| <= 4 and 1 <= |loop| <= 4, on which the oracles compare
# automata; extracted expressions, which run to thousands of characters,
# are compared on the smaller box.
ORACLE_BOX = (4, 4)
EXTRACT_BOX = (3, 3)


@dataclass(frozen=True)
class Item:
    kind: str
    text: str
    label: str = ""


@dataclass
class Workload:
    name: str
    items: list[Item]
    # True: one child per item.  False: one child runs every item in order,
    # so module-level caches carry from item to item within a pass.
    fork_per_item: bool
    params: dict = field(default_factory=dict)

    def execute(self, item: Item) -> tuple[str, str]:
        """Run one item; return (outcome, output text)."""
        try:
            return "ok", _OPERATIONS[item.kind](item)
        except StateLimitError as e:
            return "cap", f"StateLimitError: {e}"
        except Exception as e:  # CertificationError, RecursionError or a bug: the item failed, the run goes on
            return "error", f"{type(e).__name__}: {e}"


# ---------------------------------------------------------------------------
# operations, one per item kind; each mirrors a CLI command


def _convert(item: Item) -> str:
    # `lassokit convert --to automaton --alphabet ab --oexp TEXT`
    expr = omega.parse_oexpr(item.text, AB)
    return lassoaut.write_automaton(omega.omega_to_omega_automaton(expr, AB))


def _saturated_verdict(text: str) -> tuple[bool, str]:
    # `lassokit saturated FILE`: last line `yes` or `no ACCEPTED REJECTED`
    sat, pair = lassoaut.is_saturated(lassoaut.read_automaton(text))
    return sat, "yes" if sat else f"no {pair[0]} {pair[1]}"


def _check(item: Item) -> str:
    # `saturated FILE`, then `extract-omega FILE` when saturated, else `extract FILE`
    sat, verdict = _saturated_verdict(item.text)
    aut = lassoaut.read_automaton(item.text)
    if sat:
        return verdict + "\n" + omega.oexp_to_str(lassoaut.extract_omega_expr(aut))
    return verdict + "\n" + lassoexp.lexp_to_str(lassoaut.extract_expr(aut))


def _check_only(item: Item) -> str:
    return _saturated_verdict(item.text)[1]


# Bounds of `enumerate`: large enough that membership, not argument
# parsing (about 1.75 ms per call), takes most of an item's time, and small
# enough that a 30 s run holds a dozen or more passes, so each item's least
# time is taken over that many runs spread across the run.
ENUM_MAXLEN = 10
ENUM_BOX = (4, 4)
_BOX_ARGS = ["--max-spoke", str(ENUM_BOX[0]), "--max-loop", str(ENUM_BOX[1])]
ENUM_BOUNDS = {"rexp": ["--maxlen", str(ENUM_MAXLEN)], "lexp": _BOX_ARGS, "oexp": _BOX_ARGS}


def _enumerate(item: Item) -> str:
    argv = ["enumerate", f"--{item.kind}", item.text, "--alphabet", "ab", *ENUM_BOUNDS[item.kind]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        message = err.getvalue().strip()
        if "exceeded" in message:
            raise StateLimitError(message)
        raise RuntimeError(f"exit code {code}: {message}")
    return out.getvalue()


_OPERATIONS = {
    "convert": _convert,
    "check": _check,
    "check-only": _check_only,
    "rexp": _enumerate,
    "lexp": _enumerate,
    "oexp": _enumerate,
}


# ---------------------------------------------------------------------------
# workload definitions
#
# The draw (which items, of which sizes) is fixed by the draw seed: DRAW_SEED,
# unless a run asks for another with `--draw`.  The run's `--seed` only
# shuffles the item order of the workloads that fork one child per item,
# where the order changes no item's work.  In membership-enum the order
# decides which item warms the caches for which, so it is part of the draw.
# No item is ever dropped for its outcome or its time; the counts below
# were chosen for run length only.

DRAW_SEED = 1
CONVERT_RANDOM = {2: 24, 3: 16}  # expression depth -> items
CHECK_SIZES = [  # (count, loop states, operation) of random lasso automata, 2-4 spoke states
    (40, (3, 6), "check"),  # saturated, then extract / extract-omega
    (10, (20, 24), "check-only"),  # saturated only
]
# kind -> (expression depth, items, distinct expressions).  The other items
# repeat one of the distinct expressions, drawn uniformly.  The repeat share
# (items whose expression an earlier item used) follows the test suite's:
# 0.40 of rational, 0.09 of lasso and 0.24 of omega membership uses, where a
# use is one (test, expression) pair (perfbench/suite_repeats.py).
ENUM_KINDS = {"rexp": (3, 30, 18), "lexp": (2, 30, 27), "oexp": (2, 30, 23)}


def _draw_rng(workload: str, draw: int) -> random.Random:
    return random.Random(f"{workload}:draw:{draw}")


def _ordered(items: list[Item], seed: int, workload: str) -> list[Item]:
    random.Random(f"{workload}:order:{seed}").shuffle(items)
    return items


def omega_convert(seed: int, draw: int = DRAW_SEED) -> Workload:
    rng = _draw_rng("omega-convert", draw)
    items = [Item("convert", t, "corpus") for t in inputs.CORPUS]
    items += [Item("convert", t, "hard") for t in inputs.HARD]
    for depth, count in CONVERT_RANDOM.items():
        items += [Item("convert", inputs.random_oexp(rng, depth), f"depth{depth}") for _ in range(count)]
    params = {"draw": draw, "random_items_by_depth": CONVERT_RANDOM}
    return Workload("omega-convert", _ordered(items, seed, "omega-convert"), True, params)


def automaton_check(seed: int, draw: int = DRAW_SEED) -> Workload:
    rng = _draw_rng("automaton-check", draw)
    saturated = inputs.saturated_inputs()
    items = [Item("check", text, name) for name, text in saturated]
    for count, (low, high), kind in CHECK_SIZES:
        for _ in range(count):
            n_spoke, n_loop = rng.randint(2, 4), rng.randint(low, high)
            items.append(Item(kind, inputs.random_automaton(rng, n_spoke, n_loop), f"{n_spoke}+{n_loop}"))
    params = {"draw": draw, "saturated_files": len(saturated), "random": CHECK_SIZES}
    return Workload("automaton-check", _ordered(items, seed, "automaton-check"), True, params)


def membership_enum(seed: int, draw: int = DRAW_SEED) -> Workload:
    rng = _draw_rng("membership-enum", draw)
    generators = {"rexp": inputs.random_rexp, "lexp": inputs.random_lexp, "oexp": inputs.random_oexp}
    items = []
    for kind, (depth, count, distinct) in ENUM_KINDS.items():
        pool: list[Item] = []
        while len(pool) < distinct:  # a text drawn twice is drawn again, so the repeat share holds
            item = Item(kind, generators[kind](rng, depth), f"pool-{kind}")
            if item not in pool:
                pool.append(item)
        items += pool + rng.choices(pool, k=count - distinct)
    rng.shuffle(items)
    params = {"draw": draw, "kinds": {k: {"depth": d, "items": n, "distinct": m} for k, (d, n, m) in ENUM_KINDS.items()},
              "distinct_items": len(set(items))}
    return Workload("membership-enum", items, False, params)


WORKLOADS = {"omega-convert": omega_convert, "automaton-check": automaton_check,
             "membership-enum": membership_enum}


# ---------------------------------------------------------------------------
# oracles and output size; these run in the parent after the timed phase


def _check_convert(item: Item, out: str, box) -> tuple[list[str], int]:
    aut = lassoaut.read_automaton(out)
    expr = omega.parse_oexpr(item.text, AB)
    bad = [l for l in box if lassoaut.accepts(aut, l) != omega.up_member(expr, l, AB)]
    problems = [f"{item.text}: automaton and Buchi oracle differ on {bad[0]}"] if bad else []
    return problems, aut.n_spoke + aut.n_loop


def _check_automaton(item: Item, out: str, box) -> tuple[list[str], int]:
    aut = lassoaut.read_automaton(item.text)
    lines = out.split("\n")
    verdict = lines[0].split()
    where = f"{item.label} ({item.kind})"
    problems = []
    if verdict[0] == "no":
        acc, rej = lassos.parse_lasso(verdict[1]), lassos.parse_lasso(verdict[2])
        if not (lassoaut.accepts(aut, acc) and not lassoaut.accepts(aut, rej) and lassos.up_equal(acc, rej)):
            problems.append(f"{where}: witness pair {acc} / {rej} is not a saturation failure")
    else:
        classes = defaultdict(set)
        for l in box:
            classes[lassos.normal_form(l)].add(lassoaut.accepts(aut, l))
        if any(len(v) > 1 for v in classes.values()):
            problems.append(f"{where}: said saturated, but equivalent lassos are accepted differently")
    if item.kind == "check-only":
        return problems, 0
    expr_text = lines[1]
    small_box = lassos.enumerate_lassos(AB, *EXTRACT_BOX)
    if verdict[0] == "yes":
        expr = omega.parse_oexpr(expr_text, AB)
        bad = [l for l in small_box if omega.up_member(expr, l, AB) != lassoaut.accepts(aut, l)]
    else:
        expr = lassoexp.parse_lexp(expr_text, AB)
        bad = [l for l in small_box if lassoexp.member_lasso_naive(expr, l) != lassoaut.accepts(aut, l)]
    if bad:
        problems.append(f"{where}: extracted expression differs from the automaton on {bad[0]}")
    return problems, len(expr_text)


def _expected_members(item: Item) -> list[str]:
    if item.kind == "rexp":
        dfa = langops.compile_dfa(syntax.parse_rexp(item.text, AB), AB)
        return [w or "''" for w in ratexp.words_up_to(AB, ENUM_MAXLEN) if langops.run_dfa(dfa, w)]
    if item.kind == "lexp":
        aut = lassoexp.compile_lasso(lassoexp.parse_lexp(item.text, AB), AB)
    else:
        aut = omega.omega_to_omega_automaton(omega.parse_oexpr(item.text, AB), AB)
    return [str(l) for l in lassos.enumerate_lassos(AB, *ENUM_BOX) if lassoaut.accepts(aut, l)]


def _check_members(item: Item, out: str, box) -> tuple[list[str], int]:
    listed = out.splitlines()
    if listed != _expected_members(item):
        return [f"enumerate --{item.kind} {item.text}: members differ from the compiled automaton"], len(listed)
    return [], len(listed)


_CHECKS = {"convert": _check_convert, "check": _check_automaton, "check-only": _check_automaton,
           "rexp": _check_members, "lexp": _check_members, "oexp": _check_members}


def verify(workload: Workload, outputs: dict[int, tuple[str, str]]) -> tuple[list[str], int]:
    """Check every answered item against its oracle.

    `outputs` maps item index to (outcome, output).  Returns the problems
    found and the workload's output size (see README.md).  Items that
    stopped at a cap or failed have no answer to check and add nothing to
    the size.  An item that occurs several times is checked once.
    """
    box = lassos.enumerate_lassos(AB, *ORACLE_BOX)
    problems: list[str] = []
    size = 0
    checked: dict[Item, tuple[list[str], int]] = {}
    for i, (outcome, out) in sorted(outputs.items()):
        if outcome != "ok":
            continue
        item = workload.items[i]
        if item not in checked:
            checked[item] = _CHECKS[item.kind](item, out, box)
            problems += checked[item][0]
        size += checked[item][1]
    return problems, size
