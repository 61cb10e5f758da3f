"""Repeat share of the membership-oracle traffic of lassokit's test suite.

    PYTHONPATH=src:perfbench python3 -m pytest -q -p suite_repeats tests

A pytest plugin.  It wraps `member_naive`, `member_lasso_naive` and
`up_member` in every lassokit module that binds them and records the
expression of each outermost call (a call made inside another of the
three is part of that call).  A *use* is one (test, expression) pair; a
use repeats when an earlier test used the same expression.  At the end it
prints, per oracle, the uses, the distinct expressions and the share of
uses that repeat.  membership-enum's repeat shares (ENUM_KINDS in
workloads.py) are set from these figures.
"""

from __future__ import annotations

import sys

FUNCTIONS = {"ratexp.member_naive": "rexp", "lassoexp.member_lasso_naive": "lexp", "omega.up_member": "oexp"}

_uses: dict[str, dict[tuple[str, str], None]] = {kind: {} for kind in FUNCTIONS.values()}
_test = ["?"]
_depth = [0]


def _wrap(fn, kind: str):
    uses = _uses[kind]

    def wrapper(expr, *args, **kwargs):
        if _depth[0] == 0:
            uses.setdefault((_test[0], repr(expr)), None)
        _depth[0] += 1
        try:
            return fn(expr, *args, **kwargs)
        finally:
            _depth[0] -= 1

    return wrapper


def pytest_configure(config):
    import lassokit  # noqa: F401  (loads every lassokit module)

    modules = [m for name, m in sys.modules.items() if name.startswith("lassokit")]
    for qualified, kind in FUNCTIONS.items():
        mod_name, func_name = qualified.split(".")
        fn = getattr(sys.modules[f"lassokit.{mod_name}"], func_name)
        wrapper = _wrap(fn, kind)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)


def pytest_runtest_setup(item):
    _test[0] = item.nodeid


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line("membership uses (test, expression) of the test suite:")
    for kind, uses in _uses.items():
        seen, repeats = set(), 0
        for _test_id, expr in uses:
            repeats += expr in seen
            seen.add(expr)
        share = repeats / len(uses) if uses else 0.0
        terminalreporter.write_line(
            f"  {kind}: {len(uses)} uses, {len(seen)} distinct expressions, repeat share {share:.3f}")
