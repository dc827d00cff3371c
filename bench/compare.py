#!/usr/bin/env python3
"""Compare two results of ``bench/run.py --out``::

    python bench/compare.py A.json B.json

A is the base (the parent commit, or the first of two runs of one commit),
B the candidate. For every (workload, end-to-end metric) pair it prints the
change of B against A, the bound BENCHMARK.json fixes for the metric, and a
verdict:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``improved``   — every run of B reads better than every run of A, and
  B's median is better by more than the spread between A's own runs;
* ``unresolved`` — the spread between runs is wider than the bound, so the
  pair cannot tell (unless every run of B reads better than every run of A);
* ``unchanged``  — anything else.

The simulated-time metrics and ``failed_share`` repeat exactly at a fixed
seed, so for them any difference is a verdict: worse is ``regressed``,
better is ``improved``. Each workload has its own rows and every ratio is
printed with its base. Exit code 1 if anything regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
from run import SUITE_METRICS, load_spec  # noqa: E402


def worsening(base: float, value: float, better: str) -> float:
    """Signed relative change of ``value`` against ``base``: positive is
    worse. A zero base gives 0 for no change and ±inf otherwise."""
    change = value - base if better == "lower" else base - value
    if base:
        return change / abs(base)
    return 0.0 if change == 0 else (1.0 if change > 0 else -1.0) * float("inf")


def spread_of(entry: dict) -> float:
    samples = entry.get("samples")
    if not samples or len(samples) < 2:
        return 0.0
    return stats.quartile_spread(samples)


def all_better(base: dict, candidate: dict, better: str) -> bool:
    """Whether every run of the candidate reads better than every run of
    the base."""
    a, b = base.get("samples"), candidate.get("samples")
    if not a or not b:
        return False
    return max(b) < min(a) if better == "lower" else min(b) > max(a)


def verdict(base: dict, candidate: dict, better: str,
            bound: float | None) -> tuple[str, float, float]:
    """``(verdict, worsening, spread)`` for one metric of one workload.
    ``bound`` is None for the exact metrics."""
    worse = worsening(base["value"], candidate["value"], better)
    if bound is None:
        name = ("unchanged" if worse == 0
                else "regressed" if worse > 0 else "improved")
        return name, worse, 0.0
    spread = max(spread_of(base), spread_of(candidate))
    every_run_better = all_better(base, candidate, better)
    if every_run_better and -worse > spread_of(base):
        return "improved", worse, spread
    if spread > bound and not every_run_better:
        return "unresolved", worse, spread
    if worse > bound:
        return "regressed", worse, spread
    return "unchanged", worse, spread


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], dict[str, int]]:
    """The report lines and the count of each verdict."""
    declared = {m["name"]: (m["better"], m["bound"])
                for m in spec["end_to_end"]}
    declared.update({name: (better, bound) for name, (_unit, better, bound)
                     in SUITE_METRICS.items()})
    lines: list[str] = []
    tally: dict[str, int] = {}
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            lines.append(f"{workload}: only in A")
            continue
        lines.append(f"== {workload}")
        base_run, cand_run = a["workloads"][workload], b["workloads"][workload]
        for name, (better, bound) in declared.items():
            base = base_run["end_to_end"].get(name)
            cand = cand_run["end_to_end"].get(name)
            if base is None or cand is None:
                lines.append(f"  {name:<18} missing from "
                             f"{'A' if base is None else 'B'}")
                tally["regressed"] = tally.get("regressed", 0) + 1
                continue
            result, worse, spread = verdict(base, cand, better, bound)
            tally[result] = tally.get(result, 0) + 1
            limit = "exact" if bound is None else f"{bound:.0%}"
            change = -worse if better == "higher" else worse
            lines.append(
                f"  {name:<18} {cand['value']:>12.6g} {base['unit']:<5}"
                f" {change:+8.2%} of {base['value']:<12.6g}"
                f" ({better} is better)  bound {limit:>5}"
                f"  spread {spread:6.2%}  {result}")
    return lines, tally


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    if a.get("seed") != b.get("seed"):
        print(f"note: seeds differ (A {a.get('seed')}, B {b.get('seed')}); "
              f"the exact metrics will differ with them")
    lines, tally = compare(a, b, load_spec())
    print("\n".join(lines))
    print("verdicts: " + ", ".join(f"{count} {name}"
                                   for name, count in sorted(tally.items())))
    return 1 if tally.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
