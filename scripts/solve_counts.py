#!/usr/bin/env python3
"""The solver's work in one verify run of each config, as a table.

Usage: python scripts/solve_counts.py CONFIG...

Runs `run_checks` on each config (its own check list, default seed) over
one solve cache, then reads the counters of every `Solution` the cache
holds, those inside a cached mollification sequence or comparison chain
included, each solve once.  Prints one row per config: the solves, the
Newton steps, the sparse LU factorizations, the lagged-LU CG iterations,
the CG solves that missed and refactored, and the summed L + U nonzeros.
These counts do not depend on the host.
Exit status 1, with an `error:` line, on a config that cannot be run.
"""

import dataclasses
import sys
from pathlib import Path

from potlab.errors import DataError
from potlab.harness import load_config
from potlab.harness.checks import SolveCache, run_checks
from potlab.solver import Solution

COLUMNS = ("solves", "newton", "LUs", "CG iters", "CG misses", "LU nnz")


def cached_solutions(cache: SolveCache) -> list[Solution]:
    """Every `Solution` a cache value is or holds in a field (a list field
    included), each object once, in cache order."""
    found = {}
    for value in cache.values():
        items = [value]
        if dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                item = getattr(value, f.name)
                items.extend(item if isinstance(item, list) else [item])
        for item in items:
            if isinstance(item, Solution):
                found.setdefault(id(item), item)
    return list(found.values())


def counts(path) -> tuple[int, ...]:
    """(solves, Newton steps, LUs, CG iterations, CG misses, L + U nonzeros)
    of one `run_checks` of the config at ``path``."""
    cache = SolveCache()
    run_checks(load_config(path), cache=cache)
    sols = cached_solutions(cache)
    return (len(sols), sum(s.iterations for s in sols), sum(s.factorizations for s in sols),
            sum(s.krylov_iterations for s in sols), sum(s.krylov_misses for s in sols),
            sum(s.lu_nnz for s in sols))


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    width = max(len("config"), *(len(Path(p).name) for p in paths))
    print(f"{'config':<{width}} " + " ".join(f"{c:>11}" for c in COLUMNS))
    for path in paths:
        try:
            row = counts(path)
        except DataError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 1
        print(f"{Path(path).name:<{width}} " + " ".join(f"{v:>11}" for v in row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
