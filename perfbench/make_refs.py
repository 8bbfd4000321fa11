"""Regenerate ``refs.json``: reference digests of every exhaustive-cold grid.

The references come from the serial interpreter (the reference engine),
so a benchmark pass under the CLI defaults (threads, compiled kernels)
checks bit-identity across execution planes and backends.  Run from the
root of a checkout::

    python3 perfbench/make_refs.py

It covers every input variant the ``--seed`` argument can select.
"""

from __future__ import annotations

import json
import sys

from common import SPEC, import_repro, kernel_specs, spec_label
from exhaustive_cold import REFS_PATH, SECTION, grid_digest


def main() -> int:
    import_repro()
    from repro import (CampaignConfig, exhaustive_boundary, kernels,
                       run_campaign)

    refs: dict[str, str] = {}
    for variant in range(SPEC["variants"]):
        for name, params in kernel_specs(SECTION, variant):
            label = spec_label(name, params)
            if label in refs:
                continue
            wl = kernels.build(name, **params)
            grid = run_campaign(
                wl, CampaignConfig(**SECTION["reference_campaign"])).exhaustive
            refs[label] = grid_digest(grid, exhaustive_boundary(grid))
            print(label, refs[label], flush=True)
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
