"""Regenerate bench/golden.json from the code in this checkout.

    python3 bench/record_golden.py

Records the SHA-256 of the CLI output of every runnable config in
configs/ and of the map_csv and walker_table workloads, and a sampled
reference of the eta_map_8mode values (every 40th field row and every
10th frequency column). Run it only for a change that is meant to alter
outputs, and say in that change why they changed.
"""

from __future__ import annotations

import json
import re

import common

common.pin_threads()
common.use_source_tree()

import workloads  # noqa: E402

ETA_ROW_STEP = 40
ETA_COLUMN_STEP = 10


def main() -> None:
    if any(outcome != workloads.OK for outcome in workloads.check_configs(None)):
        raise SystemExit("a golden config failed to run")
    golden = {
        "configs": {
            key: workloads.sha256_file(workloads.output_path(f"golden-{key}"))
            for key in workloads.GOLDEN_CONFIGS
        }
    }
    for name in ("map_csv", "walker_table"):
        wl = workloads.get(name)
        ctx = wl.load(0)
        if wl.check(ctx, ctx, wl.op(ctx), None) != [workloads.OK]:
            raise SystemExit(f"{name} failed to run")
        golden[name] = workloads.sha256_file(ctx.out)

    eta = workloads.get("eta_map_8mode")
    ctx = eta.load(0)
    values = eta.op(ctx)
    rows = list(range(0, values.shape[0], ETA_ROW_STEP))
    columns = list(range(0, values.shape[1], ETA_COLUMN_STEP))
    golden["eta_map_8mode"] = {
        "rows": rows,
        "columns": columns,
        "values": [[float(values[r, c]) for c in columns] for r in rows],
    }
    text = json.dumps(golden, indent=1)
    # one line per list of numbers keeps the file short and its diffs readable
    text = re.sub(r"\[\s+([-+0-9.eE,\s]+?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    common.GOLDEN.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
