"""Regenerate reference.json: the first rows of every workload at the
reference seed, computed by the checkout's source.

    python3 bench/make_reference.py

Run it only when a change is meant to move the numbers, and say so in
the change; the gate compares every reference-seed run against it.
"""

import json

import source


def main() -> None:
    source.use_checkout_source()
    import check

    rows = check.reference_rows()
    # one row per line, so a change to the numbers reads as a line diff
    blocks = [
        f'  {json.dumps(name)}: [\n' + ",\n".join(f"   {json.dumps(r)}" for r in wl_rows) + "\n  ]"
        for name, wl_rows in rows.items()
    ]
    text = (f'{{"seed": {check.REFERENCE_SEED}, "tolerance": {check.REFERENCE_TOL!r}, "rows": {{\n'
            + ",\n".join(blocks) + "\n}}\n")
    check.REFERENCE.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
