#!/usr/bin/env python3
"""Lint VALIDATION.md's counter table against the source registries.

The table between the `counter-table:begin`/`end` markers documents every
policy-visible statistic the differential harness compares. This script
re-derives that key list from the component sources (the same
`stat_names` lists the registries are populated from) and fails when the
two drift: a counter added in code must be triaged into the table (and
into `default_tolerances` in lib/diffval/diffval.ml), a counter removed
must leave it.

Run from the repository root:  python3 tools/check_validation_md.py
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def ocaml_string_list(text, anchor):
    """Extract the string-literal list assigned right after `anchor`."""
    at = text.index(anchor)
    block = text[at : text.index("]", at)]
    return re.findall(r'"([a-z_]+)"', block)


def source_keys():
    keys = []

    cache = (ROOT / "lib/cache/cache.ml").read_text()
    for name in ocaml_string_list(cache, "let stat_names"):
        keys.append(("cache." + name, "lib/cache/cache.ml"))

    driver = (ROOT / "lib/disk/driver.ml").read_text()
    # driver registers the six listed names plus queue_len (histogram)
    names = ocaml_string_list(
        driver, '"wait"; "response"; "retries"; "io_errors"'
    )
    for name in names + ["queue_len"]:
        keys.append(("driverN." + name, "lib/disk/driver.ml"))

    lfs = (ROOT / "lib/layout/lfs.ml").read_text()
    for name in ocaml_string_list(lfs, "let stat_names"):
        keys.append(("lfsN." + name, "lib/layout/lfs.ml"))

    return keys


def table_rows():
    md = (ROOT / "VALIDATION.md").read_text()
    m = re.search(
        r"<!-- counter-table:begin -->\n(.*?)<!-- counter-table:end -->",
        md,
        re.S,
    )
    if not m:
        sys.exit("VALIDATION.md: counter-table markers not found")
    rows = {}
    for line in m.group(1).splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) >= 2 and cells[0].startswith("`") and cells[0] != "`key`":
            key = cells[0].strip("`")
            rows[key] = cells[1].strip("`")
    return rows


def main():
    src = source_keys()
    doc = table_rows()
    src_keys = {k for k, _ in src}
    failures = []

    for key, path in src:
        if key not in doc:
            failures.append(f"{path} registers {key}: missing from VALIDATION.md")
        elif doc[key] != path:
            failures.append(
                f"{key}: VALIDATION.md credits {doc[key]}, source says {path}"
            )
    for key in doc:
        if key not in src_keys:
            failures.append(f"VALIDATION.md documents {key}: not found in source")

    if failures:
        print("\n".join(failures))
        sys.exit(1)
    print(f"ok: {len(src)} counters, table and registries agree")


if __name__ == "__main__":
    main()
