#!/usr/bin/env python3
"""Resolve the wrap table (wraps.json) against built static archives.

For every entry whose exact mangled symbol nm reports as defined in one
of the archives, emit a -Wl,--wrap flag and turn its wrapper on; every
other entry is reported absent and its wrapper compiles out, so the
traced link never fails on a renamed or re-signatured function.

  resolve_wraps.py --table wraps.json --out DIR lib1.a lib2.a ...

writes DIR/wrap_config.h (PERFBENCH_HAVE_/SYM_/PROBE_ macros) and
DIR/wrap.rsp (linker flags, one per line).
"""

import argparse
import json
import os
import subprocess
import sys


def defined_symbols(archives):
    """Names nm lists as defined code (T/W) in any of @p archives."""
    names = set()
    for archive in archives:
        out = subprocess.run(["nm", "--defined-only", archive],
                             check=True, capture_output=True,
                             text=True).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1] in ("T", "W"):
                names.add(parts[2])
    return names


def resolve(wraps, symbols):
    """Split @p wraps into (present, absent) by symbol membership."""
    present = [w for w in wraps if w["symbol"] in symbols]
    absent = [w for w in wraps if w["symbol"] not in symbols]
    return present, absent


def config_header(wraps, present):
    names = {w["macro"] for w in present}
    lines = ["// Generated by perfbench/tools/resolve_wraps.py."]
    for w in wraps:
        m = w["macro"]
        lines.append(f"#define PERFBENCH_HAVE_{m} {int(m in names)}")
        lines.append(f"#define PERFBENCH_SYM_{m} \"{w['symbol']}\"")
        lines.append(f"#define PERFBENCH_PROBE_{m} \"{w['probe']}\"")
    return "\n".join(lines) + "\n"


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--table", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("archives", nargs="+")
    args = ap.parse_args()

    with open(args.table) as f:
        wraps = json.load(f)["wraps"]
    present, absent = resolve(wraps, defined_symbols(args.archives))
    for w in absent:
        print(f"resolve_wraps: {w['probe']} absent ({w['symbol']})",
              file=sys.stderr)

    os.makedirs(args.out, exist_ok=True)
    write(os.path.join(args.out, "wrap_config.h"),
                     config_header(wraps, present))
    write(os.path.join(args.out, "wrap.rsp"),
                     "".join(f"-Wl,--wrap={w['symbol']}\n" for w in present))
    return 0


if __name__ == "__main__":
    sys.exit(main())
