#!/usr/bin/env python3
"""Simulates a mid-campaign kill of a runner artifact store.

Usage: kill_store.py STORE_DIR

Truncates STORE_DIR/journal.jsonl to its first half and deletes every
artifact under STORE_DIR/artifacts/<kind>/ that no kept journal line
names. The runner writes an artifact before its journal line, so this is
strictly harsher than any real kill point: a resumed run must rebuild
everything past the cut and still produce byte-identical output.
"""

import json
import os
import sys


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit("usage: kill_store.py STORE_DIR")
    store = sys.argv[1]
    journal = os.path.join(store, "journal.jsonl")
    lines = open(journal).read().splitlines()
    keep = lines[: len(lines) // 2]
    open(journal, "w").write("".join(line + "\n" for line in keep))
    kept = {(json.loads(line)["kind"], json.loads(line)["digest"]) for line in keep}
    removed = 0
    artifacts = os.path.join(store, "artifacts")
    for kind in os.listdir(artifacts):
        d = os.path.join(artifacts, kind)
        for name in os.listdir(d):
            if (kind, name.removesuffix(".json")) not in kept:
                os.remove(os.path.join(d, name))
                removed += 1
    print(f"killed: kept {len(keep)}/{len(lines)} journal lines, removed {removed} artifacts")


if __name__ == "__main__":
    main()
