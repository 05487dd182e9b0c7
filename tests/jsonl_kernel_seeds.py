"""Write the seed inputs of ``tests/jsonl_kernel_harness.c``.

    python tests/jsonl_kernel_seeds.py SEEDS_FILE

The seeds are the rows of the loader tables in
``tests/test_columnar_trace.py`` (``MALFORMED`` file contents and
``ACCEPTED`` lines) as UTF-8 bytes, each written as its length (eight
bytes, little-endian) followed by the bytes.
"""

from __future__ import annotations

import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_columnar_trace import ACCEPTED, MALFORMED  # noqa: E402


def main(path: str) -> int:
    seeds = [content for content, _lineno in MALFORMED.values()] + list(ACCEPTED.values())
    with open(path, "wb") as out:
        for seed in seeds:
            data = seed.encode("utf-8")
            out.write(struct.pack("<q", len(data)) + data)
    print(f"{len(seeds)} seeds written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
