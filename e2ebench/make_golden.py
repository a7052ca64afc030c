"""Regenerate ``golden_repro_all.json``: the digest of ``repro run all --json``
for every seed the ``repro-all`` workload can run.

Run from the repository root::

    python3 e2ebench/make_golden.py

Regenerate only when the reproduction's results are meant to change; the
benchmark fails any run whose output no longer matches these digests.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from e2ebench.workloads import GOLDEN_FILE, GOLDEN_SEEDS, _cli  # noqa: E402


def main() -> int:
    work = ROOT / ".e2ebench_work"
    work.mkdir(exist_ok=True)
    out = work / "golden-run.json"
    digests = {}
    seconds = {}
    for seed in range(GOLDEN_SEEDS):
        started = time.perf_counter()
        code, _ = _cli(["run", "all", "--quiet", "--seed", str(seed), "--json", str(out)])
        seconds[seed] = time.perf_counter() - started
        if code != 0:
            print(f"seed {seed}: exit {code}", file=sys.stderr)
            return 1
        digests[str(seed)] = hashlib.sha256(out.read_bytes()).hexdigest()
        print(f"seed {seed}: {digests[str(seed)][:16]} {seconds[seed]:.3f}s", file=sys.stderr)
    out.unlink()
    GOLDEN_FILE.write_text(
        json.dumps({"command": "repro run all --quiet --seed S --json F", "digests": digests}, indent=1)
        + "\n"
    )
    print(f"wrote {GOLDEN_FILE} ({len(digests)} seeds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
