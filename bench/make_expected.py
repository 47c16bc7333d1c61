"""Write ``expected.json``: the corpus calls of ``oneshot-cli`` and their stdout digests.

    python3 bench/make_expected.py

The digests pin the CLI's output at the commit that runs this script, so run
it only where that output is known to be right, and review the diff: any
changed digest is a change of program behaviour.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, run_cli
from workloads import EXPECTED_FILE, digest

sys.path.insert(0, str(ROOT / "tests"))
from expression_corpus import CORPUS  # noqa: E402

# The element expressions of the corpus, by selector; its tensor expressions
# are not valid operands of any subcommand.
CORPUS_ELEMENTS = {}
for _selector, _expr in CORPUS:
    if "(x)" not in _expr:
        CORPUS_ELEMENTS.setdefault(_selector, []).append(_expr)


def pool():
    """Every corpus call: the pre-Lie family on the weight-0 matrix selectors,
    the antipode there and on univar at weight 0, products and coproducts everywhere."""
    argvs = []
    for selector, exprs in CORPUS_ELEMENTS.items():
        matrix = selector.startswith("matrix:")
        for k, expr in enumerate(exprs):
            partner = exprs[(k + 1) % len(exprs)]
            pair = [f"--lhs={expr}", f"--rhs={partner}"]  # "=" keeps "-x" a value
            argvs.append(["coproduct", "-a", selector, f"--expr={expr}"])
            argvs.append(["multiply", "-a", selector, *pair])
            if matrix:
                argvs.append(["antipode", "-a", selector, f"--expr={expr}"])
                argvs.append(["prelie", "-a", selector, *pair])
                for route in ([], ["--closed-form"], ["--table"]):
                    argvs.append(["bracket", "-a", selector, *pair, *route])
            elif selector == "univar":
                argvs.append(["antipode", "-a", selector, "--weight", "0", f"--expr={expr}"])
    return [argv + fmt for argv in argvs for fmt in ([], ["--json"])]


def main():
    calls = []
    for argv in pool():
        done = run_cli(argv)
        if done.code != 0 or done.stderr:
            raise SystemExit(f"{argv} failed with status {done.code}: {done.stderr!r}")
        calls.append({"argv": argv, "stdout_sha256": digest(done.stdout)})
    lines = ",\n".join(json.dumps(call) for call in calls)
    EXPECTED_FILE.write_text('{"calls": [\n' + lines + "\n]}\n")
    print(f"wrote {len(calls)} calls to {EXPECTED_FILE}")


if __name__ == "__main__":
    main()
