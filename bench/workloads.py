"""Workload definitions: the CLI calls of each session and their expected results.

Every call carries an expected result that is checked on every run:

* computation subcommands (``coproduct``, ``antipode``, ``multiply``,
  ``prelie``, ``bracket``) expect exact stdout bytes, stored as a SHA-256
  digest.  Calls on expressions of the 50-expression corpus take their
  digests from ``expected.json``; calls on random integer matrices take them
  from the dense-matrix oracle below, which knows nothing of the package;
* ``verify`` expects an exit code and, for each expected suite, its status,
  check count and witness text.  Lines the expectation does not name (later
  stats, new suites) are ignored.

The seed fixes the ``oneshot-cli`` call order, its random matrices, and the
``--seed`` passed to ``verify``.  The program sees only the generated argv.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

# Expected (status, check count, witness) of each suite of the two sweeps.
# matrix:5 has 25 basis keys, 25^2 pairs and 25^3 triples; the antipode suite
# makes 25 axiom + 625 property + 25 involution + 2 * 100 random-matrix checks.
# word:xy with --max-len 9 has 2^10 - 1 words and 9217 length-bounded pairs.
# paper-examples is the fixed set of 20 golden worked examples.
_MATRIX5_SUITES = {
    "coassoc": ("pass", 25, None),
    "cocycle": ("pass", 625, None),
    "antipode": ("pass", 875, None),
    "prelie": ("pass", 15625, None),
    "jacobi": ("pass", 15625, None),
    "representation": ("pass", 15625, None),
    "bracket-closed-form": ("pass", 625, None),
    "paper-examples": ("pass", 20, None),
}
_WORD_SUITES = {
    "coassoc": ("pass", 1023, None),
    "cocycle": ("pass", 9217, None),
    "antipode": ("skip", None, None),
    "prelie": ("skip", None, None),
    "jacobi": ("skip", None, None),
    "representation": ("skip", None, None),
    "bracket-closed-form": ("skip", None, None),
    "paper-examples": ("pass", 20, None),
}

# Negative controls: derived r-coproducts that break one law early, so the
# call measures time to the first witness.
NEGATIVE_CONTROLS = (
    ("coassoc", "rmatrix:2:E[1,1] (x) E[1,1]:0", 1,
     "inputs (E[1,2]): difference = -E[1,1] (x) E[1,1] (x) E[1,2]"),
    ("jacobi", "rmatrix:3:E[1,1] (x) E[2,2]:0", 12,
     "inputs (E[1,1], E[1,2], E[2,1]): difference = E[1,1] - E[2,2]"),
    ("prelie", "rmatrix:3:E[1,1] (x) E[3,2]:0", 207,
     "inputs (E[1,3], E[2,3], E[1,1]): difference = -E[1,2]"),
)

ONESHOT_CORPUS_CALLS = 85
ONESHOT_RANDOM_CALLS = 30


@dataclass(frozen=True)
class VerifyExpect:
    exit_code: int
    suites: dict  # suite -> (status, count or None, witness text or None)


@dataclass(frozen=True)
class Call:
    argv: tuple
    stdout_sha256: Optional[str] = None
    verify: Optional[VerifyExpect] = None


@dataclass
class Workload:
    name: str
    calls: list
    sizes: dict = field(default_factory=dict)

    def setup_selectors(self):
        """Distinct (selector, weight) pairs the calls construct, in first-use order."""
        seen = []
        for call in self.calls:
            argv = list(call.argv)
            pair = (_option(argv, "-a"), _option(argv, "--weight"))
            if pair not in seen:
                seen.append(pair)
        return seen


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# checking results
# ---------------------------------------------------------------------------

_SUITE_LINE = re.compile(r"^\[(PASS|FAIL|SKIP)\] ([\w-]+): (.*)$")
_FIRST_INT = re.compile(r"\d+")


def first_int(text: str):
    """The first integer in a suite detail (its check count), or None."""
    m = _FIRST_INT.search(text)
    return int(m.group()) if m else None


def parse_verify(stdout: str):
    """Text ``verify`` output -> {suite: (status, count, witness)}."""
    suites = {}
    last = None
    for line in stdout.splitlines():
        m = _SUITE_LINE.match(line)
        if m:
            status, suite, detail = m.groups()
            status = status.lower()
            count = None if status == "skip" else first_int(detail)
            suites[suite] = [status, count, None]
            last = suite
        elif last is not None and line.strip().startswith("witness "):
            suites[last][2] = line.strip()[len("witness "):]
            last = None
        else:
            last = None
    return {k: tuple(v) for k, v in suites.items()}


def check(call: Call, exit_code: int, stdout: bytes):
    """(ok, checks) for one finished call; checks counts the expected suites' checks."""
    if call.verify is None:
        return exit_code == 0 and digest(stdout) == call.stdout_sha256, 0
    expect = call.verify
    got = parse_verify(stdout.decode("utf-8", "replace"))
    ok = exit_code == expect.exit_code
    checks = 0
    for suite, (status, count, witness) in expect.suites.items():
        actual = got.get(suite)
        if actual is None:
            ok = False
            continue
        if actual[0] != status or actual[2] != witness:
            ok = False
        if count is not None:
            ok = ok and actual[1] == count
            checks += actual[1] or 0
    return ok, checks


# ---------------------------------------------------------------------------
# dense-matrix oracle for integer matrices on the telescoping instance
# ---------------------------------------------------------------------------
# A matrix is a list of integer rows.  Results are {legs: coefficient}, legs
# being a tuple of (i, j) index pairs, one per tensor leg.


def _element_terms(rows):
    return {
        ((i, j),): c
        for i, row in enumerate(rows, 1)
        for j, c in enumerate(row, 1)
        if c
    }


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _coproduct_terms(rows):
    """Delta(E[i,j]) = sgn(j - i) sum_{min <= s < max} E[i,s] (x) E[s+1,j]."""
    out = {}
    for (((i, j),), c) in _element_terms(rows).items():
        if i == j:
            continue
        sign = 1 if i < j else -1
        for s in range(min(i, j), max(i, j)):
            out[((i, s), (s + 1, j))] = sign * c
    return out


def _prelie_rows(a, b):
    """a |> b = sum b_(1) a b_(2); E[i,s] a E[s+1,j] = a[s][s+1] E[i,j]."""
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for ((i, s), (_, j)), c in _coproduct_terms(b).items():
        out[i - 1][j - 1] += c * a[s - 1][s]
    return out


def _emit(n, terms, fmt):
    items = sorted((legs, c) for legs, c in terms.items() if c)
    if fmt == "json":
        obj = {
            "algebra": f"matrix:{n}",
            "weight": "0",
            "terms": [
                {"coeff": {"poly": [[0, str(c)]]}, "legs": [f"E[{i},{j}]" for i, j in legs]}
                for legs, c in items
            ],
        }
        return json.dumps(obj, indent=2) + "\n"
    parts = []
    for legs, c in items:
        body = " (x) ".join(f"E[{i},{j}]" for i, j in legs)
        if abs(c) != 1:
            body = f"{abs(c)} * {body}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return ("".join(parts) or "0") + "\n"


def oracle_stdout(command, rows, partner, fmt):
    """Expected stdout of a computation subcommand on integer matrices."""
    n = len(rows)
    if command == "coproduct":
        terms = _coproduct_terms(rows)
    elif command == "antipode":
        # the telescoping coproduct gives D = m Delta = 0, so S = -id
        terms = {legs: -c for legs, c in _element_terms(rows).items()}
    elif command == "multiply":
        terms = _element_terms(_matmul(rows, partner))
    elif command == "prelie":
        terms = _element_terms(_prelie_rows(rows, partner))
    elif command == "bracket":
        ab, ba = _prelie_rows(rows, partner), _prelie_rows(partner, rows)
        terms = _element_terms([[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)])
    else:
        raise ValueError(f"no oracle for {command!r}")
    return _emit(n, terms, fmt).encode()


def rows_text(rows):
    return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in rows) + "]"


def random_rows(rng, n, density):
    return [
        [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(n)
    ]


def matrix_call(rng, command, n, density, fmt):
    rows = random_rows(rng, n, density)
    argv = [command, "-a", f"matrix:{n}"]
    partner = None
    if command in ("coproduct", "antipode"):
        argv += ["-e", rows_text(rows)]
    else:
        partner = random_rows(rng, n, density)
        argv += ["--lhs", rows_text(rows), "--rhs", rows_text(partner)]
        if command == "bracket":
            argv += rng.choice([[], ["--closed-form"], ["--table"]])
    if fmt == "json":
        argv.append("--json")
    return Call(tuple(argv), digest(oracle_stdout(command, rows, partner, fmt)))


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def verify_call(suite, selector, seed, expect, extra=()):
    argv = ("verify", "--suite", suite, "-a", selector, *extra, "--seed", str(seed))
    return Call(argv, verify=expect)


def load_corpus_calls():
    """Computation calls on the corpus, with the stdout digests pinned in expected.json."""
    data = json.loads(EXPECTED_FILE.read_text())
    return [Call(tuple(c["argv"]), c["stdout_sha256"]) for c in data["calls"]]


def matrix_laws(seed):
    call = verify_call("all", "matrix:5", seed, VerifyExpect(0, _MATRIX5_SUITES))
    return Workload("matrix-laws", [call], {
        "selector": "matrix:5", "basis_keys": 25, "pairs": 625, "triples": 15625,
    })


def word_coalgebra(seed):
    call = verify_call(
        "all", "word:xy", seed, VerifyExpect(0, _WORD_SUITES), ("--max-len", "9"),
    )
    return Workload("word-coalgebra", [call], {
        "selector": "word:xy", "max_len": 9, "basis_keys": 1023, "pairs": 9217,
    })


def oneshot_cli(seed):
    rng = random.Random(seed)
    calls = rng.sample(load_corpus_calls(), ONESHOT_CORPUS_CALLS)
    commands = ("coproduct", "antipode", "multiply", "prelie", "bracket")
    for _ in range(ONESHOT_RANDOM_CALLS):
        calls.append(matrix_call(
            rng, rng.choice(commands), rng.choice((3, 4)), 0.6, rng.choice(("text", "json")),
        ))
    # construction of M_8 and M_12 is a visible share of these two calls
    calls.append(matrix_call(rng, "coproduct", 8, 0.3, rng.choice(("text", "json"))))
    calls.append(matrix_call(rng, "coproduct", 12, 0.1, rng.choice(("text", "json"))))
    for suite, selector, count, witness in NEGATIVE_CONTROLS:
        expect = VerifyExpect(1, {suite: ("fail", count, witness)})
        calls.append(verify_call(suite, selector, seed, expect))
    rng.shuffle(calls)
    return Workload("oneshot-cli", calls, {
        "calls": len(calls), "corpus_calls": ONESHOT_CORPUS_CALLS,
        "random_matrix_calls": ONESHOT_RANDOM_CALLS + 2,
        "negative_controls": len(NEGATIVE_CONTROLS),
    })


WORKLOADS = {
    "matrix-laws": matrix_laws,
    "word-coalgebra": word_coalgebra,
    "oneshot-cli": oneshot_cli,
}
