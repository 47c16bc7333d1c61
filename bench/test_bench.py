"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PACKAGE, Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))
import epsbialg.cli  # noqa: E402,F401


def snapshot():
    """Identity of every attribute of the package's modules and of their classes."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, value in vars(module).items():
            out[(mod_name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod_name:
                for member, inner in vars(value).items():
                    out[(mod_name, attr, member)] = id(inner)
    return out


def _small_workload():
    rng = random.Random(3)
    calls = random.Random(4).sample(workloads.load_corpus_calls(), 12)
    for command in ("coproduct", "antipode", "multiply", "prelie", "bracket"):
        calls.append(workloads.matrix_call(rng, command, 3, 0.6, "text"))
    suite, selector, count, witness = workloads.NEGATIVE_CONTROLS[1]
    calls.append(workloads.verify_call(
        suite, selector, 5, workloads.VerifyExpect(1, {suite: ("fail", count, witness)}),
    ))
    calls.append(workloads.verify_call("all", "matrix:2", 5, workloads.VerifyExpect(0, {
        "coassoc": ("pass", 4, None), "cocycle": ("pass", 16, None),
        "jacobi": ("pass", 64, None), "paper-examples": ("pass", 20, None),
    })))
    return workloads.Workload("small", calls)


def test_tracer_wraps_every_binding_and_restores_it():
    from epsbialg import core, prelie, scalars, verify

    before = snapshot()
    originals = (scalars.LambdaPoly.__dict__["__mul__"], prelie.prelie_product,
                 verify.prelie_product, scalars.LambdaPoly.__dict__["coerce"])
    tracer = Tracer()
    tracer.install()
    try:
        assert scalars.LambdaPoly.__dict__["__mul__"] is not originals[0]
        assert scalars.LambdaPoly.__dict__["__rmul__"] is scalars.LambdaPoly.__dict__["__mul__"]
        assert prelie.prelie_product is not originals[1]
        assert verify.prelie_product is prelie.prelie_product
        assert isinstance(scalars.LambdaPoly.__dict__["coerce"], staticmethod)
        assert tracer.missing == []
        core.check_coassoc(epsbialg.cli.build_algebra("matrix:2", None), verify.EMatrix(1, 2, 2))
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert snapshot() == before
    after = (scalars.LambdaPoly.__dict__["__mul__"], prelie.prelie_product,
             verify.prelie_product, scalars.LambdaPoly.__dict__["coerce"])
    assert all(a is b for a, b in zip(after, originals))
    assert tracer.stats["core.check_coassoc"][0] == 1
    assert tracer.spans and tracer.spans[0][0] == "core.check_coassoc"


def test_traced_pass_gives_the_same_output_and_restores():
    workload = _small_workload()
    metrics, attempted, failures, record = run.traced_run(workload)
    assert failures == []
    assert record["missing_targets"] == []
    assert attempted == 3 * len(workload.calls)
    assert metrics["raw.wall_s"][0] > 0 and metrics["raw.call_p50_ms"][0] > 0
    assert metrics["cli.main.calls"][0] == len(workload.calls)
    assert metrics["verify.jacobi.checks"][0] == 12 + 64
    spans = {name for name, *_ in record["spans"]}
    assert spans >= {"cli.main", "verify.run_suite", "prelie.check_jacobi"}


def test_oracle_agrees_with_the_cli_on_random_matrices():
    rng = random.Random(11)
    calls = [
        workloads.matrix_call(rng, command, n, density, fmt)
        for command in ("coproduct", "antipode", "multiply", "prelie", "bracket")
        for n, density in ((2, 1.0), (4, 0.5))
        for fmt in ("text", "json")
    ]
    results, _ = run.in_process_pass(calls)
    for call, (code, stdout, _) in zip(calls, results):
        assert workloads.check(call, code, stdout)[0], call.argv


def test_checker_rejects_wrong_answers_and_ignores_extra_lines():
    call = workloads.matrix_call(random.Random(2), "prelie", 3, 1.0, "text")
    (code, stdout, _), = run.in_process_pass([call])[0]
    assert workloads.check(call, code, stdout)[0]
    assert not workloads.check(call, code, stdout.replace(b"E[", b"2 * E[", 1))[0]
    assert not workloads.check(call, 1, stdout)[0]

    suite, selector, count, witness = workloads.NEGATIVE_CONTROLS[1]
    control = workloads.verify_call(
        suite, selector, 1, workloads.VerifyExpect(1, {suite: ("fail", count, witness)}),
    )
    good = (f"[FAIL] jacobi: failure after 12 triples (0.01 s)\n       witness {witness}\n"
            "[PASS] algebra: 9 triples checked\nchecks: 21\nresult: LAW VIOLATION\n").encode()
    assert workloads.check(control, 1, good) == (True, 12)
    assert not workloads.check(control, 0, good)[0]
    assert not workloads.check(control, 1, good.replace(b"12 triples", b"13 triples"))[0]
    assert not workloads.check(control, 1, good.replace(b"E[2,2]", b"2 * E[2,2]"))[0]
    assert not workloads.check(control, 1, good.replace(b"[FAIL]", b"[PASS]"))[0]
    assert not workloads.check(control, 1, b"result: LAW VIOLATION\n")[0]


def test_seed_fixes_the_generated_calls():
    first, again, other = (workloads.oneshot_cli(s) for s in (7, 7, 8))
    assert first.calls == again.calls
    assert first.calls != other.calls
    assert len(first.calls) >= 100
    assert workloads.matrix_laws(9).calls[0].argv[-2:] == ("--seed", "9")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oneshot-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
