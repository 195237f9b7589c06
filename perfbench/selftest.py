#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny inputs (about half a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed; that a smoke run of every
workload emits exactly the metrics it names, with their units, all correct;
that two traced runs count the same nonzero expanded and generated search
nodes; that the held-out inputs run correctly; that a corrupted certificate
is counted as failed, not as solved; and that the benchmark refuses to run
without the package sources.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def run(workload: str, trace: int, cwd: Path = ROOT, extra=()) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_spec(spec: dict, workloads) -> None:
    expect(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json has exactly the expected keys",
    )
    expect([w["name"] for w in spec["workloads"]] == list(workloads), "workloads match run.py")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics + spec["workloads"]]
    expect(len(names) == len(set(names)), "names are unique")
    expect(all(NAME.match(n) for n in names), "names are well formed")
    expect(all(UNIT.match(m["unit"]) for m in metrics), "units are well formed")
    expect(all(m["better"] in ("higher", "lower") for m in metrics), "every metric has a better-direction")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expect(all(0 < b <= 0.25 for b in bounds.values()), "end-to-end bounds lie in (0, 0.25]")
    expect(bounds.get("setup_s") == max(bounds.values()), "setup_s has the largest bound")


def check_runs(spec: dict, workloads) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in workloads:
        proc = run(workload, 0)
        expect(proc.returncode == 0, f"{workload}: untraced smoke run exits 0 ({proc.stderr[-300:]!r})")
        if proc.returncode:
            continue
        r = result_of(proc)
        expect(set(r) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
        expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, f"{workload}: correct, none failed")
        names = {m["name"] for m in spec["end_to_end"]}
        expect(set(r["metrics"]) == names, f"{workload}: every end-to-end metric, and only those")
        expect(
            all(v["unit"] == units[k] and v["value"] > 0 for k, v in r["metrics"].items()),
            f"{workload}: end-to-end units match and values are nonzero",
        )
        counts = []
        for _ in range(2):
            proc = run(workload, 1)
            expect(proc.returncode == 0, f"{workload}: traced smoke run exits 0 ({proc.stderr[-300:]!r})")
            if proc.returncode:
                break
            r = result_of(proc)
            expect(r["correct"] and r["failed"] == 0, f"{workload}: traced run correct")
            expect(
                set(r["metrics"]) == {m["name"] for m in spec["per_layer"]}
                and all(v["unit"] == units[k] for k, v in r["metrics"].items()),
                f"{workload}: every per-layer metric with its unit",
            )
            counts.append((r["metrics"]["peiffer.expanded"]["value"], r["metrics"]["peiffer.generated"]["value"]))
        expect(
            len(counts) == 2 and counts[0] == counts[1] and min(counts[0]) > 0,
            f"{workload}: expanded and generated counts are nonzero and repeat exactly {counts}",
        )
    proc = run("search-hard", 0, extra=("--input-seed", "1"))
    expect(proc.returncode == 0 and result_of(proc)["correct"], "held-out input seed: correct")


def check_negative_control() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads as wl

    api = wl.import_package()
    fixtures = api.fixtures.load_fixtures()
    corpus = wl.easy_corpus(api, fixtures, 0, 12)
    inst = next(i for i in corpus if i.k >= 2)
    cert = api.peiffer.search_trivialization(inst.seq, node_budget=inst.budget, depth_limit=inst.depth_limit)
    expect(wl.judge(api, inst, cert) == "solved", "negative control: the found certificate is solved")
    corrupted = api.peiffer.Certificate(cert.moves[:-1], cert.pool_spec)
    expect(wl.judge(api, inst, corrupted) == "failed", "negative control: a truncated certificate counts as failed")
    checks = wl.Checks()
    solved = wl.check_pass(api, [inst], [corrupted], None, checks, [0])
    expect(solved == 0 and len(checks.failures) == 1, "negative control: the failure is counted, not solved")
    planted = next(i for i in wl.hard_corpus(api, fixtures, 0, 1, 4) if i.kind == "planted")
    expect(wl.judge(api, planted, cert) == "failed", "negative control: a certificate for a planted instance fails")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("search-easy", 0, cwd=bare)
    printed_result = any(line.startswith('{"correct"') for line in proc.stdout.splitlines())
    expect(
        proc.returncode == 2 and not printed_result and "package sources not found" in proc.stderr,
        "without the sources: exit code 2 for the missing sources, no result",
    )
    shutil.rmtree(bare)


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec, WORKLOADS)
    check_runs(spec, WORKLOADS)
    check_negative_control()
    check_bare_directory()
    print(f"\n{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
