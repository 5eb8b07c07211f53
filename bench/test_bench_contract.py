"""The benchmark keeps its contract (tier-1, ``--smoke`` sizes, a few seconds).

BENCHMARK.json is well-formed, the runner prints every metric it names with its
unit, counts taken twice are equal and every output equals its oracle (both are
failed operations otherwise), the scrubbed environment does not leak in, and a
run leaves no process of its session behind.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from bench import harness  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TRACED = "serve_small"  # the one workload whose traced run the test affords

#: what a careless shell would export; every one of these must be ignored
HOSTILE = {
    "REPRO_BACKEND": "no-such-backend",
    "REPRO_CACHE_DIR": "/nonexistent/bench-must-not-use-this",
    "REPRO_CACHE_MAX_MB": "not-a-number",
    "REPRO_SHARD_TRANSPORT": "no-such-transport",
    "PYTHONHASHSEED": "12345",
}


def session_members(sid: int) -> list[int]:
    """Every process of session ``sid`` still on this host, running or not yet reaped."""
    out = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[3]) == sid:
            out.append(int(entry))
    return out


@pytest.fixture(scope="module")
def runs():
    """(workload, trace, seed) -> (stdout lines, last-line JSON); all started at once."""
    env = dict(os.environ, **HOSTILE)
    wanted = [(w, 0, 0) for w in WORKLOADS] + [(TRACED, 1, 0), (TRACED, 0, 1)]
    procs = {
        key: subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--workload", key[0],
             "--trace", str(key[1]), "--seed", str(key[2])],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        for key in wanted
    }
    out = {}
    for key, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"{key}: exit {proc.returncode}\n{stderr}"
        assert session_members(proc.pid) == [], f"{key}: left a process behind"
        lines = stdout.strip().splitlines()
        out[key] = (lines, json.loads(lines[-1]))
    return out


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    assert SPEC["paths"] == ["bench"] and SPEC["command"] == ["python3", "bench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def check_result(lines, result, section):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
        # printed by name with its unit (or named as absent) above the JSON line
        assert any(
            ln.split()[:1] == [m["name"]] and (ln.split()[-1] in (m["unit"], "absent")) for ln in lines
        ), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(runs, workload):
    lines, result = runs[(workload, 0, 0)]
    check_result(lines, result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # per phase: attempted / succeeded / failed, the count and leak checks among them
    table = {ln.split()[0]: ln.split()[1:] for ln in lines if len(ln.split()) == 4}
    for phase in ("oracle", "counts", "run_ms", "serve_rps", "shard_rps", "teardown"):
        attempted, succeeded, failed = map(int, table[phase])
        assert attempted >= 1 and succeeded == attempted and failed == 0


def test_traced_run(runs):
    lines, result = runs[(TRACED, 1, 0)]
    check_result(lines, result, "per_layer")
    with open(os.path.join(HERE, "out", f"{TRACED}.trace.json"), encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    names = {e["name"] for e in events}
    assert {"compile_nsc", "compile/flatten", "batch.encode", "serve.request", "shard.batch"} <= names


def test_seed_changes_inputs_but_not_counts(runs):
    from bench.workloads import WORKLOADS as DEFS, build, smoke

    for w in DEFS.values():
        for a, b in zip(build(smoke(w), 0), build(smoke(w), 1)):
            assert a.run_input != b.run_input and a.requests != b.requests, (w.name, a.name)
            assert len(a.run_input) == len(b.run_input)
    first, second = runs[(TRACED, 0, 0)][1]["metrics"], runs[(TRACED, 0, 1)][1]["metrics"]
    for name in ("code_instr", "machine_T", "machine_W", "compile_calls"):
        assert first[name]["value"] == second[name]["value"], name


def test_environment_is_scrubbed(monkeypatch):
    for key, value in HOSTILE.items():
        monkeypatch.setenv(key, value)
    env = harness.clean_env()
    assert not any(k in env for k in harness.SCRUBBED)
    assert env["PYTHONHASHSEED"] == "0" and env["PYTHONPATH"].split(os.pathsep)[0] == harness.SRC


def test_refuses_a_directory_without_the_program(tmp_path):
    """Only BENCHMARK.json and bench/: non-zero exit, no result line."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""
