"""Which lines of `src/` functions the non-test traffic, or tier-1,
never reaches.

    python tests/linecov.py           # the non-test traffic
    python tests/linecov.py --tests   # tier-1

A stdlib line tracer (`sys.settrace`, also set for threads) limited to
frames of `src/convergesim`; `helpers.line_events_per_job` counts the
carve's line events with the same tracer for `test_hiersched.py` and
`carve_growth.py`. It runs, in this process:

- the three default scenarios (`default_config(<kind>, seed=42)`);
- `convergesim run` on the README's INI block, then `report` in each
  format and `calibrate` on the packaged anchor file;
- the six demos;
- perfbench's four workloads at its `tiny` size, each checked, and its
  golden check. service_wire talks to a `serve_unix` mount on a thread
  of this process instead of a service process.

`orchestrator._usable_cpus` is patched to 1, so the taxonomy cases and
the hybrid's service run in this process. The forked branches themselves
(`_Forked`'s processes, `_ServiceProcess`, `_reply_from` and
`_serve_samples`) are therefore reported as unreached: the tracer cannot
follow a fork.

With `--tests` it runs tier-1 (`pytest tests`) in this process instead,
less the tests in UNTRACEABLE, and prints each one it leaves out with the
reason. The tests run as they do untraced, forks included, so the lines
that only a forked child runs (`_reply_from`, `_serve_samples`) are
unreached here too; the taxonomy share this process runs is traced. It took 78 s on a 2-vCPU machine.

It prints `file:line: source` for each line that some function's code
holds and that no traced frame ran, then the counts. The package is
imported under the tracer, so a `def` line counts as reached. The
traffic takes a few seconds. Either way it is a script, not a tier-1
test, because it replaces the process's trace function.
"""

import argparse
import contextlib
import inspect
import os
import re
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "convergesim"
SEED = 42

# Tier-1 tests that `--tests` leaves out, and why
UNTRACEABLE = {
    "tests/test_perfbench.py::test_perfbench_selftest_passes":
        "its work runs in subprocesses, which the tracer cannot see",
    "tests/test_orchestrator.py::test_hybrid_peak_memory_does_not_grow_with_train_count":
        "the tracer's own allocations exceed its tracemalloc bound",
}


def function_lines(path: Path) -> set[int]:
    """Lines holding code of any function, lambda or comprehension in `path`."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:  # not a module or class body
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


class LineTracer:
    """Records the lines that frames of files under `prefix` run (`hit`:
    file -> set of lines) and counts their line events (`events`, added
    up as each frame returns or yields; exact when one thread runs)."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.hit: dict[str, set[int]] = {}
        self.events = 0

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        add = self.hit.setdefault(filename, set()).add
        events = 0

        def local(frame, event, arg):
            nonlocal events
            if event == "line":
                add(frame.f_lineno)
                events += 1
            elif event == "return":  # also on a yield or a raise
                self.events += events
                events = 0
            return local

        return local

    @contextlib.contextmanager
    def active(self):
        """Trace this thread and threads started meanwhile; the trace
        functions set before are restored after."""
        before = sys.gettrace(), threading.gettrace()
        threading.settrace(self._global)
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(before[0])
            threading.settrace(before[1])


def run_cli(cli, workdir: Path):
    readme = (ROOT / "README.md").read_text()
    ini = workdir / "readme.ini"
    ini.write_text(re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1))
    out = workdir / "cli_out"
    assert cli.main(["run", "--config", str(ini), "--out", str(out)]) == 0
    for fmt in ("csv", "json", "svg"):
        assert cli.main(["report", "--bundle", str(out / "bundle.json"),
                         "--format", fmt, "--out", str(workdir / f"report_{fmt}")]) == 0
    anchors = SRC / "data" / "network_anchors.json"
    assert cli.main(["calibrate", "--anchors", str(anchors)]) == 0


def run_demos(workdir: Path):
    for demo in sorted((ROOT / "demos").glob("*.py")):
        os.chdir(workdir)
        runpy.run_path(str(demo), run_name="__main__")


def run_perfbench(cs, workdir: Path):
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    import scenarios

    size, checks = scenarios.SIZES["tiny"], scenarios.Checks()
    for name in ("hybrid_stream", "wide_placement", "taxonomy_sweep"):
        workload = scenarios.WORKLOADS[name](cs, SEED, size, workdir)
        workload.run()
        workload.check(checks)
    os.chdir(workdir)  # the client connects to the socket by a relative name
    server = cs.mlserve.serve_unix(scenarios.SOCKET_NAME)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        wire = scenarios.ServiceWire(SEED, size, None, 0)
        try:
            wire.run()
            wire.check(checks)
        finally:
            wire.close()
        # one more round trip: by its reply the mount has seen the closes
        client = cs.mlserve.ServiceClient(path=scenarios.SOCKET_NAME)
        client.call_line("metrics name=none")
        client.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
        os.unlink(scenarios.SOCKET_NAME)
    scenarios.golden_check(cs, checks, ROOT, workdir)
    assert not checks.problems, checks.problems


def traffic(workdir: Path):
    import convergesim
    from convergesim import (cli, hiersched, mlcore, mlserve, orchestrator, reporting,
                             resgraph, simkernel, workloads)

    orchestrator._usable_cpus = lambda: 1
    for kind in orchestrator.EXPERIMENTS:
        bundle = orchestrator.run_scenario(orchestrator.default_config(kind, seed=SEED))
        reporting.emit_report(bundle, workdir / f"default_{kind}")
    run_cli(cli, workdir)
    run_demos(workdir)
    cs = SimpleNamespace(package=convergesim, hiersched=hiersched, mlcore=mlcore,
                         mlserve=mlserve, orchestrator=orchestrator, reporting=reporting,
                         resgraph=resgraph, simkernel=simkernel, workloads=workloads)
    run_perfbench(cs, workdir)


def run_tests():
    """Tier-1 in this process, less the tests in UNTRACEABLE."""
    import pytest

    os.chdir(ROOT)  # the ids in UNTRACEABLE are relative to it
    deselect = [arg for test in UNTRACEABLE for arg in ("--deselect", test)]
    assert pytest.main(["tests", "-q", "-p", "no:cacheprovider", *deselect]) == 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Print the src/ lines no traced run reaches.")
    parser.add_argument("--tests", action="store_true",
                        help="trace tier-1 instead of the non-test traffic")
    tests = parser.parse_args().tests
    sys.path.insert(0, str(ROOT / "src"))
    tracer = LineTracer(str(SRC) + os.sep)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        try:
            with tracer.active():
                if tests:
                    run_tests()
                else:
                    traffic(Path(tmp))
        finally:
            os.chdir(cwd)
    if tests:
        for test, reason in UNTRACEABLE.items():
            print(f"deselected {test}: {reason}")
    total = unreached = 0
    for path in sorted(SRC.glob("*.py")):
        expected = function_lines(path)
        missed = sorted(expected - tracer.hit.get(str(path), set()))
        total += len(expected)
        unreached += len(missed)
        source = path.read_text().splitlines()
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{unreached} of {total} lines inside src/ functions unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
