"""Closed loop of ops in one fresh process: ``python3 worker.py SPEC.json``.

One client, no threads: each op calls ``teachsel.cli.main(argv)`` once per
command of the workload, in order, with stdout written into an in-memory
digest sink.  A first, untimed reference op saves its output bytes for the
independent checks; every timed op must reproduce its digests.  Timed ops
start until the measuring time, which the reference op opens, is spent.  With tracing on, even-numbered ops run
traced and odd-numbered ops untraced, so one run yields the tracing
overhead.  Results go to ``worker.json`` (and spans to ``spans.json``) in the
spec's work directory; the process's own peak RSS is reported there, so the
parent's fixture generation and checks do not count toward it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


class DigestSink(io.TextIOBase):
    """Text stream that UTF-8 encodes and hashes what is written, keeping no copy."""

    def __init__(self, copy_to=None) -> None:
        self.digest = hashlib.sha256()
        self.size = 0
        self._copy_to = copy_to

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        data = text.encode()
        self.digest.update(data)
        self.size += len(data)
        if self._copy_to is not None:
            self._copy_to.write(data)
        return len(text)


def run_op(cli, commands: list[list[str]], save_dir: Path | None = None) -> dict:
    cpu = 0.0
    record = {"codes": [], "digests": [], "out_bytes": [], "command_wall_s": [], "error": None}
    for idx, argv in enumerate(commands):
        with contextlib.ExitStack() as stack:
            copy_to = stack.enter_context(open(save_dir / f"{idx}.out", "wb")) if save_dir else None
            sink, err = DigestSink(copy_to), io.StringIO()
            stack.enter_context(contextlib.redirect_stdout(sink))
            stack.enter_context(contextlib.redirect_stderr(err))
            code = None
            start_wall, start_cpu = time.perf_counter(), time.process_time()
            try:
                code = cli.main(list(argv))
            except (Exception, SystemExit):
                record["error"] = traceback.format_exc(limit=4)
            record["command_wall_s"].append(time.perf_counter() - start_wall)
            cpu += time.process_time() - start_cpu
        record["codes"].append(code)
        record["digests"].append(sink.digest.hexdigest())
        record["out_bytes"].append(sink.size)
        if code != 0 and record["error"] is None:
            record["error"] = f"{argv[0]} exited {code}: {err.getvalue()[-500:]}"
    record.update(wall_s=sum(record["command_wall_s"]), cpu_s=cpu, ok=record["error"] is None)
    return record


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    workdir = Path(spec["workdir"])
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import teachsel.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        sys.stderr.write(f"teachsel imported from {cli.__file__}, not from {src}\n")
        return 2
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()

    commands = spec["commands"]
    reference_dir = workdir / "reference"
    reference_dir.mkdir()
    started = time.perf_counter()
    reference = run_op(cli, commands, save_dir=reference_dir)

    ops = []
    while not ops or time.perf_counter() - started < spec["seconds"]:
        traced = tracer is not None and len(ops) % 2 == 0
        gc.collect()
        if traced:
            tracer.install(len(ops))
        try:
            record = run_op(cli, commands)
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        ops.append(record)

    result = {
        "reference": reference,
        "ops": ops,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "absent": tracer.absent if tracer else [],
        "counter_errors": tracer.counter_errors if tracer else [],
    }
    (workdir / "worker.json").write_text(json.dumps(result))
    if tracer is not None:
        (workdir / "spans.json").write_text(json.dumps(tracer.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
