"""One workload in one fresh process, driven as a closed loop by one caller.

    worker.py setup WORKLOAD             set up, print the ready time, exit
    worker.py run WORKLOAD INPUTS SECONDS  timed loop over the op cycle
    worker.py fixed WORKLOAD INPUTS [SPANS]  the traced op list once;
                                         traced when SPANS is given
    worker.py cli SPANS OP -- ARGV...    one traced `orbkit` command

Each mode prints one JSON line on stdout.  Ops reach the program only
through module attributes, so a traced run sees every call.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from workloads import ASSIGNMENTS  # noqa: E402

COMMAND_TIMEOUT_S = 60
OK, FAIL, INCONCLUSIVE = "ok", "fail", "inconclusive"


def now() -> float:
    """A clock every process on the machine shares, for set-up times."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_now() -> float:
    """CPU seconds of this (single-threaded) process and of every child
    it has reaped.

    Time the machine's host runs something else on this vCPU is not
    counted (the kernel accounts it as steal), so CPU time is what the
    program itself costs, where wall time also holds the wait for a CPU
    on a shared host.  The thread clock is read because the process
    clock moves only at scheduler ticks while a profiling timer is set.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + kids.ru_utime + kids.ru_stime


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run_child(argv, timeout, **popen):
    """Run argv to completion; (exit code, stdout bytes, its rusage).

    Reaped with wait4 so the child's own CPU time and peak RSS are
    known.  The child leads its own process group; if it is still running
    after `timeout` seconds, the group is killed and the child reaped.
    """
    child = subprocess.Popen(argv, stdout=subprocess.PIPE,
                             start_new_session=True, **popen)
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    except _Timeout:
        os.killpg(child.pid, signal.SIGKILL)
        _, status, usage = os.wait4(child.pid, 0)
        out = b""
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out, usage


def child_env() -> dict:
    """Every process the benchmark starts hashes strings the same way, so
    an op takes the same path through sets and dicts in every run."""
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def reference_process() -> float:
    """CPU seconds of one reference process (see reference.py)."""
    code, _, usage = run_child(reference.PROCESS_ARGV, COMMAND_TIMEOUT_S,
                               cwd=ROOT, env=child_env())
    if code != 0:
        raise RuntimeError(f"reference process exited {code}")
    return usage.ru_utime + usage.ru_stime


# -- workloads ----------------------------------------------------------


class SpinSweep:
    """One background class on glued_Z: Chern class, primitivity, the
    H_1 criteria and the spin decision for every assignment."""

    slices_between = 0  # ops last ~25 ms: the timer's samples suffice
    scale_window = 25  # slices, about 2.5 s of ops
    tail_pct = 95  # of ~800 ops in 20 s

    def __init__(self):
        from orbkit import seifert, spin, surgery
        self.seifert, self.spin = seifert, spin
        self.base = {}
        for p in (2, 3):
            cfg = surgery.build_Z(p)
            self.base[p] = (cfg, seifert.compute_b_residues(cfg))

    def op(self, op):
        seifert = self.seifert
        cfg, residues = self.base[op["p"]]
        spec = seifert.SeifertSpec(cfg, residues, tuple(op["c1B"]))
        scaled = seifert.scaled_chern_class(spec)
        primitive = seifert.is_primitive(scaled)
        h1 = seifert.h1_zero_decision(spec)
        verdicts = [self.spin.spin_decision(spec, {"a1": a1, "a2": a2})
                    for a1, a2 in ASSIGNMENTS]
        return scaled.entries, primitive, h1.holds, verdicts

    @staticmethod
    def check(op, out):
        entries, primitive, holds, verdicts = out
        if list(entries) != op["scaled"]:
            return FAIL, f"scaled Chern class {entries}"
        if primitive != op["primitive"] or holds != op["primitive"]:
            return FAIL, f"primitive {primitive}, H1 = 0 {holds}"
        if verdicts != op["spin"]:
            return FAIL, f"spin verdicts {verdicts}, expected {op['spin']}"
        return OK, None


class Pi1Certify:
    """One prime's certificate: presentation, abelianization, coset
    enumeration."""

    # four of the six ops last ~20 ms, between the timer's samples
    slices_between = 3
    scale_window = 9  # a small op: its slices before and after, and 3 more
    tail_pct = None  # 18 ops in a run

    def __init__(self):
        from orbkit import fpgroup
        self.fpgroup = fpgroup

    def op(self, op):
        fpgroup = self.fpgroup
        pres = fpgroup.build_pi1_orb_presentation(
            op["p"], max_power=op["max_power"])
        ab = fpgroup.abelianize(pres)
        result = fpgroup.coset_enumerate(pres, max_cosets=op["coset_bound"])
        index = result.status.index if result.is_complete() else None
        return ab.rank, list(ab.invariant_factors), index

    @staticmethod
    def check(op, out):
        rank, factors, index = out
        if [rank, factors] != op["abelian"]:
            return FAIL, f"p={op['p']}: abelianization rank {rank} {factors}"
        if index is None:
            return INCONCLUSIVE, f"p={op['p']}: coset budget exhausted"
        if index != op["index"]:
            return FAIL, f"p={op['p']}: index {index}, expected {op['index']}"
        return OK, None


class CliVerify:
    """One `orbkit` command as a fresh process.  In a traced run the
    command goes through this file's `cli` mode instead, which installs
    the tracer before calling orbkit.cli.main."""

    # the command runs in a process of its own, out of the timer's reach
    slices_between = 5
    scale_window = 45  # slices, about 9 commands
    tail_pct = 90  # of ~130 commands in 20 s

    def __init__(self, spans_dir: Path | None = None):
        import orbkit.cli  # noqa: F401 - what a command pays before work
        self.spans_dir = spans_dir
        self.max_rss_kb = 0

    def op(self, op, op_id=None):
        if self.spans_dir is None:
            argv = [sys.executable, "-m", "orbkit.cli", *op["argv"]]
        else:
            argv = [sys.executable, str(HERE / "worker.py"), "cli",
                    str(self.spans_dir / f"{op_id}.json"), str(op_id),
                    "--", *op["argv"]]
        code, out, usage = run_child(argv, COMMAND_TIMEOUT_S, cwd=ROOT,
                                     env=child_env(),
                                     stderr=subprocess.DEVNULL)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return code, out.decode("utf-8", "replace")

    @staticmethod
    def check(op, out):
        code, text = out
        if code == 3:
            return INCONCLUSIVE, f"{op['argv']}: exit 3"
        if code != op["exit"]:
            return FAIL, f"{op['argv']}: exit {code}, expected {op['exit']}"
        if "stdout" in op and text != op["stdout"]:
            return FAIL, f"{op['argv']}: output differs from expected"
        missing = [ln for ln in op.get("lines", ()) if ln not in
                   text.splitlines()]
        if missing:
            return FAIL, f"{op['argv']}: missing {missing}"
        return OK, None


WORKLOAD_CLASSES = {"spin_sweep": SpinSweep, "pi1_certify": Pi1Certify,
                    "cli_verify": CliVerify}


# -- loops --------------------------------------------------------------


class Yardstick:
    """Times the micro slice (reference.py) every SAMPLE_EVERY_S of this
    process's CPU, from a profiling-timer signal, in the middle of
    whatever op runs, and `count` times after each op.  Samples are
    [op index, CPU seconds], k for one taken during op k and k + 0.5
    for one taken between ops k and k + 1; `spent` is all the CPU the
    timer's handler has used, which Tally takes back out of the op."""

    def __init__(self, count: int):
        self.count = count
        self.samples: list[list] = []
        self.spent = 0.0
        self.op = 0

    def _slice(self, index) -> float:
        start = time.thread_time()
        out = reference.micro()
        end = time.thread_time()
        if out != reference.MICRO_CHECKSUM:
            raise RuntimeError("micro slice gave a different answer")
        self.samples.append([index, end - start])
        return start

    def _handler(self, signum, frame):
        start = self._slice(self.op)
        self.spent += time.thread_time() - start

    def start(self):
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def between(self, done: int):
        for _ in range(self.count):
            self._slice(done - 0.5)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


SAMPLE_EVERY_S = 0.1


class Tally:
    def __init__(self, yardstick=None):
        self.yardstick = yardstick
        self.latencies: list[float] = []
        self.cpu: list[float] = []
        self.counts = {OK: 0, FAIL: 0, INCONCLUSIVE: 0}
        self.failures: list[str] = []

    def run(self, check, op, fn, *args):
        """Time fn(*args), the op, and check its output.  Time the
        yardstick spent inside the op is not the op's."""
        spent = self.yardstick.spent if self.yardstick else 0.0
        start, start_cpu = time.perf_counter(), cpu_now()
        try:
            out = fn(*args)
        except Exception as exc:  # a crash is a failed op; the loop goes on
            out = exc
        end_cpu, end = cpu_now(), time.perf_counter()
        if self.yardstick:
            spent = self.yardstick.spent - spent
        self.cpu.append(end_cpu - start_cpu - spent)
        self.latencies.append(end - start - spent)
        if isinstance(out, Exception):
            status, why = FAIL, f"{type(out).__name__}: {out}"
        else:
            status, why = check(op, out)
        self.counts[status] += 1
        if status == FAIL and len(self.failures) < 5:
            self.failures.append(why)

    def result(self, **extra) -> dict:
        return {"latencies": self.latencies, "cpu": self.cpu,
                "failed": self.counts[FAIL],
                "inconclusive": self.counts[INCONCLUSIVE],
                "failures": self.failures, **extra}


MIN_BLOCKS = 3


def timed_loop(name, inputs, seconds):
    """Cycle through the ops in blocks until `seconds` have passed and at
    least MIN_BLOCKS blocks are done; the loop stops only between blocks,
    so every block is whole and a median over blocks has three samples.
    The workload's yardstick (see reference.py) is timed all along; a
    block's times are the sum of its ops' times."""
    workload = WORKLOAD_CLASSES[name]()
    ready, ready_cpu = now(), time.process_time()
    ops, block = inputs["ops"], inputs["block"]
    yardstick = Yardstick(workload.slices_between)
    tally = Tally(yardstick)
    yardstick.start()
    start = time.perf_counter()
    i = 0
    try:
        while True:
            for _ in range(block):
                op = ops[i % len(ops)]
                yardstick.op = i
                tally.run(workload.check, op, workload.op, op)
                i += 1
                yardstick.between(i)
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and i >= MIN_BLOCKS * block:
                break
    finally:
        yardstick.stop()
    blocks, blocks_cpu = (
        [sum(xs[k:k + block]) for k in range(0, i, block)]
        for xs in (tally.latencies, tally.cpu))
    return tally.result(ready=ready, ready_cpu=ready_cpu,
                        elapsed=elapsed, block=block,
                        blocks=blocks, blocks_cpu=blocks_cpu,
                        refs=yardstick.samples, window=workload.scale_window,
                        tail_pct=workload.tail_pct,
                        max_child_rss_kb=getattr(workload, "max_rss_kb", 0))


def fixed_loop(name, inputs, spans_path: Path | None):
    """The traced op list once; with spans_path, traced and written out.
    `wall` covers the op loop only, so traced and untraced runs compare."""
    tracer, spans_dir, import_s = None, None, []
    if spans_path is None:
        workload = WORKLOAD_CLASSES[name]()
    elif name == "cli_verify":
        spans_dir = spans_path.with_suffix(".d")
        spans_dir.mkdir(parents=True, exist_ok=True)
        workload = CliVerify(spans_dir)
    else:
        start = time.perf_counter()
        import orbkit.cli  # noqa: F401
        import_s.append(time.perf_counter() - start)
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
        tracer.op = "setup"
        workload = WORKLOAD_CLASSES[name]()
    tally = Tally()
    start = time.perf_counter()
    for k, op in enumerate(inputs["traced"]):
        if tracer is not None:
            tally.run(workload.check, op, tracer.root, k, workload.op, op)
        elif spans_dir is not None:
            tally.run(workload.check, op, workload.op, op, k)
        else:
            tally.run(workload.check, op, workload.op, op)
    wall = time.perf_counter() - start
    if spans_path is not None:
        spans = tracer.spans if tracer is not None else []
        if spans_dir is not None:
            for part in sorted(spans_dir.glob("*.json")):
                rec = json.loads(part.read_text(encoding="utf-8"))
                spans += rec["spans"]
                import_s.append(rec["import_s"])
                part.unlink()
            spans_dir.rmdir()
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    return tally.result(wall=wall, import_s=import_s)


def traced_command(spans_path: Path, op_id: int, argv) -> int:
    """Run one orbkit command in this process with every layer traced;
    its stdout is this process's stdout and its exit code ours."""
    t0 = time.perf_counter()
    import orbkit.cli
    import_s = time.perf_counter() - t0
    from tracer import Tracer, install
    tracer = Tracer()
    install(tracer)
    code = tracer.root(op_id, orbkit.cli.main, argv)
    spans_path.write_text(json.dumps({"import_s": import_s,
                                      "spans": tracer.spans}))
    return code


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        WORKLOAD_CLASSES[argv[1]]()
        print(json.dumps({"ready": now(), "ready_cpu": time.process_time()}))
        return 0
    if mode == "cli":
        sep = argv.index("--")
        return traced_command(Path(argv[1]), int(argv[2]), argv[sep + 1:])
    name = argv[1]
    with open(argv[2], encoding="utf-8") as fh:
        inputs = json.load(fh)
    if mode == "run":
        result = timed_loop(name, inputs, float(argv[3]))
    elif mode == "fixed":
        result = fixed_loop(name, inputs,
                            Path(argv[3]) if len(argv) > 3 else None)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
