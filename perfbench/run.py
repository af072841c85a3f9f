"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload asof_kernel --seed 1 \
        --seconds 12 --trace 0

Run from the root of a source checkout. The run makes its inputs and the
oracle's expected output from ``--seed`` (in a child process), then opens
``SESSIONS`` Ray sessions in turn. Each session is measured from ``ray.init``
through one untimed warm-up pass (``setup_s``), then runs timed passes
until its share of ``--seconds`` is spent. Every pass is checked against
the oracle after its timer stops. Bounded times are CPU seconds of the
driver and Ray process tree; wall times are printed on the line before
the result.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see
``perfbench/README.md``). Scratch files live under ``.perfbench/`` in the
checkout; the inputs and Ray's session files are removed at exit, span
traces are kept under ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"

SESSIONS = 2
NUM_CPUS = 1  # one-core workloads: the scheduling is the same on any host
OBJECT_STORE_BYTES = 512 << 20
#: AF_UNIX socket paths are capped at 107 bytes; Ray's longest socket,
#: <temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store, adds 64
MAX_RAY_TMP_LEN = 107 - 64


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _check_checkout() -> None:
    if not (ROOT / "chronon_ray" / "__init__.py").is_file():
        _fail(f"no chronon_ray package under {ROOT}: run from a checkout")
    sys.path.insert(0, str(ROOT))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p)


# ------------------------------------------------------------ process tree


def _proc_stat(pid: str) -> tuple[int, str] | None:
    """(parent pid, state) of a process, None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return int(fields[1]), fields[0]
    except (OSError, IndexError, ValueError):
        return None


def _tree() -> list[tuple[int, str]]:
    """(pid, state) of every process below this one; zombie children of
    this process are reaped on the way."""
    kids: dict[int, list[tuple[int, str]]] = {}
    for p in os.listdir("/proc"):
        if p.isdigit() and (st := _proc_stat(p)) is not None:
            kids.setdefault(st[0], []).append((int(p), st[1]))
    out, stack = [], [os.getpid()]
    while stack:
        parent = stack.pop()
        for pid, state in kids.get(parent, []):
            if state == "Z" and parent == os.getpid():
                try:
                    os.waitpid(pid, os.WNOHANG)
                    continue
                except ChildProcessError:
                    pass
            out.append((pid, state))
            stack.append(pid)
    return out


def descendants() -> list[int]:
    """Live (non-zombie) processes below this one."""
    return [pid for pid, state in _tree() if state != "Z"]


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb() -> float:
    """Σ VmHWM (peak resident set) of this process and every live
    descendant: the driver plus every process of the Ray session."""
    pids = [os.getpid(), *descendants()]
    return sum(_status_kb(p, "VmHWM") for p in pids) / 1024.0


def tree_cpu() -> dict[int, float]:
    """pid → CPU seconds (user + system) of this process and every process
    below it, zombies included."""
    tick = os.sysconf("SC_CLK_TCK")
    out = {}
    for pid in [os.getpid(), *(pid for pid, _ in _tree())]:
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            out[pid] = (int(fields[11]) + int(fields[12])) / tick
        except (OSError, IndexError, ValueError):
            pass
    return out


def cpu_between(before: dict, after: dict) -> float:
    """CPU seconds the process tree used between two ``tree_cpu`` reads.

    Counted per process, because the Ray worker pool replaces idle
    workers and their parent does not collect an exited worker's times:
    a process that is gone at ``after`` adds nothing (an idle worker), one
    that is new adds all of its time."""
    total = 0.0
    for pid, cpu in after.items():
        prev = before.get(pid, 0.0)
        total += cpu - prev if cpu >= prev else cpu  # a reused pid is new
    return total


def reap_descendants(timeout: float = 30.0) -> None:
    """Wait for every process this run started to end; kill stragglers."""
    deadline = time.monotonic() + timeout
    while descendants() and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in descendants():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while descendants() and time.monotonic() < deadline + 10:
        time.sleep(0.1)


# --------------------------------------------------------------- Ray session


def ray_temp_dir() -> str | None:
    """Ray's session files go under the checkout when the socket paths fit;
    otherwise Ray's default temp dir is used."""
    tmp = str(SCRATCH / "ray")
    if len(tmp) <= MAX_RAY_TMP_LEN:
        return tmp
    print("perfbench: checkout path too long for Ray sockets, using Ray's "
          "default temp dir", file=sys.stderr)
    return None


def start_ray(tmp: str | None) -> None:
    import ray
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    kw = {"_temp_dir": tmp} if tmp else {}
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, **kw)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_tensor_extension_casting = False
    ctx.print_on_execution_start = False
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PULL_BASED


def stop_ray() -> None:
    import ray

    session = ray._private.worker.global_worker.node.get_session_dir_path() \
        if ray.is_initialized() else None
    ray.shutdown()
    reap_descendants()
    if session:  # this run's logs and sockets
        shutil.rmtree(session, ignore_errors=True)
        latest = Path(session).parent / "session_latest"
        if latest.is_symlink() and not latest.exists():
            latest.unlink()


# ------------------------------------------------------------------- records


def nproc() -> int:
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, subprocess.CalledProcessError, ValueError):
        return len(os.sched_getaffinity(0))


def environment(args, info: dict) -> dict:
    import pyarrow
    import ray

    from perfbench import workloads

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": nproc(), "cpu_count": os.cpu_count(),
            "ray_num_cpus": NUM_CPUS, "ray": ray.__version__,
            "pyarrow": pyarrow.__version__,
            "object_store_bytes": OBJECT_STORE_BYTES,
            "sessions": SESSIONS,
            "num_partitions": workloads.NUM_PARTITIONS,
            "days": info.get("days"), "inputs": info["inputs"]}


def median(xs):
    return statistics.median(xs) if xs else 0.0


# ---------------------------------------------------------------------- main


def prepare_inputs(name: str, work: Path, seed: int) -> dict:
    """Inputs and expected output, made in a child process so generation
    and DuckDB never count toward the measured process tree's memory."""
    code = ("import sys; from perfbench.workloads import prepare; "
            "prepare(sys.argv[1], sys.argv[2], int(sys.argv[3]))")
    subprocess.run([sys.executable, "-c", code, name, str(work), str(seed)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    with open(work / "inputs.json") as f:
        return json.load(f)


def run(args) -> dict:
    import pandas as pd

    from perfbench import oracle, workloads

    wl = workloads.WORKLOADS[args.workload](args.work)
    info = prepare_inputs(args.workload, args.work, args.seed)
    expected = pd.read_parquet(args.work / "expected.parquet")
    days = tuple(info["days"]) if info.get("days") else None
    print(json.dumps({"environment": environment(args, info)}), flush=True)

    tracer = None
    if args.trace:
        from perfbench import tracing

        tracer = tracing.Tracer(info)
    budget = args.seconds / SESSIONS
    attempted = failed = 0
    setups, setup_walls, rss, plain, traced, cpus = [], [], [], [], [], []
    failures: list[str] = []
    n_pass = 0
    tmp = ray_temp_dir()

    def one_pass(trace: bool):
        """Run, time and check one pass; None when it raised."""
        nonlocal attempted, failed, n_pass
        pass_dir = args.work / f"pass{n_pass}"
        n_pass += 1
        attempted += 1
        try:
            c0 = tree_cpu()
            if trace:
                with tracer.pass_span(args.workload) as rec:
                    p = wl.run_pass(pass_dir, days)
                tracer.finish(rec, p)
            else:
                p = wl.run_pass(pass_dir, days)
            p.cpu_s = cpu_between(c0, tree_cpu())
            errs = oracle.compare(p.output(), expected, wl.check_specs,
                                  workloads.LIST_COLUMNS)
        except Exception as exc:  # a pass that raises is a failed pass
            traceback.print_exc()
            failed += 1
            failures.append(f"pass raised {exc!r}")
            return None
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        if not p.resume_clean:
            errs.append("resume call recomputed or rewrote output")
        if errs:
            failed += 1
            failures.extend(errs)
        return p

    for session in range(SESSIONS):
        c0, t0 = tree_cpu(), time.perf_counter()
        start_ray(tmp)
        try:
            init_cpu, init_s = cpu_between(c0, tree_cpu()), \
                time.perf_counter() - t0
            warm = one_pass(False)
            if warm is None:
                continue
            setups.append(init_cpu + warm.cpu_s)
            setup_walls.append(init_s + warm.seconds)
            # stop where the measured time lands nearest the budget
            spent, last, i = 0.0, 0.0, 0
            while spent + last / 2 < budget or (tracer and i < 2):
                # sessions alternate which kind of pass comes first
                trace = bool(tracer) and (i + session) % 2 == 1
                p = one_pass(trace)
                if p is None:
                    break
                (traced if trace else plain).append((p.seconds, p.rows))
                if not trace:
                    cpus.append(p.cpu_s)
                spent, last, i = spent + p.seconds, p.seconds, i + 1
            rss.append(tree_peak_rss_mb())
        finally:
            stop_ray()

    for msg in failures[:10]:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    if tracer:
        metrics = tracer.metrics(plain_s=median([s for s, _ in plain]),
                                 traced_s=median([s for s, _ in traced]))
        tracer.write(SCRATCH / "traces" /
                     f"{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "pass_cpu_s": (median(cpus), "s"),
            "rows_per_cpu_s": (
                median([r / c for (_, r), c in zip(plain, cpus)]), "rows/s"),
            "peak_rss_mb": (median(rss), "MB"),
            "ok_frac": ((attempted - failed) / max(attempted, 1), "ratio"),
            "setup_s": (median(setups), "s"),
        }
    print(json.dumps({"wall": {"pass_s": median([s for s, _ in plain]),
                               "passes": len(plain),
                               "setup_s": median(setup_walls)}}), flush=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still shuts Ray down and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _check_checkout()
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"have {sorted(workloads.WORKLOADS)}")
    args.work = SCRATCH / f"work-{os.getpid()}"
    args.work.mkdir(parents=True)
    try:
        result = run(args)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
        reap_descendants()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
