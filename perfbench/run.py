#!/usr/bin/env python3
"""Build and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it). The script builds
the benchmark executable and the `pfs` server with dune into a private
build directory, `.bench_build`, then runs the executable under a
wall-clock watchdog. The executable's stdout passes through unchanged:
its last line is the JSON result. Build output goes to stderr. The exit
code is the executable's, or non-zero when the build fails.

Every process the run starts is stopped and reaped before this script
exits, and the run's private directory under `.bench_tmp` (server
image, socket and log) is removed.
"""

import argparse
import ctypes
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

BUILD_DIR = ".bench_build"
TMP_ROOT = ".bench_tmp"
TARGETS = ["./perfbench/capbench_main.exe", "./bin/pfs_main.exe"]
BUILD_TIMEOUT_S = 850
PR_SET_CHILD_SUBREAPER = 36


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def become_subreaper():
    """Adopt orphaned descendants (a server whose parent died), so they
    can be reaped here."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR] + TARGETS
    try:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return False
    if res.returncode != 0:
        log("build failed with exit code %d" % res.returncode)
        return False
    return True


def reap_all(pgid):
    """Kill what is left of the run's process group, then reap every
    child this process has, adopted orphans included."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return
        except InterruptedError:
            continue


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    t0 = time.monotonic()
    if not build():
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "capbench_main.exe")
    pfs = os.path.join(BUILD_DIR, "default", "bin", "pfs_main.exe")
    log("built in %.1f s" % (time.monotonic() - t0))

    become_subreaper()
    os.makedirs(TMP_ROOT, exist_ok=True)
    # relative and short: a Unix socket path stops at 108 bytes
    tmpdir = os.path.relpath(tempfile.mkdtemp(prefix="r", dir=TMP_ROOT))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--pfs", pfs, "--tmpdir", tmpdir,
           "--clk-tck", str(os.sysconf("SC_CLK_TCK"))]
    # a run ends within 180 s; one that had to build, within 900 s
    watchdog_s = min(max(170, 2 * args.seconds + 70),
                     890 - (time.monotonic() - t0))
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=watchdog_s)
    except subprocess.TimeoutExpired:
        log("watchdog: no exit after %.0f s, killing the run" % watchdog_s)
        code = 3
    except KeyboardInterrupt:
        code = 130
    finally:
        reap_all(proc.pid)
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())
