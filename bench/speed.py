"""The machine's relative speed, measured with fixed work of the benchmark.

Where cores are shared, the speed a process gets drifts by tens of percent
within a minute, and every timing drifts with it.  The benchmark therefore
times fixed work before and after the work it measures and divides each
measured time by the relative speed it finds: for computation a kernel of
three reference chases, pure Python like the engine, against NOMINAL_S; for
a process start, the start of a bare interpreter, against NOMINAL_START_S.
Times thus read as on a machine of nominal speed, and a change to the engine
moves them while a change of machine load does not.
"""

import subprocess
import sys
import time

import reference

# medians on 2 vCPUs with Python 3.11 at a quiet moment
NOMINAL_S = 0.0024
NOMINAL_START_S = 0.045
_KERNEL = ("coker", ("O", -20), ("TX",))


def sample():
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    for _ in range(3):
        reference.table_of(_KERNEL, -2, 2)
    return time.perf_counter() - start


def scaled(times, samples, after, nominal_s):
    """Scale times[r] to nominal speed by the mean of the two samples around
    it: samples[after[r]], taken right after it, and the one before."""
    return [t * nominal_s * 2 / (samples[i - 1] + samples[i]) for t, i in zip(times, after)]


def start_sample(env):
    """Seconds a bare interpreter takes to start and report that it is ready."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "print('ready', flush=True)"],
                            stdout=subprocess.PIPE, env=env, text=True)
    proc.stdout.readline()
    seconds = time.perf_counter() - start
    proc.communicate()
    return seconds
