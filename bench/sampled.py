"""Run a Python module as ``python3 -m`` would, sampling the host's speed.

    python3 bench/sampled.py DIR WHERE MODULE [ARG ...]

WHERE says which processes do the work and are sampled (hostspeed.arm):
``main`` is this process; ``workers`` is each process forked from it,
such as the pool workers of ``fineselmer batch --jobs N``, while this
process, which mostly waits for them, is not sampled.  Units are logged to
``DIR/<pid>.txt``, which hostspeed.HostSpeed.load reads back.  Apart from
the units, which take about 2.5 % of the sampled processes' time, the
module runs unchanged: same arguments, output and exit code.
"""

import os
import runpy
import sys

import hostspeed

directory, where, module, *args = sys.argv[1:]
if where == "main":
    hostspeed.arm(directory)
else:
    os.register_at_fork(after_in_child=lambda: hostspeed.arm(directory))
sys.argv = [module] + args
runpy.run_module(module, run_name="__main__", alter_sys=True)
