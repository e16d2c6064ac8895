"""Set-up probe: a fresh interpreter imports steinmpc, builds a workload's config
and runs one control cycle (lazy imports such as ``scipy.special`` included).

    python3 bench/setup_probe.py cartpole-adaptive

``bench/run.py`` times several of these and reports the median as ``setup_s``.
"""

import sys

import workloads

workload = workloads.WORKLOADS[sys.argv[1]]
workloads.warm_up(workload.trial_config())
