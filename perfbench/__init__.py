"""Host-time benchmark of the DVR reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics; see NOTES.md
for what each workload and metric is for.  Everything here drives the
``repro`` package from outside: nothing under ``src/`` knows about it.
"""
