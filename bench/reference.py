"""Fixed reference work that calibrates the benchmark's timings.

It mixes what the inkscan commands spend their time on: interpreter
start-up and the numpy import, a bytecode loop, float repr formatting and
streaming numpy arithmetic. It uses no inkscan code, so a change to the
program cannot move its time; only the machine's speed can. bench/run.py
runs it as its own process between the timed commands.
"""

import numpy as np

values = np.linspace(0.0, 255.0, 1 << 20)
total = 0.0
for _ in range(3):
    total += float((values * 1.0001 - 0.5).sum())
acc = 0
for i in range(120_000):
    acc += i * i % 7
text = ",".join(repr(float(v)) for v in values[:20_000])
print(len(text), acc, round(total))
