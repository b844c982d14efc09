"""Fixed pure-Python work whose wall time is the benchmark's unit of time, "ref".

The end-to-end times are divided by the time of this script measured in the
same pass. On a shared host the machine's speed moves every time by up to a
third for minutes at a time; the ratio cancels that out. The script imports
nothing from trustpath, so no change to the program moves it.
"""

import random

rng = random.Random(1)
values = {}
rows = []
for i in range(60_000):
    key = (str(i % 997), i)
    values[key] = rng.random()
    rows.append((-values[key], i, key))
rows.sort()
mean = sum(values.values()) / len(values)
