"""Synthetic workloads matching the paper's experimental setup (Section 4.1).

Two families:

* the **road-network workload** — a square map with rectangular buildings
  surrounded by roads; pedestrians (0-1 units/s) and cars (1-2 units/s) move
  along roads, turn at crossroads with equal probability, and pedestrians
  occasionally enter/leave buildings.  Update messages are perturbed with
  noise and each object updates at a random interval between 0 and 5 s.
  This is the workload behind the school-effectiveness experiments
  (Figures 9-11).
* the **uniform workload** — objects placed uniformly at random with random
  velocities inside a region, used for the BigTable stress experiments
  (Figures 12-13).

Plus a nearest-neighbour query generator.
"""
