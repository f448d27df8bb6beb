"""The 400-run scaling replay: 5 environments x 4 sizes x 20 iterations.

Replays the measured walltime table, drawing each cell's iterations
from its row, and prints the simulated means next to the reference ones.
"""

from convergesim import orchestrator, workloads
from convergesim.reporting import emit_report

cfg = orchestrator.default_config(orchestrator.SCALING_STUDY, seed=42)
bundle = orchestrator.run_scaling_study(cfg)
print(f"replayed {len(bundle.lammps_samples)} runs "
      f"({len(bundle.lammps_cells)} cells x {cfg.iterations} iterations)\n")

print(f"{'environment':28s} {'nodes':>5s} {'ranks':>5s} "
      f"{'replay mean':>12s} {'reference':>10s} {'ref sd':>7s} {'cpu %':>6s}")
for cell in bundle.lammps_cells:
    ref = workloads.table_row(cell["environment"], cell["nodes"])
    print(f"{cell['environment']:28s} {cell['nodes']:5d} {cell['ranks']:5d} "
          f"{cell['mean_s']:12.2f} {ref.mean_s:10.2f} {ref.stddev_s:7.3f} "
          f"{cell['cpu_pct']:6.2f}")

gap = (
    next(c["mean_s"] for c in bundle.lammps_cells
         if c["environment"] == "usernetes" and c["nodes"] == 32)
    - next(c["mean_s"] for c in bundle.lammps_cells
           if c["environment"] == "bare_metal" and c["nodes"] == 32)
)
print(f"\n32-node gap, in-cluster vs bare metal: {gap:.2f} s")

files = emit_report(bundle, "out/scaling")
print(f"report files written to out/scaling ({len(files)} files)")
