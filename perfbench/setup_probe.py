"""Set-up probe: a fresh interpreter imports rbfuq, reads configs, makes inputs.

Usage: python3 setup_probe.py <src-dir> <config.json>...

For each config it runs ``load_config`` and, for a study config,
``RunConfig.study()``, then generates the config's Halton points.  It
prints one JSON line with the seconds spent importing, parsing and
generating.
"""
import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rbfuq  # noqa: E402

t1 = time.perf_counter()
configs = []
for path in sys.argv[2:]:
    cfg = rbfuq.load_config(path)
    study = cfg.study() if cfg.schedule is not None else None
    configs.append((cfg, study))
t2 = time.perf_counter()
for cfg, study in configs:
    n = cfg.n if study is None else max(study.schedule[-1], study.reference.n_max or 0)
    rbfuq.halton_points(cfg.domain, n)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "inputs_s": t3 - t2}))
