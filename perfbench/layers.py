"""Where the tracer wraps rbfuq, and the per-layer metrics of one round.

The wrappers sit where the callers look the functions up: the names
``rbfuq.study`` and ``rbfuq.cli`` imported, and ``kernel_matrix`` as
``rbfuq.collocation`` sees it.  Spans carry the kernel family, the
dimension D and the size N where the call has them.
"""
from __future__ import annotations

from rbfuq import cli, collocation, study
from rbfuq.models import External

from .tracer import self_times


def _points_attrs(args, kwargs, result):
    return {"D": args[0].dim, "N": args[1]}


def _evaluate_attrs(args, kwargs, result):
    kind = "external" if isinstance(args[0], External) else "in-process"
    return {"model": kind, "N": len(args[1])}


def _campaign_attrs(args, kwargs, result):
    attrs = {"N": len(args[1])}
    if result is not None:
        attrs.update(launched=result.launched, cached=result.cached)
    return attrs


def _gram_attrs(args, kwargs, result):
    return {"family": args[0].family, "D": args[0].dim, "N": len(args[1])}


def _matrix_attrs(args, kwargs, result):
    return {"family": args[0].family, "D": args[0].dim, "N": len(args[1]), "M": len(args[2])}


def _weights_attrs(args, kwargs, result):
    gram = args[0]
    return {"family": gram.spec.family, "D": gram.spec.dim, "N": gram.n, "reg": type(args[1]).__name__}


def _study_attrs(args, kwargs, result):
    cfg = args[0]
    estimates = len(cfg.kernels) * len(cfg.schedule) + (cfg.reference.kind == "kernel")
    return {
        "families": [k.family for k in cfg.kernels],
        "D": cfg.domain.dim,
        "N": cfg.schedule[-1],
        "estimates": estimates,
    }


def _cli_attrs(args, kwargs, result):
    return {"command": args[0][0], "status": result}


_PIPELINE = (
    ("halton_points", "param_space.halton", _points_attrs),
    ("evaluate_samples", "models.evaluate", _evaluate_attrs),
    ("assemble_gram", "collocation.gram", _gram_attrs),
    ("kernel_moments", "quadrature.moments", _gram_attrs),
    ("moment_weights", "quadrature.weights", _weights_attrs),
    ("run_study", "study.run", _study_attrs),
    ("write_report", "study.write", None),
)


def targets() -> list:
    """(module, attribute, span name, attrs) for every wrapped function."""
    out = [(module, attr, name, attrs) for module in (study, cli) for attr, name, attrs in _PIPELINE]
    out += [
        (study, "run_campaign", "models.campaign", _campaign_attrs),
        (cli, "main", "cli.main", _cli_attrs),
        (cli, "load_config", "config.load", None),
        (collocation, "kernel_matrix", "kernels.matrix", _matrix_attrs),
    ]
    return out


def metrics(spans, wall: float) -> dict:
    """Per-layer metrics of one traced round: name -> (value, unit)."""
    selfs = self_times(spans)

    def pick(name, **attrs):
        return [
            (s, own) for s, own in zip(spans, selfs)
            if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())
        ]

    def total(name, **attrs):
        return sum(s.duration for s, _ in pick(name, **attrs))

    def own(name):
        return sum(o for _, o in pick(name))

    def add(name, key, **attrs):
        return sum(s.attrs.get(key, 0) for s, _ in pick(name, **attrs))

    campaigns = pick("models.campaign")
    launching = [s for s, _ in campaigns if s.attrs.get("launched", 0) > 0]
    serving = [s for s, _ in campaigns if s.attrs.get("launched", 0) == 0]
    launched = sum(s.attrs["launched"] for s in launching)
    cached = sum(s.attrs.get("cached", 0) for s in serving)
    return {
        "param_space.halton_s": (total("param_space.halton"), "s"),
        "param_space.points": (add("param_space.halton", "N"), "count"),
        "models.evaluate_s": (total("models.evaluate", model="in-process"), "s"),
        "models.samples": (add("models.evaluate", "N", model="in-process"), "count"),
        "models.campaign_s": (total("models.campaign"), "s"),
        "models.launched": (add("models.campaign", "launched"), "count"),
        "models.cached": (add("models.campaign", "cached"), "count"),
        "models.launch_ms": (1000.0 * sum(s.duration for s in launching) / launched if launched else 0.0, "ms"),
        "models.cached_ms": (1000.0 * sum(s.duration for s in serving) / cached if cached else 0.0, "ms"),
        "kernels.matrix_s": (total("kernels.matrix"), "s"),
        "collocation.gram_s": (total("collocation.gram"), "s"),
        "collocation.gram_calls": (len(pick("collocation.gram")), "count"),
        "collocation.gram_entries": (sum(s.attrs["N"] ** 2 for s, _ in pick("collocation.gram")), "count"),
        "quadrature.moments_s": (total("quadrature.moments"), "s"),
        "quadrature.moments_calls": (len(pick("quadrature.moments")), "count"),
        "quadrature.moments_centres": (add("quadrature.moments", "N"), "count"),
        "quadrature.weights_s": (total("quadrature.weights"), "s"),
        "quadrature.weights_calls": (len(pick("quadrature.weights")), "count"),
        "quadrature.weights_rows": (add("quadrature.weights", "N"), "count"),
        "study.run_s": (total("study.run"), "s"),
        "study.self_s": (own("study.run"), "s"),
        "study.estimates": (add("study.run", "estimates"), "count"),
        "study.write_s": (total("study.write"), "s"),
        "cli.main_s": (total("cli.main"), "s"),
        "cli.self_s": (own("cli.main"), "s"),
        "trace.coverage": (sum(selfs) / wall, "ratio"),
    }
