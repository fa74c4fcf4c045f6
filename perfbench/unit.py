"""One measured unit of a workload, run in a fresh interpreter.

    python3 perfbench/unit.py {probe|run|trace} {converge|sweep} CONFIG.json

A fresh interpreter per unit keeps the engine's in-process study cache
from serving a repeated study.  ``probe`` stops as soon as set-up is done
(the first path is about to be drawn), ``run`` measures the unit, and
``trace`` measures it with every layer's entry points wrapped in spans.
Timed pieces are ``[start, end, busy]`` on the monotonic clock, with the
host-speed kernel's own time left out of ``busy``; a traced unit runs
without the kernel.  The last line of standard output is one JSON object
with the results; the caller computes metrics and checks outputs from it.
"""

from __future__ import annotations

import hostspeed

if __name__ == "__main__":
    # Sample the host's speed from the first moment, so set-up is covered.
    SAMPLER = hostspeed.Sampler()
    SAMPLER.start()

import contextlib
import functools
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from spans import Tracer, arg_getter

# Metrics of each layer, in report order.  A layer whose entry point is
# gone is reported missing and its metrics are left out.
LAYER_METRICS = {
    "brownian.sample_path": ("brownian.sample_path.s", "brownian.sample_path.calls"),
    "brownian.wz_knot_slopes": ("brownian.wz_knot_slopes.s",),
    "solvers.reference": ("solvers.reference.s", "solvers.reference.path_steps"),
    "solvers.wz": ("solvers.wz.s", "solvers.wz.path_steps"),
    "solvers.schedule": ("solvers.schedule.s",),
    "geometry.resolve": ("geometry.resolve.s", "geometry.resolve.rows", "geometry.push_frac"),
    "geometry.eval": ("geometry.eval.s",),
    "coefficients.eval": (
        "coefficients.eval.s",
        "coefficients.sigma.calls",
        "coefficients.grad_sigma.calls",
    ),
    "harness.engine": ("harness.engine.s", "harness.engine.calls", "harness.engine.computed"),
    "harness.reduce": ("harness.reduce.s",),
    "cli.config": ("cli.config.s",),
    "cli.emit": ("cli.emit.s",),
}

# Largest boundary distance a returned state may have.
FEASIBLE_TOL = 1e-9


class SetupDone(Exception):
    """Raised by a probe at the first path, to stop the study there."""


def _check_source(module):
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"{module.__name__} imported from {module.__file__}, not from {src}")


# ---------------------------------------------------------------------------
# Counting hooks
# ---------------------------------------------------------------------------

def _count(metric):
    def hook(counts, args, kwargs, result, child_s):
        counts[metric] += 1

    return hook


def _reference_steps(fn):
    x0, out_steps = arg_getter(fn, "x0"), arg_getter(fn, "out_steps")

    def hook(counts, args, kwargs, result, child_s):
        steps = int(np.max(out_steps(args, kwargs), initial=0))
        counts["solvers.reference.path_steps"] += len(x0(args, kwargs)) * steps

    return hook


def _wz_steps(fn):
    x0, times = arg_getter(fn, "x0"), arg_getter(fn, "times")

    def hook(counts, args, kwargs, result, child_s):
        counts["solvers.wz.path_steps"] += len(x0(args, kwargs)) * (len(times(args, kwargs)) - 1)

    return hook


def _resolve_rows(counts, args, kwargs, result, child_s):
    counts["geometry.resolve.rows"] += len(args[0])
    counts["geometry.resolve.pushed"] += int(np.count_nonzero(np.any(result[1] != 0.0, axis=1)))


def _engine(fn):
    def hook(counts, args, kwargs, result, child_s):
        counts["harness.engine.calls"] += 1
        # A study served from the cache opens no span below the engine.
        counts["harness.engine.computed"] += child_s > 0.0

    return hook


def _traced_domain(tracer, domain):
    return tracer.wrap_fields(
        domain,
        {
            "resolve_batch": ("geometry.resolve", _resolve_rows),
            "boundary_distance": ("geometry.eval", None),
            "phi": ("geometry.eval", None),
        },
    )


def _traced_coefficients(tracer, coeffs):
    return tracer.wrap_fields(
        coeffs,
        {
            "sigma": ("coefficients.eval", _count("coefficients.sigma.calls")),
            "grad_sigma": ("coefficients.eval", _count("coefficients.grad_sigma.calls")),
            "b": ("coefficients.eval", None),
        },
    )


def _trace_solvers(tracer, module):
    """Spans on the solver entry points as ``module`` imports them."""
    tracer.patch("brownian.wz_knot_slopes", module, "wz_knot_slopes")
    tracer.patch("solvers.reference", module, "integrate_reference_batch", _reference_steps)
    tracer.patch("solvers.wz", module, "integrate_wz_batch", _wz_steps)
    for name in ("wz_schedule", "coupled_output_grid", "fine_grid_positions"):
        tracer.patch("solvers.schedule", module, name)


def _trace_converge(tracer):
    from reflectedsde import cli, harness, solvers

    tracer.patch("brownian.sample_path", harness, "sample_path",
                 lambda fn: _count("brownian.sample_path.calls"))
    _trace_solvers(tracer, harness)
    tracer.patch("coefficients.eval", solvers, "ito_drift_batch")
    tracer.patch("harness.engine", harness, "run_coupling_stats", _engine)
    tracer.patch("harness.reduce", harness, "estimate_strong_error")
    tracer.patch("harness.reduce", harness, "lyapunov_decay_check")
    tracer.patch("cli.config", cli, "_load_config")
    tracer.patch("cli.config", cli.ExperimentConfig, "validate")
    tracer.patch("cli.emit", cli, "_json_text")
    tracer.patch("cli.emit", cli, "_emit")
    # The domain and coefficients the config builds carry traced callables.
    for name, wrap_result, layers in (
        ("make_domain", _traced_domain, ("geometry.resolve", "geometry.eval")),
        ("make_coefficients", _traced_coefficients, ("coefficients.eval",)),
    ):
        build = getattr(cli, name, None)
        if build is None:
            for layer in layers:
                tracer.missing[layer].append(f"cli.{name}")
        else:
            setattr(cli, name, functools.partial(_build_traced, tracer, build, wrap_result))


def _build_traced(tracer, build, wrap_result, *args, **kwargs):
    return wrap_result(tracer, build(*args, **kwargs))


def trace_metrics(tracer, wall_s):
    """Per-layer metrics of a traced unit, without the missing layers."""
    counts = tracer.counts
    values = {f"{layer}.s": tracer.self_s[layer] for layer in LAYER_METRICS}
    values.update(counts)
    rows = counts["geometry.resolve.rows"]
    values["geometry.push_frac"] = counts["geometry.resolve.pushed"] / rows if rows else 0.0
    metrics = {
        name: float(values.get(name, 0))
        for layer, names in LAYER_METRICS.items()
        if layer not in tracer.missing
        for name in names
    }
    return {
        "metrics": metrics,
        "missing": {layer: sorted(set(v)) for layer, v in tracer.missing.items()},
        "wall_s": wall_s,
        "top_level_s": tracer.top_level_s,
    }


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------

def _mark(sampler):
    return time.monotonic(), sampler.spent


def _piece(sampler, mark):
    """``[start, end, busy]`` since ``mark``; busy leaves out the kernel's time."""
    start, spent = mark
    end = time.monotonic()
    return [start, end, end - start - (sampler.spent - spent)]


def converge_unit(mode, config_path, sampler):
    """One `reflectedsde converge` through ``cli.main``, in this process."""
    from reflectedsde import cli, harness

    _check_source(harness)
    result = {"chunks": []}
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        _trace_converge(tracer)
    elif hasattr(harness, "_chunk_stats"):
        # Amortised per-path latency: one sample per batch the engine marches.
        chunk = harness._chunk_stats

        def timed_chunk(*args, **kwargs):
            mark = _mark(sampler)
            out = chunk(*args, **kwargs)
            result["chunks"].append(_piece(sampler, mark) + [len(out[0])])
            return out

        harness._chunk_stats = timed_chunk

    # Set-up ends when the engine is entered to draw the first path.
    engine = harness.run_coupling_stats

    def first_engine_call(*args, **kwargs):
        if "first_path_t" not in result:
            result.update(first_path_t=time.monotonic(), setup_kernel_s=sampler.spent)
        if mode == "probe":
            raise SetupDone
        return engine(*args, **kwargs)

    harness.run_coupling_stats = first_engine_call

    out = io.StringIO()
    mark = _mark(sampler)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["converge", "--config", config_path])
    except SetupDone:
        return result
    except Exception as exc:  # a defect in the program fails the unit, not the run
        code, result["error"] = None, repr(exc)
    result["wall"] = _piece(sampler, mark)
    result["exit_code"] = code
    result["report"] = out.getvalue()
    if tracer is not None:
        result["trace"] = trace_metrics(tracer, result["wall"][2])
    return result


def sweep_unit(mode, config, sampler):
    """Sequential single-path calls of ``sample_path`` + ``coupled_solve``."""
    import reflectedsde as rs
    from reflectedsde import harness, solvers

    _check_source(rs)
    domain = rs.make_domain(config["domain"]["name"], **config["domain"]["params"])
    coeffs = rs.make_coefficients(
        config["coefficients"]["name"], **config["coefficients"]["params"]
    )
    sample_path, run_domain, run_coeffs = rs.sample_path, domain, coeffs
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        _trace_solvers(tracer, solvers)
        tracer.patch("coefficients.eval", solvers, "ito_drift_batch")
        sample_path = tracer.wrap(
            "brownian.sample_path", sample_path, _count("brownian.sample_path.calls")
        )
        run_domain = _traced_domain(tracer, domain)
        run_coeffs = _traced_coefficients(tracer, coeffs)

    m, T, seed = coeffs.dim_noise, config["T"], config["seed"]
    x0, level, fine_level = config["x0"], config["level"], config["fine_level"]
    substeps = config["substeps_per_knot"]
    result = {"first_path_t": time.monotonic(), "setup_kernel_s": sampler.spent}
    if mode == "probe":
        return result

    calls, sup, ref_var, raised, bad = [], [], [], [], []
    for i in range(config["calls"]):
        mark = _mark(sampler)
        try:
            path = sample_path(m, T, fine_level, harness.path_seed(seed, i))
            approx, ref = rs.coupled_solve(
                run_domain, run_coeffs, path, level, substeps, x0, [T], record_substeps=True
            )
        except Exception as exc:  # a call that raises is a failed path
            raised.append(f"call {i}: {exc!r}")
            continue
        calls.append(_piece(sampler, mark))
        problem = _path_problem(domain, approx, ref)
        if problem:
            bad.append(f"call {i}: {problem}")
            continue
        sup.append(float(np.max(np.linalg.norm(approx.states - ref.states, axis=1))))
        ref_var.append(float(ref.variation[-1]))
    result.update(calls=calls, sup=sup, ref_var=ref_var, raised=raised, bad=bad)
    if tracer is not None:
        result["trace"] = trace_metrics(tracer, sum(busy for _, _, busy in calls))
    return result


def _path_problem(domain, approx, ref):
    """What is wrong with one coupled pair, or an empty string."""
    for label, p in (("approx", approx), ("reference", ref)):
        if not np.all(np.isfinite(p.states)):
            return f"{label} has non-finite states"
        if float(np.max(domain.boundary_distance(p.states))) > FEASIBLE_TOL:
            return f"{label} leaves the domain"
        if np.any(np.diff(p.variation) < 0.0):
            return f"{label} regulator variation decreases"
        if p.substeps is None or len(p.substeps.times) == 0:
            return f"{label} has no substep log"
    if approx.times.shape != ref.times.shape or np.any(approx.times != ref.times):
        return "output grids differ"
    return ""


def main(argv, sampler):
    mode, kind, config_path = argv
    if mode not in ("probe", "run", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    if mode == "trace":
        sampler.stop()  # keep the kernel out of the spans
    if kind == "converge":
        result = converge_unit(mode, config_path, sampler)
    elif kind == "sweep":
        with open(config_path) as fh:
            result = sweep_unit(mode, json.load(fh), sampler)
    else:
        raise SystemExit(f"unknown workload kind {kind!r}")
    sampler.stop()
    result["kernel_samples"] = sampler.samples
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:], SAMPLER)
