"""Span-and-count tracing installed from outside the program.

``Tracer.install`` rebinds the public callables of each ``plastinfer``
layer to wrappers that time every call. Self time is a span's duration
minus the time its child spans cover, accumulated per span name; spans
are aggregated as they close rather than kept, so a run of a million
target calls needs no span buffer. ``uninstall`` restores every binding.

Only bindings the program actually calls through are wrapped. In
particular ``stress`` and ``stress_lenh`` are wrapped where ``likelihood``
binds them, so the response band's own ``stress`` calls are part of the
``sampler.response_band`` span and not of ``models.stress``.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import plastinfer
from plastinfer import cli, data, likelihood, models, posterior, priors, sampler

_MODULES = (plastinfer, cli, data, likelihood, models, posterior, sampler)


def _bytes_written(argv: list[str]) -> int:
    """Size of what a CLI call wrote: its output file and sidecar, or its output directory."""
    for flag in ("--output", "--output-dir"):
        if flag in argv:
            target = Path(argv[argv.index(flag) + 1])
            files = [target, target.with_suffix(".json")] if flag == "--output" else target.rglob("*")
            return sum(p.stat().st_size for p in files if p.is_file())
    return 0


class Tracer:
    """Per-span call counts and self times, plus named counters."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.active = True
        self._child_time: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``after(tracer, result, args)`` runs once the span has closed, to
        update counters from the call's arguments or result.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - children
                self.total_s[name] += elapsed
            if after is not None:
                after(self, result, args)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def rebind(self, name: str, fn, after=None, modules=_MODULES) -> None:
        """Wrap ``fn`` in every module of ``modules`` that binds it."""
        wrapped = self.wrap(name, fn, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def install(self) -> None:
        def off_support(tracer, result, args):
            if result == -math.inf:
                tracer.counts["posterior.offsupport"] += 1

        def lenh_points(tracer, result, args):
            tracer.counts["models.stress_lenh.points"] += int(np.size(args[0]))

        def chain_steps(tracer, chain, args):
            tracer.counts["sampler.steps"] += len(chain)
            tracer.counts["sampler.accepted"] += chain.n_accepted

        def cli_bytes(tracer, code, args):
            tracer.counts["cli.bytes_written"] += _bytes_written(args[0])

        cls = posterior.LogPosterior
        self._set(cls, "__call__", self.wrap("posterior", cls.__call__, off_support))
        cls = priors.TruncatedNormalPrior
        self._set(cls, "log_density", self.wrap("priors.log_density", cls.log_density))
        cls = models.ParameterVector
        from_array = cls.__dict__["from_array"].__func__
        self._set(cls, "from_array", classmethod(self.wrap("models.parameter_vector", from_array)))

        self.rebind("likelihood", likelihood.log_likelihood)
        self.rebind("models.stress", models.stress, modules=(likelihood,))
        self.rebind("models.stress_lenh", models.stress_lenh, lenh_points, modules=(likelihood,))
        self.rebind("sampler", sampler.run_adaptive_mh, chain_steps)
        self.rebind("sampler", sampler.run_mh, chain_steps)
        self.rebind("sampler.summarize", sampler.summarize)
        self.rebind("sampler.ess", sampler.effective_sample_size)
        self.rebind("sampler.convergence_trace", sampler.convergence_trace)
        self.rebind("sampler.response_band", sampler.response_band)
        self.rebind("sampler.save_chain", sampler.save_chain)
        self.rebind("data.generate", data.generate_single_noise)
        self.rebind("data.generate", data.generate_double_noise)
        self.rebind("data.read", data.read_measurements)
        self.rebind("data.write", data.write_measurements)
        self.rebind("cli", cli.main, cli_bytes)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics by name, in the units the benchmark declares."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        steps = counts["sampler.steps"]
        return {
            "posterior.calls": calls["posterior"],
            "posterior.self_s": self_s["posterior"],
            "posterior.offsupport_ratio": counts["posterior.offsupport"] / max(calls["posterior"], 1),
            "priors.log_density.calls": calls["priors.log_density"],
            "priors.log_density.self_s": self_s["priors.log_density"],
            "likelihood.calls": calls["likelihood"],
            "likelihood.self_s": self_s["likelihood"],
            "likelihood.us_per_call": 1e6 * self.total_s["likelihood"] / max(calls["likelihood"], 1),
            "models.stress.calls": calls["models.stress"],
            "models.stress.self_s": self_s["models.stress"],
            "models.stress_lenh.calls": calls["models.stress_lenh"],
            "models.stress_lenh.points": counts["models.stress_lenh.points"],
            "models.stress_lenh.self_s": self_s["models.stress_lenh"],
            "models.parameter_vector.calls": calls["models.parameter_vector"],
            "sampler.steps": steps,
            "sampler.self_s": self_s["sampler"],
            "sampler.us_per_step_self": 1e6 * self_s["sampler"] / max(steps, 1),
            "sampler.acceptance_ratio": counts["sampler.accepted"] / max(steps, 1),
            "sampler.summarize.self_s": self_s["sampler.summarize"],
            "sampler.ess.self_s": self_s["sampler.ess"],
            "sampler.convergence_trace.self_s": self_s["sampler.convergence_trace"],
            "sampler.response_band.self_s": self_s["sampler.response_band"],
            "sampler.save_chain.self_s": self_s["sampler.save_chain"],
            "data.generate.self_s": self_s["data.generate"],
            "data.write.self_s": self_s["data.write"],
            "data.read.self_s": self_s["data.read"],
            "cli.self_s": self_s["cli"],
            "cli.bytes_written": counts["cli.bytes_written"],
        }
