"""Span tracing of the `alphaeuler` modules from outside the package.

`Tracer.install` wraps the functions of every package module and rebinds
each wrapper under every name the package bound the original to, because
the modules import one another's functions with `from ... import`.  It
also wraps the 2-D FFT entry points of `numpy.fft` and `scipy.fft`,
`pathlib.Path.write_text` (output files) and the harness thread pool.
Spans are kept in memory with a parent index; each thread has its own
parent stack, and a job submitted to the pool takes the submitting span
as its parent.  `layer_metrics` folds the spans into the per-layer
metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import pathlib
import statistics
import sys
import threading
from time import perf_counter as clock

LAYERS = ("spectral", "vorticity", "solver", "lagrangian", "initial_data", "bounds", "harness", "cli")
FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")
# Private harness functions that are the units the metrics are made of.
HARNESS_PRIVATE = ("_run_alpha", "_trajectory", "_velocity_err_l2", "_velocity_err_l2_pair")
# Step-time medians are reported for these grid sizes (0 when not run).
STEP_SIZES = (128, 256, 512)
POOL = "harness.pool"


def _nbytes(args, kwargs, out):
    return getattr(args[0], "nbytes", 0) + getattr(out, "nbytes", 0)


def _run_info(args, kwargs, out):
    q0 = args[0] if args else kwargs["q0"]
    a = args[1] if len(args) > 1 else kwargs["a"]
    return (q0.grid.n, a.alpha)


INFO = {
    "solver.run": _run_info,
    "solver.step": lambda args, kwargs, out: args[0].q.grid.n,
    "lagrangian.bicubic_sample": lambda args, kwargs, out: args[1].shape[0],
    "io.write_text": lambda args, kwargs, out: len(args[1]),
}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, thread id, info]
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []

    # --- recording -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "base", -1)

    def open(self, name: str) -> int:
        rec = [name, 0.0, 0.0, self._parent(), threading.get_ident(), None]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        self._stack().append(idx)
        rec[1] = clock()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self._stack().pop()

    def wrap(self, name: str, fn):
        info = _nbytes if name.startswith("fft.") else INFO.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if info is not None:
                tracer.spans[idx][5] = info(args, kwargs, out)
            return out

        return traced

    # --- installation ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the package's functions, FFT entry points, file writes and
        thread pool; `uninstall` puts the originals back."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package.__name__ or k.startswith(package.__name__ + "."))]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and not (layer == "harness" and attr in HARNESS_PRIVATE):
                    continue
                wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
            for attr, obj in vars(mod).items():
                method = inspect.isclass(obj) and obj.__module__ == mod.__name__ and obj.__dict__.get("from_states")
                if isinstance(method, classmethod):
                    fn = self.wrap(f"{layer}.{obj.__name__}.from_states", method.__func__)
                    self._set(obj, "from_states", classmethod(fn))

        fft_modules = [sys.modules[k] for k in ("numpy.fft", "scipy.fft") if k in sys.modules]
        for mod in fft_modules:
            for attr in FFT_NAMES:
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(f"fft.{attr}", fn)
                self._set(mod, attr, wrapped[id(fn)])

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and not inspect.ismodule(obj):
                    self._set(mod, attr, wrapped[id(obj)])

        self._set(pathlib.Path, "write_text", self.wrap("io.write_text", pathlib.Path.write_text))

        harness = sys.modules[f"{package.__name__}.harness"]
        if inspect.isclass(getattr(harness, "ThreadPoolExecutor", None)):
            self._set(harness, "ThreadPoolExecutor", self._pool_class(harness.ThreadPoolExecutor))

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """Jobs take the submitting span as parent; `map` waits for its
            results inside a `harness.pool` span, so the caller's wait is
            not counted as harness work."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._parent()

                def job(*a, **kw):
                    tracer._local.base = parent
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer._local.base = -1

                return super().submit(job, *args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                idx = tracer.open(POOL)
                try:
                    results = list(super().map(fn, *iterables, **kwargs))
                finally:
                    tracer.close(idx)
                return iter(results)

        return TracedPool

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # --- analysis --------------------------------------------------------

    def self_times(self) -> list:
        """Span duration minus the same-thread child spans it encloses."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            parent = s[3]
            if parent >= 0 and self.spans[parent][4] == s[4]:
                own[parent] -= s[2] - s[1]
        return own

    def ancestors(self, idx: int):
        parent = self.spans[idx][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def layer_self_times(self) -> dict:
        out = {}
        for s, own in zip(self.spans, self.self_times()):
            layer = "harness.pool_wait" if s[0] == POOL else s[0].split(".")[0]
            if s[0] == "harness.compare_bounds":
                layer = "bounds"
            out[layer] = out.get(layer, 0.0) + own
        return out

    def layer_metrics(self, wall: float, workers: int, n_ref: int, main_thread: int) -> tuple:
        """Per-layer metrics and the problems found checking the spans."""
        spans = self.spans
        own = self.self_times()
        problems = []
        if any(s[2] < s[1] for s in spans):
            problems.append("trace: a span was left open")
        main_self = sum(o for s, o in zip(spans, own) if s[4] == main_thread)
        if abs(main_self - wall) > 0.01 * wall:
            problems.append(f"trace: main-thread self times {main_self:.4f} s != traced wall {wall:.4f} s")
        if any(o < -1e-6 for o in own):
            problems.append("trace: child spans exceed their parent")

        def named(name):
            return [s for s in spans if s[0] == name]

        def total(name):
            return sum(s[2] - s[1] for s in named(name))

        def outermost(pred):
            """Spans matching pred with no matching ancestor."""
            chosen = []
            for i, s in enumerate(spans):
                if pred(s[0]) and not any(pred(a) for a in self.ancestors(i)):
                    chosen.append(s)
            return chosen

        m = {}
        ffts = [s for s in spans if s[0].startswith("fft.")]
        m["spectral.fft.calls"] = len(ffts)
        m["spectral.fft.s"] = sum(s[2] - s[1] for s in ffts)
        m["spectral.fft.gb_computed"] = sum(s[5] or 0 for s in ffts) / 1e9
        for name in (
            "spectral.to_physical",
            "spectral.restrict",
            "vorticity.biot_savart",
            "vorticity.helmholtz_filter",
            "vorticity.lp_norm",
        ):
            m[f"{name}.calls"] = len(named(name))
            m[f"{name}.s"] = total(name)

        runs = named("solver.run")
        steps = named("solver.step")
        m["solver.run.calls"] = len(runs)
        m["solver.steps"] = len(steps)
        m["solver.step.s"] = sum(s[2] - s[1] for s in steps)
        for n in STEP_SIZES:
            ms = [1e3 * (s[2] - s[1]) for s in steps if s[5] == n]
            m[f"solver.step.ms.n{n}"] = statistics.median(ms) if ms else 0.0
        m["solver.sample.s"] = total("solver.run") - sum(
            s[2] - s[1] for s in steps if s[3] >= 0 and spans[s[3]][0] == "solver.run"
        )

        m["lagrangian.advect.s"] = sum(
            s[2] - s[1] for s in outermost(lambda nm: nm == "lagrangian.advect_particles")
        )
        bicubic = named("lagrangian.bicubic_sample")
        samples = sum(s[5] for s in bicubic)
        m["lagrangian.bicubic.calls"] = len(bicubic)
        m["lagrangian.bicubic.msamples"] = samples / 1e6
        m["lagrangian.bicubic.ns_per_sample"] = (
            1e9 * sum(s[2] - s[1] for s in bicubic) / samples if samples else 0.0
        )
        m["lagrangian.history.s"] = total("lagrangian.VelocityHistory.from_states")
        m["lagrangian.l1_gap.s"] = total("lagrangian.velocity_l1_gap")

        # Role of each solver run, in start order: the first unfiltered run
        # on the reference grid is the reference, any other unfiltered run
        # is the Richardson run, and filtered runs are alpha jobs.
        roles = {"reference": 0.0, "richardson": 0.0, "alpha": []}
        seen_reference = False
        for s in sorted(runs, key=lambda s: s[1]):
            n, alpha = s[5]
            if alpha == 0.0 and n == n_ref and not seen_reference:
                seen_reference = True
                roles["reference"] += s[2] - s[1]
            elif alpha == 0.0:
                roles["richardson"] += s[2] - s[1]
            else:
                roles["alpha"].append(s)
        jobs = named("harness._run_alpha") or roles["alpha"]
        m["harness.reference.s"] = roles["reference"]
        m["harness.richardson.s"] = roles["richardson"]
        m["harness.alpha_job.s"] = sum(s[2] - s[1] for s in jobs)
        m["harness.alpha_phase.s"] = (
            max(s[2] for s in jobs) - min(s[1] for s in jobs) if jobs else 0.0
        )
        m["harness.parallel_eff"] = (
            m["harness.alpha_job.s"] / (workers * m["harness.alpha_phase.s"])
            if jobs else 0.0
        )

        # Error evaluation: spectral/vorticity work and the harness error
        # helpers, outside the solver, the particle code and the bounds.
        def is_error(nm):
            return nm.split(".")[0] in ("spectral", "vorticity") or nm in (
                "harness._velocity_err_l2", "harness._velocity_err_l2_pair", "harness.compare_states"
            )

        elsewhere = ("solver.", "lagrangian.", "initial_data.", "bounds.", "harness.compare_bounds")
        error_eval = 0.0
        for i, s in enumerate(spans):
            if not is_error(s[0]):
                continue
            anc = list(self.ancestors(i))
            if any(is_error(a) for a in anc) or any(a.startswith(elsewhere) for a in anc):
                continue
            error_eval += s[2] - s[1]
        m["harness.error_eval.s"] = error_eval

        persist = outermost(lambda nm: nm in ("harness.persist_report", "io.write_text"))
        m["harness.persist.s"] = sum(s[2] - s[1] for s in persist)
        m["harness.persist.bytes"] = sum(s[5] for s in named("io.write_text"))
        m["harness.self.s"] = sum(
            o for s, o in zip(spans, own)
            if s[0].startswith("harness.") and s[0] not in (POOL, "harness.compare_bounds")
        )
        m["initial_data.build.s"] = sum(
            s[2] - s[1] for s in outermost(lambda nm: nm.startswith("initial_data."))
        )
        m["bounds.K.calls"] = len(named("bounds.velocity_rate_K"))
        m["bounds.compare.s"] = total("harness.compare_bounds")
        return m, problems

    def write(self, path) -> None:
        """Spans as gzipped CSV: name, start, end, parent, thread, info."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_s,end_s,parent,thread,info\n")
            t0 = min((s[1] for s in self.spans), default=0.0)
            for s in self.spans:
                info = "" if s[5] is None else str(s[5]).replace(",", ";")
                fh.write(f"{s[0]},{s[1] - t0:.9f},{s[2] - t0:.9f},{s[3]},{s[4]},{info}\n")
