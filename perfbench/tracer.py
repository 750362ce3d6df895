"""In-memory span tracer for one ``levyfit`` process.

`Tracer.install()` replaces the public functions at each layer boundary
with wrappers that record a span per call: its name, the span that was
open when it started (its parent), start, end and whether it raised.
Each function is patched where its caller looks it up (for example
``levyfit.optimizer.solve_forward``, not ``levyfit.forward.solve_forward``),
and `CyclicSolver` methods on the class itself.  Spans stay in flat arrays
until `summary()` / `dump()` at process exit; every span of the process
belongs to one trace, the CLI command being run.

Self time of a span is its duration minus the durations of its direct
children, so the self times of all spans add up to the traced wall time.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# (span name, module the caller looks the function up in, attribute)
BOUNDARIES = (
    ("config.load_config", "levyfit.cli", "load_config"),
    ("experiment.run_experiment", "levyfit.cli", "run_experiment"),
    ("samples.ingest_samples", "levyfit.cli", "ingest_samples"),
    ("samples.write_samples_csv", "levyfit.cli", "write_samples_csv"),
    ("preprocess.preprocess_financial", "levyfit.cli", "preprocess_financial"),
    ("experiment.acquire_samples", "levyfit.experiment", "acquire_samples"),
    ("samples.ingest_samples", "levyfit.experiment", "ingest_samples"),
    ("simulate.sample", "levyfit.experiment", "sample_compound_poisson"),
    ("simulate.sample", "levyfit.experiment", "sample_bigamma"),
    ("torus.project_to_torus", "levyfit.experiment", "project_to_torus"),
    ("torus.project_to_torus", "levyfit.simulate", "project_to_torus"),
    ("optimizer.calibrate", "levyfit.optimizer", "calibrate"),
    ("optimizer.linesearch", "levyfit.optimizer", "armijo_linesearch"),
    ("optimizer.reduced_gradient", "levyfit.optimizer", "reduced_gradient"),
    ("optimizer.gradient_from_histories", "levyfit.optimizer",
     "gradient_from_histories"),
    ("likelihood.evaluate_objective", "levyfit.optimizer", "evaluate_objective"),
    ("forward.solve_forward", "levyfit.optimizer", "solve_forward"),
    ("adjoint.solve_adjoint", "levyfit.optimizer", "solve_adjoint"),
    ("adjoint.terminal_condition", "levyfit.optimizer", "terminal_condition"),
    ("forward.euler_step", "levyfit.forward", "euler_step"),
    ("forward.bdf2_step", "levyfit.forward", "bdf2_step"),
    ("forward.apply_jump_operator", "levyfit.forward", "apply_jump_operator"),
    ("adjoint.adjoint_jump_operator", "levyfit.adjoint", "adjoint_jump_operator"),
    ("cyclic.factor", "levyfit.cyclic", "CyclicSolver.__init__"),
    ("cyclic.solve", "levyfit.cyclic", "CyclicSolver.solve"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._error = array("b")
        self._open = [-1]
        self.linesearch_evals = 0

    def wrap(self, name: str, fn):
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        names, parents = self._name, self._parent
        starts, ends, errors, open_spans = (self._start, self._end,
                                            self._error, self._open)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(open_spans[-1])
            errors.append(0)
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                open_spans.pop()

        return traced

    def install(self) -> None:
        import importlib

        for name, module_name, attr in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
            if name == "optimizer.linesearch":
                fn = self._count_evals(fn)
            setattr(owner, leaf, self.wrap(name, fn))

    def _count_evals(self, linesearch):
        """Counts trial evaluations, including those of a failed search."""
        def counted(evaluate, *args, **kwargs):
            def counting(step):
                self.linesearch_evals += 1
                return evaluate(step)
            return linesearch(counting, *args, **kwargs)
        return counted

    def _arrays(self):
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        duration = (np.frombuffer(self._end, dtype=np.float64)
                    - np.frombuffer(self._start, dtype=np.float64))
        error = np.frombuffer(self._error, dtype=np.int8)
        return name, parent, duration, error

    def summary(self) -> dict:
        """Calls, total, self time and errors per span name."""
        name, parent, duration, error = self._arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=duration, minlength=k)
        self_s = np.bincount(name, weights=duration - child, minlength=k)
        errors = np.bincount(name, weights=error, minlength=k)
        out = {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(self_s[i]), "errors": int(errors[i])}
               for i, n in enumerate(self.names)}
        out["optimizer.linesearch"]["evals"] = self.linesearch_evals
        return out

    def dump(self, path) -> None:
        name, parent, duration, error = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent,
                            start=np.frombuffer(self._start, dtype=np.float64),
                            duration=duration, error=error)
