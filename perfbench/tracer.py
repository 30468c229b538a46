"""Outside-in span tracer for the tailvc package.

The tracer wraps named public functions of each tailvc module from the
outside: nothing in ``src/`` is edited.  A module that did
``from .empirical import build_ranks`` holds its own binding of the name,
so wrapping only ``tailvc.empirical.build_ranks`` would miss the calls made
through ``tailvc.harness`` and ``tailvc.cli``.  ``Tracer.install`` therefore
rebinds every alias it finds in the package's modules, and then asks the
garbage collector whether any other dict or closure still holds an
original function.  A missing module or function, or a hidden alias,
raises ``TracerError``, so a later rename cannot silently drop a layer.

Spans are kept in memory as (name, start, end, parent, run) tuples and
written out by the caller when the traced run ends.  Counters are computed
from each call's arguments and result; no counter reads hardware or
operating-system I/O statistics.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import os
import sys
import time
import types
from collections import defaultdict

PACKAGE = "tailvc"

# module -> functions wrapped in it; "Class.method" wraps a method.
LAYERS = {
    "samplers": ["draw_copula_sample", "draw_sample", "draw_tail_uniforms"],
    "empirical": ["build_ranks", "stdf_lattice_counts", "empirical_stdf_lattice"],
    "models": ["eval_stdf_axes", "tail_union_prob_axes", "sup_bias"],
    "gridscan": ["dominance_weight_grid", "sup_signed_count", "candidate_axes"],
    "concentration": ["relative_rademacher", "pair_separation_complexity"],
    "harness": ["sup_stdf_deviation", "check_order_stat_event", "run_rate_experiment"],
    "classify": [
        "feature_norm",
        "empirical_conditional_risk",
        "true_conditional_risk",
        "rate_experiment_classification",
        "LabeledGenerator.sample",
    ],
    "reportio": ["write_csv", "read_sample_csv", "write_sample_csv", "write_manifest"],
    "cli": [
        "main",
        "cmd_simulate",
        "cmd_estimate",
        "cmd_converge",
        "cmd_rademacher",
        "cmd_classify",
    ],
}


class TracerError(RuntimeError):
    """A traced name is missing, or an alias of it could not be rebound."""


def _rows_written(counters, call, result):
    rows = call.arguments["rows"]
    counters["reportio.rows_written"] += len(rows)
    counters["reportio.bytes_written"] += os.path.getsize(call.arguments["path"])


def _sample_written(counters, call, result):
    counters["reportio.rows_written"] += call.arguments["sample"].n
    counters["reportio.bytes_written"] += os.path.getsize(call.arguments["path"])


def _sample_read(counters, call, result):
    counters["reportio.bytes_read"] += os.path.getsize(call.arguments["path"])


def _rows_drawn(counters, call, result):
    counters["samplers.rows_drawn"] += int(call.arguments["n"])


def _rows_ranked(counters, call, result):
    counters["empirical.rows_ranked"] += result.n * result.d


def _lattice(counters, call, result):
    # result has shape mmax + 1: one entry per top-ranked row used, per column
    counters["empirical.lattice_cells"] += result.size
    counters["empirical.tail_rows_used"] += sum(result.shape)


def _model_nodes(counters, call, result):
    counters["models.grid_nodes"] += result.size


def _scan_nodes(counters, call, result):
    counters["gridscan.grid_nodes"] += result.size
    # float64 grid, computed from the shape, not measured
    counters["gridscan.grid_bytes_max"] = max(
        counters["gridscan.grid_bytes_max"], result.size * 8
    )


def _trials_failed(counters, call, result):
    counters["harness.trials_failed"] += sum(not r.ok for r in result.trials)


def _reference_draws(counters, call, result):
    if result.method == "reference":
        counters["classify.reference_draws"] += int(call.arguments["reference_draws"])


COUNTERS = {
    "samplers.draw_copula_sample": _rows_drawn,
    "empirical.build_ranks": _rows_ranked,
    "empirical.stdf_lattice_counts": _lattice,
    "models.eval_stdf_axes": _model_nodes,
    "models.tail_union_prob_axes": _model_nodes,
    "gridscan.dominance_weight_grid": _scan_nodes,
    "harness.run_rate_experiment": _trials_failed,
    "classify.true_conditional_risk": _reference_draws,
    "reportio.write_csv": _rows_written,
    "reportio.write_sample_csv": _sample_written,
    "reportio.read_sample_csv": _sample_read,
}

COUNTER_NAMES = (
    "samplers.rows_drawn",
    "empirical.rows_ranked",
    "empirical.tail_rows_used",
    "empirical.lattice_cells",
    "models.grid_nodes",
    "gridscan.grid_nodes",
    "gridscan.grid_bytes_max",
    "harness.trials_failed",
    "classify.reference_draws",
    "reportio.rows_written",
    "reportio.bytes_written",
    "reportio.bytes_read",
)
MAX_COUNTERS = {"gridscan.grid_bytes_max"}


def span_names(layers=LAYERS) -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in layers.items() for fn in fns]


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, run_id: int = 0, layers=LAYERS):
        self.run_id = run_id
        self.layers = layers
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def wrap(self, name: str, fn, count=None):
        spans, stack, counters = self.spans, self._stack, self.counters
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            if count is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                count(counters, call, result)
            return result

        return traced

    def install(self) -> dict[str, list[str]]:
        """Wrap every function in ``layers``; return the aliases rebound."""
        if self._patches:
            raise TracerError("tracer already installed")
        rebound: dict[str, list[str]] = {}
        try:
            # import every module first, so each alias exists before rebinding
            modules = {m: _import(f"{PACKAGE}.{m}") for m in self.layers}
            for mod_name, fns in self.layers.items():
                module = modules[mod_name]
                for fn_name in fns:
                    name = f"{mod_name}.{fn_name}"
                    rebound[name] = self._install_one(module, fn_name, name)
            self._check_no_hidden_alias()
        except BaseException:
            self.restore()
            raise
        return rebound

    def _install_one(self, module, fn_name: str, name: str) -> list[str]:
        owner, attr = module, fn_name
        if "." in fn_name:
            cls_name, attr = fn_name.split(".", 1)
            owner = getattr(module, cls_name, None)
            if not inspect.isclass(owner):
                raise TracerError(f"{module.__name__}.{cls_name} is not a class")
        original = owner.__dict__.get(attr)
        if not inspect.isfunction(original):
            raise TracerError(f"{module.__name__}.{fn_name} is missing or not a function")
        wrapper = self.wrap(name, original, COUNTERS.get(name))
        if owner is not module:
            self._patch(owner, attr, original, wrapper)
            return [f"{module.__name__}.{fn_name}"]
        aliases = []
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, original, wrapper)
                    aliases.append(f"{mod.__name__}.{key}")
        return aliases

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _check_no_hidden_alias(self):
        """Fail if a dict or closure cell outside the tracer holds an original."""
        own = set()
        for owner, attr, _ in self._patches:
            wrapper = vars(owner)[attr]
            own.add(id(wrapper.__dict__))  # functools.wraps' __wrapped__
            own.update(id(cell) for cell in wrapper.__closure__ or ())
        gc.collect()
        for owner, attr, original in self._patches:
            for ref in gc.get_referrers(original):
                if id(ref) in own or not isinstance(ref, (dict, types.CellType)):
                    continue
                raise TracerError(
                    f"{getattr(owner, '__name__', owner)}.{attr} has an alias the "
                    f"tracer cannot rebind (held by a {type(ref).__name__})"
                )

    def restore(self):
        """Undo every rebinding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _import(name: str):
    try:
        return importlib.import_module(name)
    except ImportError as exc:
        raise TracerError(f"cannot import traced module {name}: {exc}") from exc


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def self_times(spans) -> list[float]:
    """Duration of each span minus the part its child spans cover.

    ``spans`` is a list of (name, start, end, parent, run) tuples whose
    parent is an index into the list or -1.  Overlapping children are
    merged, and children are clipped to their parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(runs, layers=LAYERS) -> dict[str, float]:
    """Self time and call count per wrapped function, plus counters and ratios.

    ``runs`` holds one (spans, counters) pair per traced invocation; span
    parents index into their own invocation's span list.
    """
    out: dict[str, float] = {}
    for name in span_names(layers):
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for name in COUNTER_NAMES:
        out[name] = 0
    for spans, counters in runs:
        for span, self_s in zip(spans, self_times(spans)):
            out[f"{span[0]}.self_s"] += self_s
            out[f"{span[0]}.calls"] += 1
        for name, value in counters.items():
            out[name] = max(out[name], value) if name in MAX_COUNTERS else out[name] + value
    out["empirical.rank_waste_ratio"] = _ratio(
        out["empirical.rows_ranked"], out["empirical.tail_rows_used"]
    )
    out["classify.norm_evals_per_sample"] = _ratio(
        out["classify.feature_norm.calls"], out["classify.LabeledGenerator.sample.calls"]
    )
    return out


def _ratio(num, base) -> float:
    return num / base if base else 0.0
