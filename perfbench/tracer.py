"""Spans around the public functions of the cantor_spectra modules.

The tracer replaces every public function of the six library modules, in
every module namespace that binds it, with a wrapper that records a span
(name, start, end, parent).  Names bound across modules, such as
``phase_diagram.spectrum_approximant`` or ``spectrum.normalize``, get the
same wrapper as the original, so spans nest through module boundaries.
Nothing inside the library is edited; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from time import perf_counter

MODULES = ("cantor_core", "measures", "trace_dynamics", "spectrum", "phase_diagram", "cli")

# One span: [name, start, end, parent index or -1].
NAME, START, END, PARENT = range(4)


class BandSetObserver:
    """Counts each band_set call from outside: key, bands found, cache hit."""

    def __init__(self, spectrum_module):
        self._spectrum = spectrum_module
        self._signature = None
        self.records = []  # (span index, key, found, expected, cached, hit)

    def before(self, fn, args, kwargs):
        if self._signature is None:
            self._signature = inspect.signature(fn)
        bound = self._signature.bind(*args, **kwargs)
        bound.apply_defaults()
        params = dict(bound.arguments)
        cache = self._spectrum.resolve_cache_dir(params.pop("cache_dir", None))
        return params, cache, _file_count(cache)

    def after(self, state, span_index, result):
        params, cache, files_before = state
        coupling, level = params["coupling"], params["level"]
        expected = self._spectrum.half_trace_degree(level) if coupling > 0.0 else 0
        # A call that publishes no new cache file was served from the cache.
        hit = cache is not None and _file_count(cache) == files_before
        key = tuple(sorted((k, repr(v)) for k, v in params.items()))
        found = len(result.bands) if coupling > 0.0 else 0
        self.records.append((span_index, key, found, expected, cache is not None, hit))


def _file_count(directory):
    if directory is None or not os.path.isdir(directory):
        return 0
    return len(os.listdir(directory))


class Tracer:
    """Span recorder for one traced stretch of a benchmark run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self.band_sets = BandSetObserver(importlib.import_module("cantor_spectra.spectrum"))

    def install(self):
        modules = {m: importlib.import_module(f"cantor_spectra.{m}") for m in MODULES}
        wrappers = {}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__.rpartition(".")[2]
                if home not in modules:
                    continue
                if value not in wrappers:
                    observer = self.band_sets if f"{home}.{value.__name__}" == "spectrum.band_set" else None
                    wrappers[value] = self._wrap(f"{home}.{value.__name__}", value, observer)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn, observer):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = observer.before(fn, args, kwargs) if observer else None
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if observer:
                observer.after(state, index, result)
            return result

        return traced

    # -- aggregation ---------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def layer(self, name):
        """(calls, total self time, max duration, list of durations) of one function."""
        selfs = self.self_times()
        durations = [s[END] - s[START] for s in self.spans if s[NAME] == name]
        total_self = sum(t for s, t in zip(self.spans, selfs) if s[NAME] == name)
        return len(durations), total_self, max(durations, default=0.0), durations

    def band_set_counters(self):
        """repeat_frac, coverage, hit_frac and hit time of the band_set calls seen."""
        seen, repeats, uncached = set(), 0, 0
        found = expected = hits = 0
        hit_s = 0.0
        for index, key, n_found, n_expected, cached, hit in self.band_sets.records:
            if hit:
                hits += 1
                span = self.spans[index]
                hit_s += span[END] - span[START]
            else:
                uncached += 1
                repeats += key in seen
            seen.add(key)
            found += n_found
            expected += n_expected
        calls = len(self.band_sets.records)
        return {
            "repeat_frac": repeats / uncached if uncached else 0.0,
            "coverage": found / expected if expected else 0.0,
            "hit_frac": hits / calls if calls else 0.0,
            "hit_s": hit_s,
        }

    def dump(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[START] - t0, s[END] - t0, s[PARENT]]) + "\n")
