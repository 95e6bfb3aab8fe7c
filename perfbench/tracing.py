"""In-process tracing of the shoptalk pipeline.

Every public function the pipeline calls is wrapped at the place where its
caller looks it up (``cli.ingest_metadata``, ``assembly.build_pair``,
``negotiation.realize`` ...), so the benchmark never repeats the
pipeline's call order.  A target that no longer exists raises
``MissingTarget``: a renamed function must be renamed here too, not
silently dropped from the breakdown.

Spans (name, start, end, parent, conversation) are kept in flat arrays and
written out once, after the run.  A span's layer is the module that
defines the wrapped function.
"""

from __future__ import annotations

import gzip
import importlib
import math
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

# (module the caller looks the name up in, attribute)
TARGETS = [
    ("shoptalk.cli", "cmd_ingest"),
    ("shoptalk.cli", "cmd_generate"),
    ("shoptalk.cli", "cmd_validate"),
    ("shoptalk.cli", "ingest_metadata"),
    ("shoptalk.cli", "ingest_reviews"),
    ("shoptalk.cli", "write_catalog"),
    ("shoptalk.cli", "write_reviews"),
    ("shoptalk.annotate", "split_sentences"),
    ("shoptalk.annotate", "sentence_map"),
    ("shoptalk.annotate", "annotate_store"),
    ("shoptalk.annotate", "import_annotations"),
    ("shoptalk.annotate", "merge_spans"),
    ("shoptalk.opinion_index", "build_index"),
    ("shoptalk.negotiation", "features_of"),
    ("shoptalk.assembly", "generate_dataset"),
    ("shoptalk.assembly", "generate_conversation"),
    ("shoptalk.assembly", "sample_seed"),
    ("shoptalk.assembly", "generate_search_dialog"),
    ("shoptalk.assembly", "build_pair"),
    ("shoptalk.negotiation", "instantiate_pair"),
    ("shoptalk.negotiation", "realize"),
    ("shoptalk.dataset_io", "write_dataset"),
    ("shoptalk.dataset_io", "read_dataset"),
    ("shoptalk.dataset_io", "validate"),
]

LAYERS = (
    "cli", "corpus", "annotate", "opinion_index", "search_dialog",
    "negotiation", "assembly", "dataset_io",
)

# What to keep from a wrapped call's result, by span name.
OBSERVE: dict[str, Callable] = {
    "corpus.ingest_metadata": lambda catalog: catalog.report,
    "corpus.ingest_reviews": lambda store: store.report,
    "annotate.sentence_map": lambda sentences: sum(map(len, sentences.values())),
    "annotate.annotate_store": len,
    "annotate.import_annotations": lambda result: (result.skipped, result.clamped),
    "opinion_index.build_index": lambda index: len(index.entries),
    "search_dialog.generate_search_dialog": lambda result: len(result[1].members),
    "negotiation.build_pair": lambda pair: pair is not None,
}


class MissingTarget(RuntimeError):
    """A function the benchmark wraps is no longer where it was looked up."""


class Tracer:
    """Span recorder: install() wraps every target, uninstall() restores them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.conversation = array("i")
        self.conversation_ids: list[str] = []
        self.observed: dict[str, list] = {}
        self._stack = [-1]
        self._current_conversation = -1
        self._installed: list[tuple[object, str, Callable]] = []

    def install(self) -> None:
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise MissingTarget(f"{module_name}.{attr} is not a function")
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            wrapped = self._span(fn, name, OBSERVE.get(name))
            if name == "assembly.generate_conversation":
                wrapped = self._conversation_scope(wrapped)
            self._installed.append((module, attr, fn))
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def _span(self, fn: Callable, name: str, observe: Optional[Callable]) -> Callable:
        code = len(self.names)
        self.names.append(name)
        kept = self.observed.setdefault(name, []) if observe else None
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name_of.append(code)
            self.parent.append(stack[-1])
            self.conversation.append(self._current_conversation)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if kept is not None:
                kept.append(observe(result))
            return result

        return wrapper

    def _conversation_scope(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self._current_conversation = len(self.conversation_ids)
            self.conversation_ids.append(kwargs["conversation_id"])
            try:
                return fn(*args, **kwargs)
            finally:
                self._current_conversation = -1

        return wrapper

    # -- analysis ---------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        code = self.names.index(name)
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name_of[i] == code
        ]

    def total(self, name: str) -> float:
        return math.fsum(self.durations(name))

    def self_times(self, within: Optional[str] = None) -> dict[str, float]:
        """Self time per layer, optionally only inside spans named ``within``."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        inside = [within is None] * n
        if within is not None:
            code = self.names.index(within)
            for i in range(n):
                p = self.parent[i]
                inside[i] = self.name_of[i] == code or (p >= 0 and inside[p])
        layer_of = [name.split(".", 1)[0] for name in self.names]
        result = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            if inside[i]:
                result[layer_of[self.name_of[i]]] += self.end[i] - self.start[i] - child[i]
        return result

    def write(self, path: Path) -> None:
        """All spans as TSV: name, start_s, end_s, parent index, conversation id."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\tconversation\n")
            for i in range(len(self.start)):
                conv = self.conversation[i]
                fh.write(
                    f"{self.names[self.name_of[i]]}\t{self.start[i] - t0:.7f}\t"
                    f"{self.end[i] - t0:.7f}\t{self.parent[i]}\t"
                    f"{self.conversation_ids[conv] if conv >= 0 else ''}\n"
                )


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest percentile, in tenths, that
    leaves at least ten samples beyond it (nearest rank)."""
    n = len(values)
    if n < 20:
        raise ValueError(f"{n} samples are too few for a tail with ten beyond it")
    pct = math.floor(1000 * (1 - 10 / n)) / 10
    ordered = sorted(values)
    return pct, ordered[max(0, math.ceil(pct / 100 * n) - 1)]
