"""Spans around tlspin's public functions, installed from outside the package.

Every public function defined in a layer module is wrapped once.  The
wrapper is bound under each name that refers to the original in any loaded
``tlspin`` module (``from .linalg import rel_residual`` leaves a second
reference in the importing module), so calls made inside the library pass
through the wrapper too and spans nest.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "bform", "tl_rep", "rmatrix", "qalg", "chain", "rep_ring", "linalg")


def _nnz_grid(aux) -> int:
    return sum(op.matrix.nnz for row in aux.entries for op in row)


# Work sizes recorded next to the span: name -> f(args, result).
SIZES = {
    "tl_rep.embed": lambda args, out: out.matrix.nnz,
    "chain.spectrum": lambda args, out: out.total,
    "chain.check_isotypic": lambda args, out: len(args[0].clusters),
    "qalg.coproduct_T": lambda args, out: _nnz_grid(out),
}


class Tracer:
    """Records closed spans as (id, parent, name, start, end, size) in memory."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []  # open spans: [id, name, start, child_time]
        self._next_id = 0
        self._originals: dict = {}  # (module, attribute) -> original function
        self._wrappers: dict = {}  # original function -> wrapper

    # ------------------------------------------------------------ spans
    def open(self, name: str) -> list:
        self._next_id += 1
        rec = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(rec)
        return rec

    def close(self, rec: list, size: int = 0) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        duration = end - rec[2]
        if parent is not None:
            parent[3] += duration
        self.spans.append((rec[0], parent[0] if parent else 0, rec[1], rec[2], end, rec[3], size))

    def _wrap(self, name: str, fn):
        sizer = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.open(name)
            size = 0
            try:
                out = fn(*args, **kwargs)
                if sizer is not None:
                    size = sizer(args, out)
                return out
            finally:
                self.close(rec, size)

        return wrapper

    # ----------------------------------------------------- installation
    def install(self) -> None:
        """Bind wrappers in every loaded tlspin module."""
        if not self._wrappers:
            for layer in LAYERS:
                mod = sys.modules[f"tlspin.{layer}"]
                for attr, obj in vars(mod).items():
                    if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                        self._wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
            for modname, mod in list(sys.modules.items()):
                if modname == "tlspin" or modname.startswith("tlspin."):
                    for attr, obj in list(vars(mod).items()):
                        if inspect.isfunction(obj) and obj in self._wrappers:
                            self._originals[(mod, attr)] = obj
        for (mod, attr), obj in self._originals.items():
            setattr(mod, attr, self._wrappers[obj])

    def uninstall(self) -> None:
        for (mod, attr), obj in self._originals.items():
            setattr(mod, attr, obj)

    # -------------------------------------------------------- summaries
    def summarize(self, first: int = 0) -> dict:
        """{name: [self seconds, calls, size]} over spans[first:]."""
        out: dict = defaultdict(lambda: [0.0, 0, 0])
        for _, _, name, start, end, child, size in self.spans[first:]:
            acc = out[name]
            acc[0] += (end - start) - child
            acc[1] += 1
            acc[2] += size
        return dict(out)
