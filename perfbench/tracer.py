"""Span tracer that times eikolab's layers from outside the package.

`Tracer.install()` replaces each layer entry point listed in `ENTRY_POINTS` by
a wrapper, in every eikolab module that binds it (a `from .x import f` makes a
second binding), and `uninstall()` puts the originals back.  A wrapper calls
the original with the same arguments and returns its result unchanged, so
traced outputs are bitwise equal to untraced ones.

Each span records (id, parent id, name, start, end, note).  The parent is the
innermost open span of the same thread: every thread keeps its own stack and
its own column buffers, so the two pool threads of a sweep never share state
and no lock is taken on the hot path.  Spans stay in memory until `spans()`
gathers them; self time is computed from them afterwards.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from array import array

import numpy as np


def _note_a_sim(args, kwargs, out):
    return float(args[3])  # _run_member(cfg, eps, p, a_sim, member_dir, save_field)


def _note_fft_flops(args, kwargs, out):
    """Computed (not counted) flops of one rfft2/irfft2 call: 2.5 n^2 log2(n^2)
    per n x n transform, times the number of grids stacked in leading axes."""
    n = out.shape[-2]  # both transforms map (..., n, n) <-> (..., n, n // 2 + 1)
    batch = int(np.prod(out.shape[:-2], dtype=np.int64))
    return batch * 2.5 * n * n * np.log2(float(n * n))


def _note_iterations(args, kwargs, out):
    return float(out.iterations)


def _note_bisections(args, kwargs, out):
    return float(out.bisections)


# (module, attribute, note): the note stores one number per span for the
# metrics that need more than a duration.
ENTRY_POINTS = [
    ("eikolab.cli", "_run_members", None),
    ("eikolab.cli", "_run_member", _note_a_sim),
    ("eikolab.cli", "write_csv", None),
    ("eikolab.cli", "write_json", None),
    ("eikolab.cli", "_sha256", None),
    ("eikolab.spectral", "make_plan", None),
    ("eikolab.spectral", "run_to_steady", None),
    ("eikolab.spectral", "_step_hat", None),
    ("eikolab.spectral", "_nonlinear_hat", None),
    ("eikolab.spectral", "full_rhs_hat", None),
    ("eikolab.spectral", "write_field_snapshot", None),
    ("eikolab.spectral", "read_field_snapshot", None),
    ("numpy.fft", "rfft2", _note_fft_flops),
    ("numpy.fft", "irfft2", _note_fft_flops),
    ("eikolab.measure", "build_report", None),
    ("eikolab.measure", "measure_wavenumber", None),
    ("eikolab.radial", "fd_weights", None),
    ("eikolab.radial", "fd_derivative", None),
    ("eikolab.radial", "apply_inverse_L_lambda", None),
    ("eikolab.radial", "solve_corrector_K", None),
    ("eikolab.radial", "solve_far_field_correction", _note_iterations),
    ("eikolab.radial", "correction_residual", None),
    ("eikolab.radial", "shoot_spiral_amplitude", _note_bisections),
    ("eikolab.radial", "hopf_cole_residual", None),
    ("eikolab.specfun", "bessel_eval", None),
    ("eikolab.specfun", "bessel_k0", None),
    ("eikolab.specfun", "bessel_k1", None),
    ("eikolab.specfun", "bessel_k0_scaled", None),
    ("eikolab.specfun", "bessel_k1_scaled", None),
    ("eikolab.specfun", "log_k0_ratio", None),
    ("eikolab.profiles", "evaluate_g", None),
    ("eikolab.profiles", "smooth_cutoff", None),
    ("eikolab.profiles", "cutoff_derivatives", None),
    ("eikolab.profiles", "split_defect", None),
    ("eikolab.profiles", "core_mass", None),
]

SPAN_NAMES = [f"{mod.split('.')[-1]}.{attr}" for mod, attr, _ in ENTRY_POINTS]


class _ThreadBuffer:
    """Open-span stack and closed-span columns of one thread."""

    def __init__(self):
        self.stack: list[int] = []
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("h")
        self.t0 = array("d")
        self.t1 = array("d")
        self.note = array("d")


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    def _buffer(self) -> _ThreadBuffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = self._local.buf = _ThreadBuffer()
            self._buffers.append(buf)
            return buf

    def _wrap(self, name_idx: int, fn, note):
        ids = self._ids
        clock = time.perf_counter
        buffer = self._buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                buf.sid.append(sid)
                buf.parent.append(parent)
                buf.name.append(name_idx)
                buf.t0.append(t0)
                buf.t1.append(t1)
                buf.note.append(note(args, kwargs, out) if note and out is not None
                                else 0.0)

        return traced

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for idx, (mod_name, attr, note) in enumerate(ENTRY_POINTS):
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            wrapper = self._wrap(idx, original, note)
            owners = [module] + [
                m for name, m in list(sys.modules.items())
                if m is not None and m is not module
                and (name == "eikolab" or name.startswith("eikolab."))
            ]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
                        self._restore.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def reset(self):
        """Drop recorded spans (buffers of finished threads included)."""
        self._buffers.clear()
        self._local = threading.local()

    def spans(self) -> "Spans":
        cols = {}
        for field in ("sid", "parent", "name", "t0", "t1", "note"):
            parts = [np.frombuffer(getattr(b, field), dtype=getattr(b, field).typecode)
                     for b in self._buffers if len(b.sid)]
            cols[field] = np.concatenate(parts) if parts else np.zeros(0)
        return Spans(**cols)


class Spans:
    """Closed spans as columns, with the tree queries the layer metrics need."""

    def __init__(self, sid, parent, name, t0, t1, note):
        order = np.argsort(sid, kind="stable")
        self.sid = sid[order].astype(np.int64)
        self.parent = parent[order].astype(np.int64)
        self.name = name[order].astype(np.int64)
        self.t0 = t0[order]
        self.t1 = t1[order]
        self.note = note[order]
        self.dur = self.t1 - self.t0
        # parent row index, -1 for roots
        pos = np.searchsorted(self.sid, self.parent)
        pos = np.minimum(pos, max(len(self.sid) - 1, 0))
        known = (self.parent > 0) & (len(self.sid) > 0)
        if len(self.sid):
            known &= self.sid[pos] == self.parent
        self.up = np.where(known, pos, -1)
        child_time = np.zeros(len(self.sid))
        np.add.at(child_time, self.up[self.up >= 0], self.dur[self.up >= 0])
        self.self_time = self.dur - child_time

    def mask(self, *names: str) -> np.ndarray:
        ids = [SPAN_NAMES.index(n) for n in names]
        return np.isin(self.name, ids)

    def under(self, inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
        """Rows of `inner` that have an ancestor in `outer`."""
        hit = np.zeros(len(self.sid), dtype=bool)
        cur = np.where(inner, self.up, -1)
        while np.any(cur >= 0):
            live = cur >= 0
            hit[live] |= outer[cur[live]]
            cur = np.where(live & ~hit, self.up[np.maximum(cur, 0)], -1)
        return hit & inner

    def outermost(self, sel: np.ndarray) -> np.ndarray:
        return sel & ~self.under(sel, sel)

    def ancestor_note(self, rows: np.ndarray, outer: np.ndarray) -> np.ndarray:
        """Note of the nearest `outer` ancestor of each row in `rows` (nan if none)."""
        out = np.full(len(rows), np.nan)
        for i, row in enumerate(rows):
            cur = self.up[row]
            while cur >= 0:
                if outer[cur]:
                    out[i] = self.note[cur]
                    break
                cur = self.up[cur]
        return out

    def save(self, path):
        """Write the spans as columns of an .npz file, span names alongside."""
        np.savez(path, sid=self.sid, parent=self.parent, name=self.name,
                 t0=self.t0, t1=self.t1, self_time=self.self_time, note=self.note,
                 names=np.array(SPAN_NAMES))
