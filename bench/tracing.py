"""Spans around the public functions of each dsexact module.

``Tracer.install`` replaces module attributes with span-recording wrappers
and restores them on exit; nothing under ``src/`` changes.  ``cli`` imports
``crosscheck``, ``make_field``, ``step``, ``write_field_csv`` and ``compose``
by name, so those names are patched in ``cli`` as well as in their home
modules.

Spans are kept in memory as columns (name, op, parent, start, end).  A
span's self time is its duration minus the durations of its direct
children; calls are strictly nested on one thread, so the children never
overlap.  Counts that a span cannot express (distinct jet arguments, rows
and bytes written, computed FFT work, certified points) are gathered at the
same boundaries.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from dsexact import cli, elliptic, evolve, gridio, residual, symmetry, \
    timefn

from workloads import Hooks

SOLUTION_FIELDS = ("u", "v", "valid")
CONFIG_SPANS = ("cli.load_config", "cli.build_solution",
                "cli.build_transforms", "cli.build_grid")


class Tracer(Hooks):
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_col = array("H")
        self.op_col = array("I")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack = []
        self.op = 0
        self.jet_keys = set()
        self.counts = Counter()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` runs
        once the span has closed, so its cost is not attributed to ``fn``."""
        nid = self._id(name)
        stack = self._stack
        names, ops, parents = self.name_col, self.op_col, self.parent_col
        starts, ends = self.start_col, self.end_col
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            ops.append(tracer.op)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        if after is None:
            return traced

        def traced_after(*args, **kwargs):
            result = traced(*args, **kwargs)
            after(args, result)
            return result
        return traced_after

    # Hooks: solutions built by the workloads or by the CLI.
    def _wrap_solution(self, layer, sol):
        return dataclasses.replace(sol, **{
            f: self.wrap(f"{layer}.{f}", getattr(sol, f))
            for f in SOLUTION_FIELDS})

    def catalog(self, sol):
        return self._wrap_solution("catalog", sol)

    def symmetry(self, sol):
        return self._wrap_solution("symmetry", sol)

    @contextmanager
    def install(self):
        """Patch every traced entry point; restore all of them on exit."""
        saved = []

        def patch(obj, attr, replacement):
            saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, replacement)

        counts = self.counts
        jet_keys = self.jet_keys
        jet = self.wrap("timefn.jet", timefn.TimeFunction.jet)

        def jet_counting(tf, t):
            jet_keys.add((id(tf), t))
            return jet(tf, t)

        def after_verify(args, report):
            counts["points_checked"] += report.n_points
            counts["points_sampled"] += len(args[1])

        def after_fft(args, result):
            n = result.size
            counts["fft_flops"] += 5.0 * n * math.log2(n)
            counts["fft_bytes"] += np.asarray(args[0]).nbytes + result.nbytes

        def after_rows(args, rows):
            counts["rows_written"] += len(rows)

        def after_write(args, result):
            counts["bytes_written"] += os.path.getsize(args[0])

        real_build_solution = self.wrap("cli.build_solution",
                                        cli.build_solution)

        def build_solution(cfg):
            return self.catalog(real_build_solution(cfg))

        def compose_chain(specs, sol):
            return self.symmetry(symmetry.compose(specs, sol))

        step = self.wrap("evolve.step", evolve.step)
        make_field = self.wrap("evolve.make_field", evolve.make_field)
        crosscheck = self.wrap("evolve.crosscheck", evolve.crosscheck)
        write_csv = self.wrap("gridio.write_field_csv", gridio.write_field_csv,
                              after_write)
        verify = self.wrap("residual.verify", residual.verify, after_verify)
        try:
            patch(timefn.TimeFunction, "jet", jet_counting)
            patch(elliptic.Profile, "value",
                  self.wrap("elliptic.profile", elliptic.Profile.value))
            patch(elliptic, "jacobi_sn_cn_dn",
                  self.wrap("elliptic.jacobi", elliptic.jacobi_sn_cn_dn))
            patch(residual, "verify", verify)
            patch(cli, "verify", verify)
            patch(evolve, "step", step)
            patch(cli, "step", step)
            patch(evolve, "make_field", make_field)
            patch(cli, "make_field", make_field)
            patch(evolve, "crosscheck", crosscheck)
            patch(cli, "crosscheck", crosscheck)
            patch(evolve, "poisson_v",
                  self.wrap("evolve.poisson_v", evolve.poisson_v))
            patch(np.fft, "fft2", self.wrap("numpy.fft2", np.fft.fft2,
                                            after_fft))
            patch(np.fft, "ifft2", self.wrap("numpy.ifft2", np.fft.ifft2,
                                             after_fft))
            patch(gridio, "field_rows", self.wrap("gridio.field_rows",
                                                  gridio.field_rows,
                                                  after_rows))
            patch(gridio, "write_field_csv", write_csv)
            patch(cli, "write_field_csv", write_csv)
            patch(cli, "load_config",
                  self.wrap("cli.load_config", cli.load_config))
            patch(cli, "build_solution", build_solution)
            patch(cli, "build_transforms",
                  self.wrap("cli.build_transforms", cli.build_transforms))
            patch(cli, "build_grid", self.wrap("cli.build_grid",
                                               cli.build_grid))
            patch(cli, "compose", compose_chain)
            patch(cli, "main", self.wrap("cli.main", cli.main))
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    # ------------------------------------------------------------------
    # Aggregation.
    # ------------------------------------------------------------------

    def columns(self):
        return {"name": np.frombuffer(self.name_col, dtype=np.uint16),
                "op": np.frombuffer(self.op_col, dtype=np.uint32),
                "parent": np.frombuffer(self.parent_col, dtype=np.int32),
                "start": np.frombuffer(self.start_col, dtype=np.float64),
                "end": np.frombuffer(self.end_col, dtype=np.float64)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.columns())

    def layer_metrics(self, steps_requested: int) -> dict:
        cols = self.columns()
        name, parent = cols["name"].astype(np.int64), cols["parent"]
        dur = cols["end"] - cols["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selft = np.bincount(name, weights=own, minlength=k)

        def ids(*names):
            return [self._ids[n] for n in names if n in self._ids]

        def n_calls(*names):
            return int(sum(calls[i] for i in ids(*names)))

        def total_s(*names):
            return float(sum(total[i] for i in ids(*names)))

        def self_s(*names):
            return float(sum(selft[i] for i in ids(*names)))

        catalog_names = [f"catalog.{f}" for f in SOLUTION_FIELDS]
        symmetry_names = [f"symmetry.{f}" for f in SOLUTION_FIELDS]
        # Solution evaluations the oracle itself asks for: calls of the
        # outermost solution, which are direct children of a verify span.
        solution_ids = ids(*catalog_names, *symmetry_names)
        verify_ids = ids("residual.verify")
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        oracle_evals = int(np.count_nonzero(
            np.isin(name, solution_ids) & np.isin(parent_name, verify_ids)))
        step_ids = ids("evolve.step")
        step_durs = dur[np.isin(name, step_ids)]

        jet_calls = n_calls("timefn.jet")
        checked = self.counts["points_checked"]
        sampled = self.counts["points_sampled"]
        steps_run = n_calls("evolve.step")
        return {
            "timefn.jet_calls": jet_calls,
            "timefn.jet_self_s": self_s("timefn.jet"),
            "timefn.jet_distinct_t_frac":
                len(self.jet_keys) / jet_calls if jet_calls else 0.0,
            "elliptic.profile_calls": n_calls("elliptic.profile"),
            "elliptic.profile_self_s": self_s("elliptic.profile"),
            "elliptic.jacobi_calls": n_calls("elliptic.jacobi"),
            "elliptic.jacobi_self_s": self_s("elliptic.jacobi"),
            "catalog.u_calls": n_calls("catalog.u"),
            "catalog.v_calls": n_calls("catalog.v"),
            "catalog.valid_calls": n_calls("catalog.valid"),
            "catalog.eval_self_s": self_s(*catalog_names),
            "symmetry.calls": n_calls(*symmetry_names),
            "symmetry.self_s": self_s(*symmetry_names),
            "residual.verify_s": total_s("residual.verify"),
            "residual.self_s": self_s("residual.verify"),
            "residual.points_checked": checked,
            "residual.points_skipped_frac":
                (sampled - checked) / sampled if sampled else 0.0,
            "residual.evals_per_point":
                oracle_evals / checked if checked else 0.0,
            "evolve.step_calls": steps_run,
            "evolve.step_p50_ms":
                float(np.median(step_durs)) * 1e3 if steps_run else 0.0,
            "evolve.fft_calls": n_calls("numpy.fft2", "numpy.ifft2"),
            "evolve.fft_s": total_s("numpy.fft2", "numpy.ifft2"),
            "evolve.poisson_calls": n_calls("evolve.poisson_v"),
            "evolve.make_field_s": total_s("evolve.make_field"),
            "evolve.crosscheck_self_s": self_s("evolve.crosscheck"),
            "evolve.useful_step_frac":
                steps_requested / steps_run if steps_run else 0.0,
            "evolve.fft_flops_computed": self.counts["fft_flops"],
            "evolve.fft_bytes_computed": self.counts["fft_bytes"],
            "gridio.rows_written": self.counts["rows_written"],
            "gridio.bytes_written": self.counts["bytes_written"],
            "gridio.write_self_s": self_s("gridio.write_field_csv",
                                          "gridio.field_rows"),
            "cli.config_s": total_s(*CONFIG_SPANS),
            "cli.self_s": self_s("cli.main"),
        }
