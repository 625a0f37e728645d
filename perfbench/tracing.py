"""Spans around the calls into each `becsim` layer, recorded from outside.

`Tracer.install()` wraps the public functions of every module, a few
methods on their classes, and the numpy/scipy kernels (layer `linalg`).
Each wrapped name is replaced wherever callers look it up: `channels`
imports `integrate_master` from `lindblad`, `registers` imports
`make_coherent` from `spin`, and so on, so every `becsim` module namespace
holding the same function object gets the wrapper.  Kernels are wrapped on
`numpy.linalg`, which `becsim` reads at call time.

Spans are kept in memory as (name, start, end, parent) and a span's parent
is the innermost span open when it started, so a kernel span is parented
to the layer that called it.  `uninstall()` restores every patched name.
"""

from __future__ import annotations

import collections
import functools
import itertools
import sys
import time
import weakref

import numpy as np

from becsim import (atomloss, channels, cli, lindblad, registers, schedules,
                    spin)

LAYERS = ("cli", "spin", "registers", "schedules", "atomloss", "channels",
          "lindblad", "linalg")


def _count_work(prefix):
    def hook(tracer, args, result):
        n = int(np.shape(args[0])[0])
        tracer.counts[prefix + ".work_n3"] += n ** 3
        key = prefix + ".max_n"
        tracer.counts[key] = max(tracer.counts[key], n)
    return hook


def _count_nfev(tracer, args, result):
    tracer.counts["linalg.solve_ivp.nfev"] += int(result.nfev)


def _count_distinct_eig(tracer, args, result):
    prop, i, j = args[0], args[1], args[2]
    # a serial number, not id(): ids are reused once a propagator is freed
    serial = tracer.serials.get(prop)
    if serial is None:
        serial = tracer.serials[prop] = next(tracer.next_serial)
    tracer.eig_keys.add((serial, i, j))
    tracer.counts["lindblad.block_eig.distinct"] = len(tracer.eig_keys)


def _count_pairs(tracer, args, result):
    tracer.counts["lindblad.sector.pairs_used"] += len(result)
    tracer.counts["lindblad.sector.pairs_total"] += len(args[0].blocks) ** 2


# (span name, functions, hook).  Functions are wrapped under every name a
# becsim module binds them to.
FUNCTIONS = (
    ("cli.main", (cli.main,), None),
    ("spin.make_coherent", (spin.make_coherent,), None),
    ("spin.spin_operator", (spin.spin_operator,), None),
    ("registers.closed_form", (registers.entangled_state_analytic,), None),
    ("registers.entropy", (registers.entanglement_entropy,), None),
    ("schedules.step_hamiltonian", (schedules.step_hamiltonian,), None),
    ("schedules.run_schedule", (schedules.run_schedule,), None),
    ("atomloss.integrate_loss_odes", (atomloss.integrate_loss_odes,), None),
    ("channels.assembly", (
        channels.build_dephasing_model, channels.build_loss_model,
        channels.build_lambda_model, channels.build_cavity_model,
        channels.cavity_basis, channels.site_operator,
        channels.loss_site_operator, channels.loss_spin_operator,
        channels.lambda_observables, channels.cavity_initial_state,
        channels.cavity_sx1), None),
    ("channels.protocol", (channels.run_fig4a, channels.run_fig4b,
                           channels.run_fig4c, channels.run_fig4d), None),
    ("channels.envelope", (channels.oscillation_envelope_rate,), None),
    ("lindblad.integrate_master", (lindblad.integrate_master,), None),
    ("lindblad.propagate", (lindblad.propagate,), None),
    ("lindblad.fit", (lindblad.fit_decay_rate,), None),
    ("linalg.solve_ivp", (lindblad.solve_ivp,), _count_nfev),
    ("linalg.expm_multiply", (lindblad.expm_multiply,), None),
    ("linalg.linregress", (lindblad.linregress,), None),
)

# (span name, class, method names, hook)
METHODS = (
    ("lindblad.basis_ops", lindblad.OccupationBasis,
     ("lower", "transition", "number"), None),
    ("lindblad.model_init", lindblad.LindbladModel, ("__post_init__",), None),
    ("lindblad.block_eig", lindblad.SectorPropagator, ("block_eig",),
     _count_distinct_eig),
    ("lindblad.evolve_block", lindblad.SectorPropagator, ("evolve_block",),
     None),
    ("lindblad.sector", lindblad.SectorPropagator, ("observable_blocks",),
     _count_pairs),
)

# (span name, numpy.linalg attribute names, hook)
KERNELS = (
    ("linalg.eig", ("eig",), _count_work("linalg.eig")),
    ("linalg.inv", ("inv",), None),
    ("linalg.eigh", ("eigh", "eigvalsh"), _count_work("linalg.eigh")),
)

SPAN_NAMES = frozenset(
    [name for name, _, _ in FUNCTIONS] + [name for name, _, _, _ in METHODS]
    + [name for name, _, _ in KERNELS])
COUNTER_NAMES = frozenset((
    "linalg.eig.work_n3", "linalg.eig.max_n", "linalg.eigh.work_n3",
    "linalg.solve_ivp.nfev",
    "lindblad.block_eig.distinct", "lindblad.sector.pairs_used",
    "lindblad.sector.pairs_total"))


class Tracer:
    """In-memory span recorder with call-site counters."""

    def __init__(self):
        self._patches = []   # (namespace, attribute, original)
        self.reset()

    def reset(self):
        """Drop the spans and counts of the previous pass."""
        self.spans = []      # [name, start, end, parent index or None]
        self._stack = []
        self.counts = collections.Counter()
        self.errors = collections.Counter()
        self.serials = weakref.WeakKeyDictionary()
        self.next_serial = itertools.count()
        self.eig_keys = set()

    # -- recording ---------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn, hook):
        tracer = self
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # count it once, where it leaves the layer
                caller = tracer.spans[tracer._stack[-1]][3]
                if caller is None or \
                        not tracer.spans[caller][0].startswith(layer + "."):
                    tracer.errors[layer] += 1
                raise
            finally:
                tracer.close()
            if hook is not None:
                hook(tracer, args, result)
            return result
        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, namespace, attr, wrapper):
        self._patches.append((namespace, attr, namespace.__dict__[attr]))
        setattr(namespace, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "becsim" or key.startswith("becsim.")]
        for name, fns, hook in FUNCTIONS:
            for fn in fns:
                wrapper = self._wrap(name, fn, hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, attr, wrapper)
        for name, cls, attrs, hook in METHODS:
            for attr in attrs:
                self._patch(cls, attr, self._wrap(name, vars(cls)[attr], hook))
        for name, attrs, hook in KERNELS:
            for attr in attrs:
                self._patch(np.linalg, attr,
                            self._wrap(name, getattr(np.linalg, attr), hook))

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    # -- summaries ---------------------------------------------------------

    def span_stats(self):
        """Per span name: calls, inclusive seconds s, and self seconds.

        `s` counts only spans with no enclosing span of the same name, so
        nested calls (one model-building function calling another) are not
        counted twice.  Self time is a span's duration minus its children's.
        """
        child = [0.0] * len(self.spans)
        stats = {}
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        for k, (name, start, end, parent) in enumerate(self.spans):
            entry = stats.setdefault(name, {"calls": 0, "s": 0.0,
                                            "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child[k]
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                entry["s"] += end - start
        return stats

    def value(self, metric, stats):
        """Value of a per-layer metric named <span>.<stat> or <layer>.errors."""
        family, _, stat = metric.rpartition(".")
        if stat == "errors" and family in LAYERS:
            return self.errors[family]
        if family in SPAN_NAMES and stat in ("calls", "s", "self_s"):
            return stats.get(family, {}).get(stat, 0)
        if metric in COUNTER_NAMES:
            return self.counts[metric]
        raise KeyError("no per-layer metric %r" % metric)

    def kernel_shares(self):
        """Seconds of each linalg kernel under each operation's root span."""
        out = {}
        for name, start, end, parent in self.spans:
            if not name.startswith("linalg."):
                continue
            p, outer = parent, False
            while p is not None:
                if self.spans[p][0].startswith("linalg."):
                    outer = True   # inside another kernel; counted there
                if self.spans[p][3] is None:
                    break
                p = self.spans[p][3]
            if outer or p is None or \
                    not self.spans[p][0].startswith("op."):
                continue
            op = out.setdefault(p, collections.Counter())
            op[name] += end - start
        return out
