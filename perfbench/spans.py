"""Spans around phaselab's public functions, for the traced run.

phaselab's modules import each other's names directly (``relaxations`` and
``bench`` hold their own ``operator_norm``, ``attacks`` its own
``simulate_game`` and ``random_family``), so a function is wrapped in every
phaselab module that binds it, the package namespace included.
``AdversarySpec`` is traced through its ``__post_init__``, which holds the
validation, so ``isinstance`` checks keep working.

Each span is (name, start, end, parent span index).  A name's self time is the
length of its spans minus the part their traced children cover.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

LARGE_DIM = 512  # operator_norm switches to power iteration above this dimension


def _kernel_dim(a, R=None, *_, **__):
    return a.M if R is not None else np.shape(a)[0]


# Traced function -> {counter: number added per call, from the call's arguments}.
TRACED = {
    "numerics.operator_norm": {"large_calls": lambda m, *_, **__: int(max(np.shape(m)) > LARGE_DIM)},
    "game.AdversarySpec": {},
    "game.advantage_kernel": {},
    "game.max_advantage_bruteforce": {"functions": lambda *a, **k: 2 ** (_kernel_dim(*a, **k) - 1)},
    "game.max_advantage_localsearch": {},
    "game.simulate_game": {"trials": lambda adv, R, f, trials, *_, **__: trials},
    "game.random_family": {"signs": lambda K, N, *_, **__: K * N},
    "decomposition.rescaling_diagonals": {"rows": lambda V, R, *_, **__: len(R)},
    "decomposition.width": {},
    "relaxations.spectral_relaxation": {},
    "relaxations.decoupled_spectral_relaxation": {},
    "relaxations.truncated_spectral_relaxation": {},
    "relaxations.max_decoupled_bruteforce": {"functions": lambda adv, *_, **__: 2 ** (adv.M - 1)},
    "relaxations.subset_norm_conjecture": {
        "subsets": lambda projectors, *a, **k: 2 ** len(projectors) - 1
    },
    "attacks.hadamard_attack_report": {},
    "attacks.hadamard_game_encoding": {},
    "attacks.fwht": {},
    "bench.default_suite": {},
    "bench.rademacher_series_bench": {},
    "bench.matrix_hoeffding_bench": {},
    "bench.complex_hoeffding_bench": {},
    "bench.width_tail_bench": {},
    "bench.advantage_tail_bench": {},
    "compression.verify_one_query_simulation": {},
    "compression.compress_isometry": {},
}

# Per-layer metrics reported besides every traced name's self time.
CALL_COUNTS = ("game.max_advantage_bruteforce", "numerics.operator_norm", "attacks.fwht")


class Tracer:
    """Wraps the traced functions while installed and keeps their spans in memory."""

    def __init__(self):
        self.names = list(TRACED)
        self.spans: list = []
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.calls = dict.fromkeys(self.names, 0)
        self.counts = {(n, c): 0 for n, cs in TRACED.items() for c in cs}
        self._stack: list = []  # [span index, child time] of the open spans
        self._restore: list = []

    def _wrap(self, name, fn):
        name_id = self.names.index(name)
        counters = TRACED[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [idx, 0.0]
            self._stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                self.spans[idx] = (name_id, start, end, parent)
                self.self_s[name] += dur - frame[1]
                self.calls[name] += 1
                for counter, amount in counters.items():
                    self.counts[(name, counter)] += amount(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "phaselab" or key.startswith("phaselab.")]
        for name in self.names:
            module, attr = name.split(".")
            original = getattr(sys.modules[f"phaselab.{module}"], attr)
            if isinstance(original, type):
                cls = original
                self._set(cls, "__post_init__", self._wrap(name, cls.__post_init__))
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def missing(self, expected) -> list[str]:
        """Names in `expected` that recorded no call: a binding the wrapper missed."""
        return [n for n in expected if self.calls[n] == 0]

    def metrics(self, rounds: int) -> dict:
        """Self time and counts per round of the operation list."""
        out = {f"{n}.s": (self.self_s[n] / rounds, "s/round") for n in self.names}
        for n in CALL_COUNTS:
            out[f"{n}.calls"] = (self.calls[n] / rounds, "count/round")
        for (n, c), v in self.counts.items():
            out[f"{n}.{c}"] = (v / rounds, "count/round")
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


_GAME = ("game.AdversarySpec", "game.advantage_kernel", "game.simulate_game")
_RELAX = (
    "game.AdversarySpec",
    "relaxations.spectral_relaxation",
    "relaxations.decoupled_spectral_relaxation",
    "decomposition.rescaling_diagonals",
    "numerics.operator_norm",
)
_BY_KIND = {
    "decoupled": ("game.AdversarySpec", "relaxations.max_decoupled_bruteforce"),
    "conjecture": ("relaxations.subset_norm_conjecture", "numerics.operator_norm"),
    "attack": (
        "attacks.hadamard_attack_report",
        "attacks.hadamard_game_encoding",
        "attacks.fwht",
        "game.random_family",
        "game.simulate_game",
    ),
    "suite": (
        "bench.default_suite",
        "bench.rademacher_series_bench",
        "bench.matrix_hoeffding_bench",
        "bench.complex_hoeffding_bench",
        "bench.width_tail_bench",
        "bench.advantage_tail_bench",
        "game.max_advantage_bruteforce",
        "game.random_family",
        "decomposition.width",
        "numerics.operator_norm",
    ),
    "width": ("bench.width_tail_bench", "game.random_family", "decomposition.width", "decomposition.rescaling_diagonals"),
    "compress": ("game.AdversarySpec", "compression.verify_one_query_simulation", "compression.compress_isometry"),
}


def expected_calls(op) -> tuple:
    """Traced functions an operation calls; each must record a call in a traced run."""
    if op.kind == "game":
        search = "max_advantage_bruteforce" if op.x["restarts"] is None else "max_advantage_localsearch"
        return _GAME + (f"game.{search}",)
    if op.kind == "relax":
        return _RELAX + (("relaxations.truncated_spectral_relaxation",) if op.x["B"] is not None else ())
    return _BY_KIND[op.kind]
