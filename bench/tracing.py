"""Traced runs: wrap the public functions of each dfsmem module from outside.

``Tracer.install`` replaces every public function (and ``lru_cache``
wrapper) defined in the traced modules by a wrapper, in every dfsmem module
namespace that holds it, so calls through imported names (``trials`` calling
``trial_rng`` or ``joint_emission_state``) and late imports inside functions
are all traced. ``restore`` puts the originals back. Nothing under ``src/``
changes.

A wrapper records a span (name, start, end, parent) in memory while the
tracer is active; spans of one request descend from the request's root
span. Self time is a span's duration minus its children's, which are
disjoint because the client is single-threaded.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
import time
from collections import defaultdict

MODULES = ("cli", "trials", "protocol", "optics", "source", "noise", "fock")
ELEMENTS = ("qwp", "pbs", "hwp", "pol_rotator", "mz_split", "bs50", "phase_shifter",
            "logical_x", "loss_coupler", "retrieval_swap")

# extra facts a span records: (call args, kwargs, result) -> tuple
_INFO = {
    "fock.apply_unitary": lambda a, k, r: (
        (a[1] if len(a) > 1 else k["element"]).name,
        len((a[0] if a else k["state"]).support()),
        len(r.support()),
    ),
    "fock.born_probabilities": lambda a, k, r: (len(r),),
    "trials.run_write_trials": lambda a, k, r: _run_info(a[0] if a else k["cfg"], r),
    "trials.run_remote_trials": lambda a, k, r: _run_info(a[0] if a else k["cfg"], r),
}


def _run_info(cfg, stats) -> tuple:
    size = os.path.getsize(cfg.records_csv) if cfg.records_csv else 0
    return (cfg.trial_count, stats.censored_count, size)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, info)
        self._stack: list[int] = []
        self._saved: list[tuple[dict, str, object]] = []
        self.active = False

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn):
        info = _INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = info(args, kwargs, result) if info and result is not None else None
                spans[idx] = (name, t0, t1, parent, extra)

        return wrapper

    def install(self, package) -> int:
        """Wrap every public function of ``MODULES`` wherever it is bound
        in ``package`` and its submodules; returns the number of bindings."""
        namespaces = [package.__dict__] + [
            m.__dict__ for n, m in sys.modules.items()
            if n.startswith(package.__name__ + ".") and m is not None
        ]
        wrappers = {}
        for mod_name in MODULES:
            mod = sys.modules[f"{package.__name__}.{mod_name}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{mod_name}.{attr}", obj))
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((ns, attr, obj))
                    ns[attr] = hit[1]
        return len(self._saved)

    def restore(self) -> None:
        for ns, attr, obj in reversed(self._saved):
            ns[attr] = obj
        self._saved.clear()

    # -- request boundaries ----------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, -1, None))
        self._stack.append(idx)
        self.active = True
        return idx

    def end(self, idx: int) -> None:
        self.active = False
        name, t0, _, parent, info = self.spans[idx]
        self.spans[idx] = (name, t0, time.perf_counter(), parent, info)
        self._stack.pop()

    def take(self) -> list[tuple]:
        """Hand over the spans recorded so far and start afresh."""
        out = list(self.spans)
        self.spans.clear()  # in place: the wrappers hold this list
        return out


def write_spans(path, *groups: list[tuple]) -> None:
    """One CSV line per span, gzip-compressed (a run records ~1e6 spans).
    Each group's span ids and parents continue from the previous group's."""
    offset = 0
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("id,parent,name,start_s,end_s,info\n")
        for spans in groups:
            for i, (name, t0, t1, parent, info) in enumerate(spans, offset):
                extra = ";".join(map(str, info)) if info else ""
                parent = parent + offset if parent >= 0 else -1
                fh.write(f"{i},{parent},{name},{t0!r},{t1!r},{extra}\n")
            offset += len(spans)


def _top_level(spans, names: set[str]) -> list[int]:
    """Spans in ``names`` with no ancestor in ``names``."""
    covered = [False] * len(spans)
    out = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        inside = parent >= 0 and (covered[parent] or spans[parent][0] in names)
        covered[i] = inside
        if name in names and not inside:
            out.append(i)
    return out


def layer_metrics(spans: list[tuple], setup_spans: list[tuple], requests: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``spans``) plus the set-up
    builds seen while warming up (``setup_spans``)."""
    dur = [t1 - t0 for _, t0, t1, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    self_by_module = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, _, _, _, _) in enumerate(spans):
        calls[name] += 1
        if name != "trials.trial_rng":
            self_by_module[name.split(".")[0]] += dur[i] - child[i]

    def total(*names: str) -> float:
        return sum(dur[i] for i in _top_level(spans, set(names)))

    def count(*names: str) -> int:
        return sum(calls[n] for n in names)

    m: dict[str, float] = {}
    runs = [spans[i][4] for i in _top_level(spans, {"trials.run_write_trials",
                                                    "trials.run_remote_trials"})]
    n_trials = sum(r[0] for r in runs if r)
    m["trials.self_s"] = self_by_module["trials"]
    m["trials.self_us_per_trial"] = 1e6 * m["trials.self_s"] / n_trials if n_trials else 0.0
    m["trials.trial_rng.calls"] = count("trials.trial_rng")
    m["trials.trial_rng.s"] = total("trials.trial_rng")
    m["trials.exact_children_s"] = sum(
        dur[i] for i, (name, _, _, parent, _) in enumerate(spans)
        if parent >= 0 and spans[parent][0].startswith("trials.")
        and not name.startswith("trials.")
    )
    m["trials.trials"] = n_trials
    m["trials.censored_fraction"] = sum(r[1] for r in runs if r) / n_trials if n_trials else 0.0
    m["trials.records_bytes"] = sum(r[2] for r in runs if r)

    lifts = [spans[i] for i in _top_level(spans, {"fock.apply_unitary"})]
    m["fock.self_s"] = self_by_module["fock"]
    m["fock.apply_unitary.calls"] = count("fock.apply_unitary")
    m["fock.apply_unitary.s"] = sum(t1 - t0 for _, t0, t1, _, _ in lifts)
    m["fock.apply_unitary.support_in"] = sum(s[4][1] for s in lifts if s[4])
    m["fock.apply_unitary.support_out"] = sum(s[4][2] for s in lifts if s[4])
    m["fock.amplitudes_per_s"] = (
        m["fock.apply_unitary.support_in"] / m["fock.apply_unitary.s"]
        if m["fock.apply_unitary.s"] else 0.0
    )
    for element in ELEMENTS:
        mine = [s for s in lifts if s[4] and s[4][0] == element]
        m[f"fock.lift.{element}.calls"] = len(mine)
        m[f"fock.lift.{element}.s"] = sum(t1 - t0 for _, t0, t1, _, _ in mine)
    m["fock.born_probabilities.s"] = total("fock.born_probabilities")
    m["fock.born_probabilities.patterns"] = sum(
        s[4][0] for s in spans if s[0] == "fock.born_probabilities" and s[4])
    m["fock.project.calls"] = count("fock.project_occupation", "fock.project_total_occupation")
    m["fock.project.s"] = total("fock.project_occupation", "fock.project_total_occupation")
    m["fock.restrict_embed.s"] = total("fock.restrict_state", "fock.embed_state")
    m["fock.fidelity.s"] = total("fock.fidelity_pure", "fock.fidelity_mixed", "fock.inner")

    m["protocol.self_s"] = self_by_module["protocol"]
    m["protocol.joint_emission_state.calls"] = count("protocol.joint_emission_state")
    m["protocol.joint_emission_state.s"] = total("protocol.joint_emission_state")
    m["protocol.generate_entanglement.calls"] = count("protocol.generate_entanglement")
    m["protocol.write_branches.s"] = total("protocol.write_branches")
    m["protocol.write_memory.s"] = total("protocol.write_memory")
    m["protocol.remote_transfer.s"] = total("protocol.remote_transfer")
    builds = {"protocol.build_write_setup", "protocol.build_read_setup",
              "protocol.build_remote_setup"}
    m["protocol.setup_build.s"] = sum(
        setup_spans[i][2] - setup_spans[i][1] for i in _top_level(setup_spans, builds))
    m["protocol.emissions_per_request"] = m["protocol.joint_emission_state.calls"] / requests

    m["optics.elements.calls"] = sum(v for k, v in calls.items() if k.startswith("optics."))
    m["optics.elements.s"] = total(*(k for k in calls if k.startswith("optics.")))

    m["source.retrieve.calls"] = count("source.retrieve")
    m["source.retrieve.s"] = total("source.retrieve")
    m["noise.apply_loss.calls"] = count("noise.apply_loss")
    m["noise.apply_loss.s"] = total("noise.apply_loss")
    m["noise.end_to_end_fidelity.s"] = total("noise.end_to_end_fidelity")
    m["noise.curves.s"] = total("noise.fidelity_vs_T", "noise.dF_vs_eta")

    m["cli.parse_s"] = total("cli.parse_config")
    run_spans = [i for i, s in enumerate(spans) if s[0] == "cli.run"]
    m["cli.run_self_s"] = sum(dur[i] - child[i] for i in run_spans)
    return m
