"""Output checks for every benchmark request.

The checks are physics invariants and cross-checks, never byte snapshots, so
they survive a change of the random-number scheme:

* normalisation (outcome frequencies sum to one, probabilities in range);
* fidelities in [0, 1];
* every exact command agrees with the same quantity recomputed through a
  second public path (``bsm-stats`` against ``write_branches``, the
  ``entangle`` herald against ``generate_entanglement``, ``read`` against
  ``write_branches`` + ``read_memory``, the curves against the ``noise``
  formulas, the records CSV against the run's aggregates);
* sampled statistics lie near their exact values. The exact values come from
  ``oracle_check`` run on a single trial, which builds the same exact event
  table the sampler draws from. Each statistic summed over the whole run
  must lie within ``POOLED_SIGMAS`` (4) of its exact sum; this catches a
  systematic sampler bias. Per request at 4 sigma, the thousands of
  statistics a run checks would flag correct output by chance several times
  per run. One request alone must stay inside a bound that a correct sampler
  crosses with probability ``FALSE_ALARM``: Bernstein's inequality for the
  frequencies and fidelities, which lie in [0, 1] and whose variance is known
  or bounded, so rare low-fidelity events cannot raise false alarms, and
  ``GROSS_SIGMAS`` for the mean number of rounds;
* ``oracle-check`` reports a verdict consistent with its own entries. Its
  built-in 3-sigma test over six entries flags about 2.5% of correct runs, so
  an exit code of 1 with a consistent report is counted as an oracle alarm,
  not a failure, and its entries go through the checks above.

Every check compares an observed value against an expected one within a
tolerance. The negative control adds twice the tolerance to each expected
value and requires the check to flag it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from client import Outcome, noise_params, run_config
from workloads import Request

FALSE_ALARM = 1e-9
GROSS_SIGMAS = 6.0
POOLED_SIGMAS = 4.0
OUTCOMES = ("PsiPlus", "PsiMinus", "PhiPlus", "PhiMinus")
MARKS = {"PsiPlus": "I", "PsiMinus": "Z", "PhiPlus": "X", "PhiMinus": "ZX"}


def exact_tol(expected: float) -> float:
    return 1e-10 + 1e-9 * abs(expected)


@dataclass(frozen=True)
class Comparison:
    name: str
    observed: float
    expected: float
    tol: float
    family: str | None = None  # pooled statistic this sample belongs to
    sigma: float = 0.0

    @property
    def ok(self) -> bool:
        return abs(self.observed - self.expected) <= self.tol

    def perturbed(self) -> "Comparison":
        bump = 2.0 * self.tol + 1e-9 * (1.0 + abs(self.expected))
        return Comparison(self.name, self.observed, self.expected + bump, self.tol,
                          self.family, self.sigma)


def bounded_mean(name: str, observed: float, exact: float, var: float, n: int,
                 family: str) -> Comparison:
    """Mean of ``n`` independent draws in [0, 1] with variance at most
    ``var``, checked at Bernstein's bound for ``FALSE_ALARM``."""
    log_term = math.log(2.0 / FALSE_ALARM)
    tol = (log_term / 3.0 + math.sqrt(log_term**2 / 9.0 + 2.0 * n * log_term * var)) / n
    return Comparison(name, observed, exact, tol + 1e-12, family, math.sqrt(var / n))


@dataclass
class Verdict:
    comparisons: list[Comparison] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    oracle_alarm: bool = False

    def require(self, cond: bool, message: str) -> None:
        if not cond:
            self.problems.append(message)

    def exact(self, name: str, observed, expected) -> None:
        self.comparisons.append(
            Comparison(name, float(observed), float(expected), exact_tol(float(expected)))
        )

    def failures(self) -> list[str]:
        out = list(self.problems)
        out += [f"{c.name}: {c.observed!r} vs {c.expected!r} (tol {c.tol:.3g})"
                for c in self.comparisons if not c.ok]
        return out


def _in_unit(x: float, slack: float = 1e-12) -> bool:
    return -slack <= x <= 1.0 + slack


def _var01(mean: float) -> float:
    """Largest variance of a [0, 1] variable with this mean (exact for a
    Bernoulli variable)."""
    return max(mean * (1.0 - mean), 0.0)


class Checker:
    """Computes references through the public API and judges outcomes."""

    def __init__(self, modules):
        self.m = modules
        self._pooled: dict[str, list[tuple[int, float, float]]] = defaultdict(list)
        self._negative: dict[str, tuple[Request, Outcome]] = {}
        self.oracle_alarms = 0

    # -- entry points ---------------------------------------------------

    def check(self, req: Request, out: Outcome) -> Verdict:
        """Judge one request; remembers pooled samples and one negative
        control candidate per kind."""
        verdict = self.judge(req, out)
        if not verdict.failures():
            for c in verdict.comparisons:
                if c.family and c.sigma > 1e-12:
                    self._pooled[c.family].append((req.index, c.observed - c.expected, c.sigma))
            self._negative.setdefault(req.kind, (req, out))
            self.oracle_alarms += verdict.oracle_alarm
        return verdict

    def judge(self, req: Request, out: Outcome) -> Verdict:
        verdict = Verdict()
        if out.error:
            verdict.problems.append(out.error)
            return verdict
        if out.payload is None:
            verdict.problems.append("no output")
            return verdict
        try:
            getattr(self, "_" + req.kind.replace("-", "_"))(req, out, verdict)
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
            verdict.problems.append(f"malformed output: {type(exc).__name__}: {exc}")
        return verdict

    def pooled_failures(self) -> tuple[dict[str, float], set[int]]:
        """z of each statistic summed over the run, and the requests of every
        statistic beyond ``POOLED_SIGMAS``."""
        zs, failed = {}, set()
        for family, samples in self._pooled.items():
            z = sum(d for _, d, _ in samples) / math.sqrt(sum(s * s for _, _, s in samples))
            zs[family] = z
            if abs(z) > POOLED_SIGMAS:
                failed.update(i for i, _, _ in samples)
        return zs, failed

    def negative_control(self) -> dict[str, bool]:
        """For one passing request of each kind: is a perturbed reference
        flagged? Every value must be True."""
        flagged = {}
        for kind, (req, out) in self._negative.items():
            verdict = self.judge(req, out)
            verdict.comparisons = [c.perturbed() for c in verdict.comparisons]
            flagged[kind] = bool(verdict.comparisons) and all(
                not c.ok for c in verdict.comparisons
            )
        return flagged

    # -- helpers --------------------------------------------------------

    def _exact_side(self, req: Request, experiment: str) -> dict[str, float]:
        report = self.m.trials.oracle_check(run_config(self.m, req.p, 1), experiment=experiment)
        return {e.name: e.exact for e in report.entries}

    def _write_samples(self, v: Verdict, exact: dict, freqs: dict, fid: float,
                       rounds: float | None, n: int) -> None:
        for name in OUTCOMES:
            p = exact[f"outcome[{name}]"]
            v.comparisons.append(bounded_mean(f"outcome[{name}]", freqs[name], p,
                                              _var01(p), n, f"write.outcome[{name}]"))
        mu = exact["mean_conditional_fidelity"]
        v.comparisons.append(bounded_mean("mean_conditional_fidelity", fid, mu,
                                          _var01(mu), n, "write.fidelity"))
        if rounds is not None and "mean_rounds" in exact:
            # geometric number of rounds: exact variance (1 - h) / h^2
            h = 1.0 / exact["mean_rounds"]
            sigma = math.sqrt((1.0 - h) / n) / h
            v.comparisons.append(Comparison("mean_rounds", rounds, exact["mean_rounds"],
                                            GROSS_SIGMAS * sigma, "write.rounds", sigma))

    def _run_stats(self, req: Request, out: Outcome, v: Verdict) -> dict:
        s = out.payload
        n = req.p["trials"]
        v.require(out.code == (0 if s["success_count"] else 1), f"exit code {out.code}")
        v.exact("trial_count", s["trial_count"], n)
        v.require(0 <= s["success_count"] + s["censored_count"] <= n, "counts exceed trials")
        v.exact("success_rate", s["success_rate"], s["success_count"] / n)
        v.require(_in_unit(s["mean_conditional_fidelity"]), "fidelity outside [0, 1]")
        v.require(_in_unit(s["success_rate"]), "success rate outside [0, 1]")
        return s

    # -- one method per request kind -------------------------------------

    def _entangle(self, req: Request, out: Outcome, v: Verdict) -> None:
        p = req.p
        proto = self.m.protocol
        v.require(out.code == 0, f"exit code {out.code}")
        setup = proto.build_write_setup(p["truncation"])
        state, herald = proto.generate_entanglement(p["pc"], setup)
        fid = self.m.fock.fidelity_pure(state, proto.ideal_entangled_state(setup))
        got = out.payload
        v.require(0.0 < got["herald_probability"] <= 1.0, "herald outside (0, 1]")
        v.require(_in_unit(got["fidelity_vs_ideal"]), "fidelity outside [0, 1]")
        v.exact("pc", got["pc"], p["pc"])
        v.exact("herald_probability", got["herald_probability"], herald)
        v.exact("fidelity_vs_ideal", got["fidelity_vs_ideal"], fid)

    def _bsm_stats(self, req: Request, out: Outcome, v: Verdict) -> None:
        p = req.p
        proto = self.m.protocol
        v.require(out.code == 0, f"exit code {out.code}")
        branches = proto.write_branches(p["alpha"], p["beta"], p["pc"],
                                        proto.build_write_setup(p["truncation"]))
        probs = out.payload["outcome_probabilities"]
        v.require(sorted(probs) == sorted(OUTCOMES), f"outcomes {sorted(probs)}")
        v.require(out.payload["marks"] == {o: MARKS[o] for o in probs}, "wrong Pauli marks")
        v.require(all(_in_unit(x) for x in probs.values()), "probability outside [0, 1]")
        v.require(sum(probs.values()) <= 1.0 + 1e-9, "outcome probabilities exceed 1")
        for outcome, branch in branches.items():
            v.exact(f"p[{outcome.value}]", probs[outcome.value], branch.probability)

    def _read(self, req: Request, out: Outcome, v: Verdict) -> None:
        p = req.p
        proto = self.m.protocol
        got = out.payload
        v.require(out.code == 0, f"exit code {out.code}")
        v.require(got["outcome"] in OUTCOMES, f"outcome {got['outcome']!r}")
        v.require(got["mark"] == MARKS[got["outcome"]], "wrong Pauli mark")
        v.require(got["rounds_until_herald"] >= 1, "rounds_until_herald < 1")
        v.require(_in_unit(got["roundtrip_fidelity"]), "fidelity outside [0, 1]")
        v.require(_in_unit(got["photon_present_probability"]), "probability outside [0, 1]")
        # the target holds one photon, so overlap cannot exceed photon presence
        v.require(got["roundtrip_fidelity"] <= got["photon_present_probability"] + 1e-9,
                  "fidelity exceeds photon-present probability")
        outcome = proto.BellOutcome(got["outcome"])
        branch = proto.write_branches(p["alpha"], p["beta"], p["pc"],
                                      proto.build_write_setup(p["truncation"]))[outcome]
        record = proto.TrialRecord(
            rounds_until_herald=int(got["rounds_until_herald"]),
            click_pattern=tuple(o == got["outcome"] for o in OUTCOMES),
            outcome=outcome, mark=branch.mark, atomic_state=branch.atomic_state,
            success=True,
        )
        photon = proto.read_memory(record, p["efficiency"])
        setup = proto.build_read_setup(p["truncation"])
        fid = self.m.fock.fidelity_mixed(photon, proto.read_target(p["alpha"], p["beta"], setup))
        present = proto.photon_present_probability(photon, [setup.out_h, setup.out_v])
        v.exact("efficiency", got["efficiency"], p["efficiency"])
        v.exact("roundtrip_fidelity", got["roundtrip_fidelity"], fid)
        v.exact("photon_present_probability", got["photon_present_probability"], present)

    def _curves_fig4a(self, req: Request, out: Outcome, v: Verdict) -> None:
        p = req.p
        rows = out.payload
        v.require(out.code == 0, f"exit code {out.code}")
        v.exact("rows", len(rows), p["points"])
        v.exact("T[first]", rows[0][0], p["t_min"])
        v.exact("T[last]", rows[-1][0], p["t_max"])
        v.require(all(_in_unit(f) for _, f in rows), "F outside [0, 1]")
        v.require(all(a[1] <= b[1] for a, b in zip(rows, rows[1:])),
                  "F decreases with preparation time")
        ref = self.m.noise.fidelity_vs_T(p["eta_prime"], p["f_p"], [t for t, _ in rows])
        for k, ((_, f), (_, f_ref)) in enumerate(zip(rows, ref)):
            v.exact(f"F[{k}]", f, f_ref)

    def _curves_fig4b(self, req: Request, out: Outcome, v: Verdict) -> None:
        p = req.p
        rows = out.payload
        t_list = [float(t) for t in p["t_list"].split(";")]
        v.require(out.code == 0, f"exit code {out.code}")
        v.exact("rows", len(rows), p["points"] * len(t_list))
        v.require(all(d >= 0.0 for _, d, _ in rows), "negative delta_F")
        for T in t_list:
            curve = [(eta, d) for eta, d, t in rows if t == T]
            v.exact(f"rows[T={T}]", len(curve), p["points"])
            v.require(all(a[1] >= b[1] for a, b in zip(curve, curve[1:])),
                      "delta_F grows with efficiency")
            ref = self.m.noise.dF_vs_eta(T, p["f_p"], [eta for eta, _ in curve])
            for k, ((_, d), (_, d_ref)) in enumerate(zip(curve, ref)):
                v.exact(f"dF[T={T}][{k}]", d, d_ref)

    def _fidelity(self, req: Request, out: Outcome, v: Verdict) -> None:
        r = out.payload
        noise = noise_params(self.m, req.p)
        v.require(out.code == 0, f"exit code {out.code}")
        v.require(_in_unit(r["F"]), "F outside [0, 1]")
        v.require(0.0 < r["herald_probability"] <= 1.0, "herald outside (0, 1]")
        v.require(min(r["p0"], r["p1"], r["po"]) >= 0.0, "negative mixture weight")
        v.require(r["p0"] + r["p1"] + r["po"] <= 1.0 + 1e-12, "mixture weights exceed 1")
        v.exact("delta_F", r["delta_F"], 1.0 - r["F"])
        v.exact("eta_prime", r["eta_prime"], noise.eta_prime)
        v.exact("T_seconds", r["T_seconds"], 1.0 / (r["herald_probability"] * noise.f_p))

    def _teleport(self, req: Request, out: Outcome, v: Verdict) -> None:
        s = self._run_stats(req, out, v)
        v.exact("success+censored", s["success_count"] + s["censored_count"], req.p["trials"])
        if s["success_count"]:
            total = sum(s["outcome_frequencies"].values())
            v.require(abs(total - 1.0) < 1e-9, f"outcome frequencies sum to {total}")
        self._write_samples(v, self._exact_side(req, "write"), s["outcome_frequencies"],
                            s["mean_conditional_fidelity"], s["mean_rounds"],
                            s["success_count"])

    def _records(self, req: Request, out: Outcome, v: Verdict) -> None:
        self._teleport(req, out, v)
        s = out.payload
        rows = out.records
        v.require(rows[0] == ["trial", "rounds", "outcome", "fidelity", "censored"],
                  f"records header {rows[0]}")
        body = rows[1:]
        v.exact("records.rows", len(body), req.p["trials"])
        done = [r for r in body if r[4] == "0"]
        v.exact("records.successes", len(done), s["success_count"])
        for name in OUTCOMES:
            hits = sum(r[2] == name for r in done)
            v.exact(f"records.count[{name}]", hits,
                    s["outcome_frequencies"][name] * s["success_count"])
        if done:
            v.exact("records.mean_fidelity",
                    sum(float(r[3]) for r in done) / len(done), s["mean_conditional_fidelity"])
            v.exact("records.mean_rounds",
                    sum(int(r[1]) for r in done) / len(done), s["mean_rounds"])

    def _remote_transfer(self, req: Request, out: Outcome, v: Verdict) -> None:
        s = self._run_stats(req, out, v)
        n = req.p["trials"]
        exact = self._exact_side(req, "remote")
        v.exact("outcome_frequencies[success]", s["outcome_frequencies"]["success"],
                s["success_rate"])
        p = exact["success_rate"]
        v.comparisons.append(bounded_mean("success_rate", s["success_rate"], p,
                                          _var01(p), n, "remote.success"))
        if s["success_count"]:
            mu = exact["mean_conditional_fidelity"]
            v.comparisons.append(bounded_mean(
                "mean_conditional_fidelity", s["mean_conditional_fidelity"], mu,
                _var01(mu), s["success_count"], "remote.fidelity"))

    def _oracle_check(self, req: Request, out: Outcome, v: Verdict) -> None:
        report = out.payload
        entries = {e["name"]: e for e in report["entries"]}
        tol = report["tolerance_sigmas"]
        any_flagged = any(e["flagged"] for e in entries.values())
        v.require(not report["insufficient_data"], "insufficient data")
        v.require(out.code == (1 if any_flagged else 0),
                  f"exit code {out.code} with flagged={any_flagged}")
        for e in entries.values():
            v.require(e["flagged"] == (e["sigma_distance"] > tol), f"{e['name']}: verdict")
        v.oracle_alarm = any_flagged
        exact = self._exact_side(req, "write")
        v.require(set(entries) == set(exact), f"oracle entries {sorted(entries)}")
        for name, value in exact.items():
            v.exact(f"exact:{name}", entries[name]["exact"], value)
        self._write_samples(
            v, exact, {o: entries[f"outcome[{o}]"]["empirical"] for o in OUTCOMES},
            entries["mean_conditional_fidelity"]["empirical"],
            entries["mean_rounds"]["empirical"] if "mean_rounds" in entries else None,
            req.p["trials"],
        )
