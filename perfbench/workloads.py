"""Seeded inputs, operations and independent output checks for each workload.

Every operation is one user's job on one generated instance.  Its input is a
function of (workload, seed, operation index) alone, so the same seed gives
the same sequence of jobs on every run and machine.  The library only ever
sees plain link dicts, numbers and JSON files built from them.

Job kinds are dealt from shuffled blocks with fixed proportions, and within
each kind the link count (and in solve the usage segment) comes from a
low-discrepancy sequence with a seeded offset instead of independent draws.
The families' distributions are unchanged, but any prefix of a sequence
covers them evenly, so runs of different lengths and seeds see the same mix
of small and large jobs; the costs grow like k^2 or k^3, so independent draws
would let a few large jobs swing a run's percentiles.

Checks run outside the timed region and use none of the library's solvers or
certificates: the equilibrium conditions are re-derived from the raw link
coefficients in O(k).
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0
TOL = 1e-9
FOUR_THIRDS = 4.0 / 3.0
PLATEAU_TARGET = 1.192
MIN_PLATEAU_RATIO = 96.0 / 53.0


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _close(x: float, y: float, rtol: float = TOL) -> bool:
    return abs(x - y) <= rtol * max(1.0, abs(x), abs(y))


# ---------------------------------------------------------------- generators


def _stratified(seed: int, stream: str, n: int, step: float = GOLDEN) -> float:
    """Point n of a seeded additive-recurrence sequence in [0, 1)."""
    u0 = random.Random(f"{stream}:{seed}:offset").random()
    return (u0 + n * step) % 1.0


def _log_uniform_int(u: float, lo: int, hi: int) -> int:
    return min(hi, int(math.exp(math.log(lo) + u * (math.log(hi + 1) - math.log(lo)))))


def _dealt(seed: int, name: str, i: int, block: list[str]) -> tuple[str, int]:
    """Kind of job i, dealt from shuffled blocks with the block's proportions,
    and the number of earlier jobs of the same kind."""
    order = list(block)
    random.Random(f"{name}:{seed}:block{i // len(block)}").shuffle(order)
    pos = i % len(block)
    kind = order[pos]
    return kind, (i // len(block)) * block.count(kind) + order[:pos].count(kind)


def planted_network(rng: random.Random, k: int, plants: int) -> dict:
    """k links sorted by distinct intercepts, with super-efficient links planted.

    Multipliers R are uniform in [2, 8].  Links 1..k-1 are cut into ``plants``
    equal runs and one link is planted at a uniform position in each, which
    keeps the stage lengths, and so the cost of a job, from swinging with the
    draw.  A planted link at position p has
    efficiency between 1.2 and 3 times R[p-1] times the efficiency of all
    links before it, so the threshold mechanism freezes there.  Every other
    link's efficiency is a fraction of the last planted link's, so it never
    triggers a freeze: the planted links are exactly the super-efficient ones.
    """
    R = [rng.uniform(2.0, 8.0) for _ in range(k - 1)]
    plants = min(plants, k - 1)
    positions = {1 + (j * (k - 1)) // plants + int(rng.random() * ((k - 1) // plants))
                 for j in range(plants)}
    effs: list[float] = []
    base = 1.0
    total = 0.0
    for p in range(k):
        if p in positions:
            e = R[p - 1] * total * rng.uniform(1.2, 3.0)
            base = e
        else:
            e = base * rng.uniform(0.1, 1.0)
        effs.append(e)
        total += e
    b = 0.0
    links = []
    for p, e in enumerate(effs):
        if p:
            b += rng.uniform(0.01, 1.0)
        links.append({"a": 1.0 / e, "b": b})
    return {"links": links, "R": R, "plants": sorted(positions)}


def breakpoints(links: list[dict]) -> list[float]:
    """Selfish breakpoints sum_{i<j} (b_j - b_i) / a_i, by prefix sums."""
    out = []
    se = sbe = 0.0
    for link in links:
        out.append(link["b"] * se - sbe)
        e = 1.0 / link["a"]
        se += e
        sbe += link["b"] * e
    return out


def threshold_tail(links: list[dict], plants: list[int]) -> float:
    """Large-demand ratio limit of the threshold mechanism on a planted network."""
    effs = [1.0 / l["a"] for l in links]
    if not plants:
        return 1.0
    return math.fsum(effs) / math.fsum(effs[plants[-1]:])


# ------------------------------------------------------------- certificates


def _used_levels_equal(levels: list[float], flows: list[float], floors: list[float],
                       what: str) -> None:
    used = [v for v, f in zip(levels, flows) if f > 0.0]
    _require(bool(used), f"{what}: no link carries flow")
    top, bottom = max(used), min(used)
    slack = TOL * max(1.0, abs(top))
    _require(top - bottom <= slack, f"{what}: used levels differ, {bottom} vs {top}")
    for i, (f, floor) in enumerate(zip(flows, floors)):
        if f == 0.0:
            _require(floor >= top - slack, f"{what}: unused link {i} is cheaper, {floor} < {top}")


def _flows_sum(flows, rate: float, what: str) -> None:
    _require(all(f >= 0.0 for f in flows), f"{what}: negative flow")
    _require(_close(math.fsum(flows), rate), f"{what}: flows sum to {math.fsum(flows)}, not {rate}")


def check_nash(links: list[dict], rate: float, res) -> None:
    flows = res.profile.flows
    _require(len(flows) == len(links), "nash: wrong link count")
    _flows_sum(flows, rate, "nash")
    lat = [l["a"] * f + l["b"] for l, f in zip(links, flows)]
    _used_levels_equal(lat, flows, [l["b"] for l in links], "nash")
    cost = math.fsum(f * v for f, v in zip(flows, lat))
    _require(_close(res.cost, cost), f"nash: cost {res.cost} vs {cost}")


def check_opt(links: list[dict], rate: float, res) -> None:
    flows = res.profile.flows
    _require(len(flows) == len(links), "opt: wrong link count")
    _flows_sum(flows, rate, "opt")
    marginal = [2.0 * l["a"] * f + l["b"] for l, f in zip(links, flows)]
    _used_levels_equal(marginal, flows, [l["b"] for l in links], "opt")
    cost = math.fsum(f * (l["a"] * f + l["b"]) for l, f in zip(links, flows))
    _require(_close(res.cost, cost), f"opt: cost {res.cost} vs {cost}")


def capped_certificate(links: list[dict], caps: list[float], flows, rate: float) -> bool:
    """O(k) equilibrium test for capped affine latencies.

    A used link's latency may not exceed any other link's latency just above
    its own flow (infinite at the cap).  Comparing with the smallest right
    limit, or the second smallest when the link itself holds the smallest,
    covers every pair.
    """
    _require(len(flows) == len(links), "mn: wrong link count")
    _flows_sum(flows, rate, "mn")
    _require(all(f <= c for f, c in zip(flows, caps)), "mn: flow above cap")
    right = [math.inf if f >= c else l["a"] * f + l["b"] for l, f, c in zip(links, flows, caps)]
    lo1 = lo2 = math.inf
    arg = -1
    for g, v in enumerate(right):
        if v < lo1:
            lo1, lo2, arg = v, lo1, g
        elif v < lo2:
            lo2 = v
    used = [(i, l["a"] * f + l["b"]) for i, (l, f) in enumerate(zip(links, flows)) if f > 0.0]
    level = max(v for _, v in used)
    slack = TOL * max(1.0, level)
    return all(v <= (lo2 if i == arg else lo1) + slack for i, v in used)


def _caps(lats) -> list[float]:
    return [lat.cap for lat in lats]


# ---------------------------------------------------------------- workloads


class Workload:
    """One seeded job family.  ``make`` builds job i, ``run`` is the timed
    part, ``check`` judges the output outside the timed region."""

    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")


class Analyze(Workload):
    """One planted instance analyzed at many rates: k log-uniform in [8, 64]."""

    name = "analyze"
    GRID = 24

    def make(self, i: int) -> dict:
        rng = self.rng(i)
        k = _log_uniform_int(_stratified(self.seed, self.name, i), 8, 64)
        inst = planted_network(rng, k, 3)
        bps = breakpoints(inst["links"])
        lo, hi = bps[1] / 4.0, 2.0 * bps[-1]
        grid = [lo * (hi / lo) ** ((j + rng.random()) / self.GRID) for j in range(self.GRID)]
        return {"kind": "analyze", "k": k, **inst, "grid": grid}

    def run(self, L, job: dict):
        net = L.normalize_network(job["links"])
        mech = L.build_threshold_mechanism(net, job["R"])
        plain_sup = L.ratio_sup(net)
        thr_sup = L.ratio_sup(net, mech)
        plain_curve = L.ratio_curve(net, None, job["grid"])
        thr_curve = L.ratio_curve(net, mech, job["grid"])
        return plain_sup, thr_sup, plain_curve, thr_curve

    def check(self, job: dict, out) -> None:
        (plain, _), (thr, _), plain_curve, thr_curve = out
        _require(1.0 - TOL <= plain <= FOUR_THIRDS + TOL, f"plain sup {plain} outside [1, 4/3]")
        for name, sup, curve, tail in (
            ("plain", plain, plain_curve, 1.0),
            ("threshold", thr, thr_curve, threshold_tail(job["links"], job["plants"])),
        ):
            _require(len(curve) == len(job["grid"]), f"{name} curve has wrong length")
            for s in curve:
                _require(s.ratio >= 1.0 - TOL, f"{name} ratio {s.ratio} below 1 at r={s.r}")
                _require(_close(s.ratio, s.cost_num / s.cost_den), f"{name} ratio is not num/den")
            top = max(s.ratio for s in curve)
            _require(sup >= top - TOL * top, f"{name} sup {sup} below sampled {top}")
            _require(sup >= tail - TOL * tail, f"{name} sup {sup} below tail {tail}")


class Solve(Workload):
    """One rate on each fresh large instance: k log-uniform in [100, 1000].

    Kinds are dealt 7 nash : 7 opt : 3 mn : 3 check per 20 jobs, so the cheap
    kinds hold 70% of jobs; the median then falls inside the cheap kinds and
    the 90th percentile a third of the way into the expensive ones.
    """

    name = "solve"
    BLOCK = ["nash"] * 7 + ["opt"] * 7 + ["mn"] * 3 + ["check"] * 3

    def make(self, i: int) -> dict:
        rng = self.rng(i)
        kind, n = _dealt(self.seed, self.name, i, self.BLOCK)
        stream = f"{self.name}-{kind}"
        k = _log_uniform_int(_stratified(self.seed, stream, n), 100, 1000)
        inst = planted_network(rng, k, 3)
        bps = breakpoints(inst["links"])
        # Open a uniformly drawn number of links: a rate inside segment j.
        j = 1 + int(_stratified(self.seed, stream, n, SILVER) * k)
        top = bps[j] if j < k else 2.0 * bps[-1]
        rate = rng.uniform(bps[j - 1], top)
        return {"kind": kind, "k": k, **inst, "rate": rate}

    def run(self, L, job: dict):
        net = L.normalize_network(job["links"])
        kind, rate = job["kind"], job["rate"]
        if kind == "nash":
            return L.nash_flow(net, rate)
        if kind == "opt":
            return L.opt_flow(net, rate)
        params, lats = L.build_threshold_mechanism(net, job["R"])
        if kind == "mn":
            return lats, L.water_fill(lats, rate, latency_family="modified")
        profile = L.mn_flow(net, params, rate)
        return lats, profile, L.is_user_equilibrium(lats, profile)

    def check(self, job: dict, out) -> None:
        kind, links, rate = job["kind"], job["links"], job["rate"]
        if kind == "nash":
            check_nash(links, rate, out)
        elif kind == "opt":
            check_opt(links, rate, out)
        elif kind == "mn":
            lats, res = out
            _require(capped_certificate(links, _caps(lats), res.profile.flows, rate),
                     "mn: water-filled profile is not an equilibrium")
        else:
            lats, profile, verdict = out
            ours = capped_certificate(links, _caps(lats), profile.flows, rate)
            _require(ours, "check: threshold flow is not an equilibrium")
            _require(bool(verdict) == ours, f"check: library verdict {bool(verdict)}, expected {ours}")


def plateau_network(rng: random.Random) -> dict:
    """Two links: slope ratio R uniform in (96/53, 200), first slope in
    [0.1, 5], intercept gap in [0.01, 3]."""
    R = rng.uniform(MIN_PLATEAU_RATIO, 200.0)
    while R <= MIN_PLATEAU_RATIO:
        R = rng.uniform(MIN_PLATEAU_RATIO, 200.0)
    a1 = rng.uniform(0.1, 5.0)
    return {"links": [{"a": a1, "b": 0.0}, {"a": a1 / R, "b": rng.uniform(0.01, 3.0)}]}


def _two_link_opt_cost(links: list[dict], rate: float) -> float:
    (a1, b1), (a2, b2) = ((l["a"], l["b"]) for l in links)
    x = min(rate, max(0.0, (2.0 * a2 * rate + b2 - b1) / (2.0 * (a1 + a2))))
    y = rate - x
    return x * (a1 * x + b1) + y * (a2 * y + b2)


def _plateau_value_rl(link: dict, hs: float, he: float, x: float) -> tuple[float, float]:
    """Value and right limit of the plateau-modified first latency at x."""
    a, b = link["a"], link["b"]
    held = a * he + b
    value = held if hs < x <= he else a * x + b
    right = held if hs <= x < he else a * x + b
    return value, right


class Plateau(Workload):
    """Many small two-link plateau jobs from the 96/53 < R < 200 sweep.

    The curve length is log-uniform in [1, 200] rates (median 14), so job
    costs spread over about 3.5x.  With every job costing the same, the median
    latency would jump between the machine's fast and slow states instead of
    moving in proportion to the time spent in each.
    """

    name = "plateau"
    CURVE = (1, 200)
    PROBES = 4

    def make(self, i: int) -> dict:
        rng = self.rng(i)
        inst = plateau_network(rng)
        n = _log_uniform_int(_stratified(self.seed, self.name, i), *self.CURVE)
        curve = [2.0 * (j + rng.random()) / n for j in range(n)]
        probes = [2.0 * (1.0 - rng.random()) for _ in range(self.PROBES)]
        return {"kind": "plateau", "k": 2, **inst, "curve": curve, "probes": probes}

    def run(self, L, job: dict):
        net = L.normalize_network(job["links"])
        params = L.solve_plateau_params(net)
        lats = list(L.build_plateau_mechanism(net, params))
        mech = (params, lats)
        sup = L.ratio_sup(net, mech)
        curve = L.ratio_curve(net, mech, [u * params.resume_rate for u in job["curve"]])
        probes = []
        for u in job["probes"]:
            r = u * params.resume_rate
            probes.append((r, L.worst_equilibrium_cost_two_links(lats, r), L.water_fill(lats, r)))
        return params, sup, curve, probes

    def check(self, job: dict, out) -> None:
        params, (sup, _), curve, probes = out
        links = job["links"]
        _require(1.0 - TOL <= sup <= PLATEAU_TARGET + 1e-3, f"plateau sup {sup} above 1.192")
        top = max(s.ratio for s in curve)
        _require(sup >= top - TOL * top, f"plateau sup {sup} below sampled {top}")
        hs, he = params.hold_start, params.hold_end
        for r, worst, wf in probes:
            opt = _two_link_opt_cost(links, r)
            _require(worst >= opt * (1.0 - TOL), f"worst cost {worst} below optimum {opt}")
            _require(worst <= opt * (sup + TOL), f"worst ratio {worst / opt} above sup {sup}")
            x, y = wf.profile.flows
            _flows_sum((x, y), r, "plateau water_fill")
            v1, rl1 = _plateau_value_rl(links[0], hs, he, x)
            v2 = rl2 = links[1]["a"] * y + links[1]["b"]
            slack = TOL * max(1.0, v1, v2)
            _require(x == 0.0 or v1 <= rl2 + slack, f"link 0 envies link 1 at rate {r}")
            _require(y == 0.0 or v2 <= rl1 + slack, f"link 1 envies link 0 at rate {r}")
            _require(wf.cost <= worst * (1.0 + TOL), f"equilibrium cost {wf.cost} above worst {worst}")


class Cli(Workload):
    """In-process ``anarchy`` command-line jobs on small JSON files, k in [2, 10].

    The seven job kinds are dealt in equal shares, with the command's default
    options.  Their median latencies on a 2-vCPU x86-64 machine, Python 3.11:
    solve nash 1.2 ms, solve opt 1.2 ms, solve mn plateau 1.6 ms, solve mn
    threshold 2.0 ms, verify core 9.1 ms, curve (200 samples) 15.6 ms and
    verify known 112 ms.  The median then falls among the solve jobs, and the
    90th percentile 30% of the way into the verify-known jobs, away from the
    boundary (86%) between them and the curve jobs.
    """

    name = "cli"
    BLOCK = ["solve-nash", "solve-opt", "solve-mn-threshold", "solve-mn-plateau", "curve",
             "verify-core", "verify-known"]

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def make(self, i: int) -> dict:
        rng = self.rng(i)
        kind, _ = _dealt(self.seed, self.name, i, self.BLOCK)
        job: dict = {"kind": kind}
        if kind == "solve-mn-plateau":
            inst = plateau_network(rng)
            job["mechanism"] = {"kind": "plateau"}
        elif kind.startswith(("solve", "curve")):
            k = rng.randint(2, 10)
            inst = planted_network(rng, k, rng.randint(0, 2))
            job["mechanism"] = {"kind": "threshold", "R": inst["R"]}
        if "mechanism" in job:
            job["links"] = inst["links"]
            job["k"] = len(inst["links"])
            bps = breakpoints(inst["links"])
            job["rate"] = rng.uniform(0.0, 2.0 * bps[-1] + 1.0)
        else:
            job["k"] = 0
        return job

    def prepare(self, job: dict) -> list[str]:
        """Write the job's files and return its argv (outside the timed region)."""
        kind = job["kind"]
        if kind.startswith("verify"):
            return ["verify", "--suite", kind.split("-")[1], "--out", self._path("verify")]
        net_path, mech_path = self._path("net.json"), self._path("mech.json")
        with open(net_path, "w", encoding="utf-8") as fh:
            json.dump({"links": job["links"]}, fh)
        with open(mech_path, "w", encoding="utf-8") as fh:
            json.dump(job["mechanism"], fh)
        if kind == "curve":
            return ["curve", net_path, "--mechanism", mech_path,
                    "--csv", self._path("curve.csv"), "--svg", self._path("curve.svg")]
        which = kind.split("-")[1]
        argv = ["solve", net_path, "--rate", repr(job["rate"]), "--which", which]
        return argv + (["--mechanism", mech_path] if which == "mn" else [])

    def run(self, L, job: dict):
        argv = job["argv"]
        call = {"solve": L.cli_solve, "curve": L.cli_curve, "verify": L.cli_verify}[argv[0]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call(job["k"], argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, job: dict, out) -> None:
        code, stdout, stderr = out
        _require(code == 0, f"exit code {code}: {stderr.strip()[:200]}")
        kind = job["kind"]
        if kind.startswith("solve"):
            rows = [line.split() for line in stdout.splitlines()[2:-1]]
            _require(len(rows) == job["k"], f"solve printed {len(rows)} rows for {job['k']} links")
            flows = [float(r[1]) for r in rows]
            _require(abs(math.fsum(flows) - job["rate"]) <= 1e-5 * len(rows) * max(1.0, job["rate"]),
                     "solve: printed flows do not sum to the rate")
        elif kind == "curve":
            with open(self._path("curve.csv"), newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            _require(rows[0] == ["r", "cost_num", "cost_den", "ratio", "regime"], "curve: bad header")
            _require(len(rows) > 2, "curve: no samples")
            for r, num, den, ratio, regime in rows[1:]:
                _require(float(ratio) >= 1.0 - TOL and bool(regime), f"curve: bad row at r={r}")
            with open(self._path("curve.svg"), encoding="utf-8") as fh:
                _require(fh.read(4) == "<svg", "curve: SVG missing")
        else:
            with open(self._path(os.path.join("verify", "verify_report.json")), encoding="utf-8") as fh:
                report = json.load(fh)
            _require(report["results"] and all(r["ok"] for r in report["results"]),
                     "verify: report has failures")


WORKLOADS = {cls.name: cls for cls in (Analyze, Solve, Plateau, Cli)}
