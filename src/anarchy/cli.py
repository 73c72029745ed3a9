"""Command-line front end.

Subcommands: ``solve`` prints one flow table, ``curve`` sweeps the cost
ratio into CSV (optionally SVG), ``bounds`` evaluates the closed-form
worst-case bounds and ``verify`` runs built-in invariant suites.  Runs that
write files also drop a ``run_manifest.json`` next to them recording input
digests, tool version and tolerances.

Exit codes: 0 success, 1 verification failure, 2 malformed input or usage,
3 parameter outside a solver's domain, 4 filesystem trouble.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import random
import sys
from itertools import groupby
from operator import attrgetter

from . import __version__
from .analysis import (
    Mechanism,
    benign_bound,
    curve_breakpoints,
    greedy_parameters,
    lower_bound_value,
    ratio_curve,
    ratio_sup,
    recurrence_bound,
    tail_ratio,
    two_link_simple_bound,
)
from .equilibrium import nash_flow, opt_flow, water_fill, worst_equilibrium_cost
from .errors import AnarchyError, NegativeRate, SchemaError
from .mechanisms import (
    PLATEAU_TARGET,
    build_plateau_mechanism,
    build_threshold_mechanism,
    mechanism_from_dict,
    mn_uses_links_no_earlier_than_opt,
    solve_plateau_params,
)
from .model import (
    DEFAULT_TOLERANCE,
    INF,
    ParallelNetwork,
    PiecewiseLatency,
    _ROUNDING,
    _allowance,
    network_from_dict,
    normalize_network,
)


def _load_json(path: str, inputs: dict[str, bytes]):
    """Parse the file at `path`, read once, and keep its bytes in `inputs`.

    The manifest digests those bytes, the ones parsed.  Integers are read
    as floats, so one past the float range becomes inf and meets the same
    finite checks as 1e400.
    """
    with open(path, "rb") as fh:
        data = inputs[path] = fh.read()
    try:
        return json.loads(data.decode("utf-8"), parse_int=float)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path} nests too deeply") from exc


def _write_text(path: str, text: str) -> None:
    """Write `text` to a new file at `path`, replacing any file already there.

    The old file is removed rather than truncated: ext4 writes a truncated
    and rewritten file back to disk when it is closed, so every command
    would wait on the device once per output.
    """
    with contextlib.suppress(OSError):
        os.unlink(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _sha256(data: bytes) -> str:
    # hashlib loads OpenSSL, so only a command with inputs to digest imports it.
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _write_manifest(directory: str, argv: list[str], inputs: dict[str, bytes],
                    outputs: list[str]) -> str:
    # datetime is imported on first use: only commands that write files need it.
    from datetime import datetime, timezone

    manifest = {
        "command": ["anarchy", *argv],
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "inputs": {p: _sha256(data) for p, data in inputs.items()},
        "outputs": outputs,
        "tolerances": {"comparison": DEFAULT_TOLERANCE, "rounding": _ROUNDING},
    }
    path = os.path.join(directory or ".", "run_manifest.json")
    _write_text(path, json.dumps(manifest, indent=2) + "\n")
    return path


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def cmd_solve(args: argparse.Namespace) -> int:
    # solve writes no manifest, so the bytes read are dropped.
    net = network_from_dict(_load_json(args.network, {}))
    rate = args.rate
    if args.which == "mn":
        if args.mechanism is None:
            raise SchemaError("--which mn needs --mechanism")
        _, lats = mechanism_from_dict(net, _load_json(args.mechanism, {}))
        res = water_fill(lats, rate, latency_family="modified")
        latencies = [lats[i].value(f) for i, f in enumerate(res.profile.flows)]
    else:
        res = nash_flow(net, rate) if args.which == "nash" else opt_flow(net, rate)
        latencies = [net.links[i].value(f) for i, f in enumerate(res.profile.flows)]

    print(f"{args.which} flow on {net.k} links at rate {_fmt(res.profile.rate)}")
    print(f"{'link':>4}  {'flow':>12}  {'latency':>12}")
    for i, (f, lat) in enumerate(zip(res.profile.flows, latencies)):
        print(f"{i:>4}  {_fmt(f):>12}  {_fmt(lat):>12}")
    print(f"cost {_fmt(res.cost)}  level {_fmt(res.level)}  used {res.used_count}")
    return 0


def _curve_rows(net: ParallelNetwork, mech: Mechanism | None,
                rmax: float | None, samples: int) -> tuple[list[float], tuple[float, ...]]:
    bps = curve_breakpoints(net, mech)
    if rmax is None:
        rmax = max(1.0, 2.0 * max(bps, default=0.5))
    elif not 0.0 < rmax < INF:
        raise NegativeRate(f"--rmax must be positive and finite, got {rmax!r}")
    rows = {rmax * (i / samples) for i in range(1, samples + 1)}
    for b in bps:
        if b <= rmax:
            rows.add(b)
            rows.add(math.nextafter(b, INF))
    return sorted(rows), bps


def cmd_curve(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise SchemaError(f"--samples must be at least 1, got {args.samples}")
    inputs: dict[str, bytes] = {}
    net = network_from_dict(_load_json(args.network, inputs))
    mech = mechanism_from_dict(net, _load_json(args.mechanism, inputs)) if args.mechanism else None
    rows, bps = _curve_rows(net, mech, args.rmax, args.samples)
    samples = ratio_curve(net, mech, rows)
    tail = tail_ratio(net, mech)

    lines = ["r,cost_num,cost_den,ratio,regime"]
    for s in samples:
        lines.append(f"{s.r!r},{s.cost_num!r},{s.cost_den!r},{s.ratio!r},{s.regime}")
    lines.append(f"{INF!r},{INF!r},{INF!r},{tail!r},tail")
    _write_text(args.csv, "\n".join(lines) + "\n")
    outputs = [args.csv]

    if args.svg:
        _emit_svg(args.svg, samples, bps)
        outputs.append(args.svg)

    _write_manifest(os.path.dirname(os.path.abspath(args.csv)), args._argv, inputs, outputs)
    val, where = ratio_sup(net, mech)
    print(f"wrote {', '.join(outputs)}; ratio peaks at {_fmt(val)} (r = {_fmt(where)})")
    return 0


def _emit_svg(path: str, samples, breakpoints) -> None:
    """Hand-rolled 800x500 line chart: one polyline per regime run, dashed
    verticals at breakpoints, open/closed circle pairs at jumps."""
    xmax = max(s.r for s in samples)
    ymin, ymax = min(s.ratio for s in samples), max(s.ratio for s in samples)
    # A band this flat would stretch rounding noise over the whole plot.
    if ymax - ymin < 1e-9:
        ymin, ymax = ymin - 0.05, ymax + 0.05
    pad = 0.05 * (ymax - ymin)
    ymin -= pad
    ymax += pad
    W, H, L, R, T, B = 800, 500, 60.0, 20.0, 20.0, 40.0

    def X(r: float) -> float:
        return L + (W - L - R) * r / xmax

    def Y(v: float) -> float:
        return (H - B) - (H - T - B) * (v - ymin) / (ymax - ymin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{L}" y1="{H - B}" x2="{W - R}" y2="{H - B}" stroke="black"/>',
        f'<line x1="{L}" y1="{T}" x2="{L}" y2="{H - B}" stroke="black"/>',
        f'<text x="{L}" y="{H - B + 16}" font-size="12">0</text>',
        f'<text x="{W - R - 30}" y="{H - B + 16}" font-size="12">{xmax:.4g}</text>',
        f'<text x="4" y="{Y(ymin) + 4:.2f}" font-size="12">{ymin:.4g}</text>',
        f'<text x="4" y="{Y(ymax) + 4:.2f}" font-size="12">{ymax:.4g}</text>',
    ]
    for bp in breakpoints:
        if 0.0 < bp <= xmax:
            parts.append(
                f'<line x1="{X(bp):.2f}" y1="{T}" x2="{X(bp):.2f}" y2="{H - B}" '
                f'stroke="gray" stroke-dasharray="4 3"/>'
            )

    runs = [list(run) for _, run in groupby(samples, key=attrgetter("regime"))]
    for run in runs:
        if len(run) == 1:
            parts.append(f'<circle cx="{X(run[0].r):.2f}" cy="{Y(run[0].ratio):.2f}" r="2" '
                         f'fill="steelblue"/>')
            continue
        coords = " ".join(f"{X(s.r):.2f},{Y(s.ratio):.2f}" for s in run)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="steelblue" stroke-width="1.5"/>')
    for a, b in zip(runs, runs[1:]):
        (ra, va), (rb, vb) = (a[-1].r, a[-1].ratio), (b[0].r, b[0].ratio)
        # A display choice: a step under DEFAULT_TOLERANCE of the ratio gets no marks.
        if rb == math.nextafter(ra, INF) and abs(vb - va) > DEFAULT_TOLERANCE * abs(va):
            parts.append(
                f'<circle cx="{X(ra):.2f}" cy="{Y(va):.2f}" r="3.5" '
                f'fill="white" stroke="steelblue"/>'
            )
            parts.append(f'<circle cx="{X(rb):.2f}" cy="{Y(vb):.2f}" r="3.5" fill="steelblue"/>')
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def cmd_bounds(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "greedy":
        if args.links is None or args.links < 1:
            raise SchemaError("greedy bound needs --links N with N >= 1")
        Rs = greedy_parameters(args.links)
        report = recurrence_bound(Rs)
        print(f"multipliers for {args.links} links: {Rs}")
    else:
        if not args.R:
            raise SchemaError(f"{kind} bound needs --R")
        if kind == "simple2":
            if len(args.R) != 1:
                raise SchemaError("simple2 takes one multiplier")
            report = two_link_simple_bound(args.R[0])
        elif kind == "benign":
            report = benign_bound(args.R)
        elif kind == "recurrence":
            report = recurrence_bound(args.R)
        else:  # lower
            if len(args.R) != 1:
                raise SchemaError("lower takes one slope ratio")
            report = lower_bound_value(args.R[0])

    print(f"{report.name}: {report.value!r}")
    print(f"  inputs  {list(report.inputs)}")
    print(f"  formula {report.formula}")
    if report.details:
        for key, val in report.details.items():
            print(f"  {key} = {val}")
    if report.strictly_below_four_thirds is not None:
        print(f"  strictly below 4/3: {report.strictly_below_four_thirds}")
    return 0


def _random_network(rng: random.Random, kmax: int = 5) -> ParallelNetwork:
    k = rng.randint(1, kmax)
    links = [
        {"a": rng.uniform(0.1, 5.0), "b": rng.uniform(0.0, 4.0)} for _ in range(k)
    ]
    return normalize_network(links)


def _require(cond: object, msg: object, *args: object) -> None:
    """Fail a verify check; unlike ``assert``, this also runs under ``python -O``.

    With ``args``, ``msg`` is a ``str.format`` template, filled in only when
    the check fails, so a passing check formats nothing.
    """
    if not cond:
        raise AssertionError(msg.format(*args) if args else msg)


def _near(value: float, known: float) -> bool:
    # One term: each known answer below is computed to the bit.
    return abs(value - known) <= _allowance(known)


def _require_water_fill_matches_nash(net: ParallelNetwork, rates: tuple[float, ...]) -> None:
    lats = [PiecewiseLatency.from_affine(link) for link in net.links]
    for rate in rates:
        wf = water_fill(lats, rate)
        cf = nash_flow(net, rate)
        # k + 1 terms: k link costs and their sum, each rounded.
        _require(abs(wf.cost - cf.cost) <= (net.k + 1) * _allowance(cf.cost),
                 "{} vs {} at rate {}", wf.cost, cf.cost, rate)


def pigou_peak_four_thirds(seed: int) -> None:
    net = normalize_network([{"a": 1, "b": 0}, {"a": 0, "b": 1}])
    val, where = ratio_sup(net)
    _require(_near(val, 4.0 / 3.0), "peak {}", val)
    _require(_near(where, 1.0), "peak location {}", where)


def pigou_cap_curve_flat(seed: int) -> None:
    net = normalize_network([{"a": 1, "b": 0}, {"a": 0, "b": 1}])
    mech = build_threshold_mechanism(net, [2.0])
    rows = [0.01 + 2.99 * i / 200 for i in range(201)]
    for s in ratio_curve(net, mech, rows):
        _require(_near(s.ratio, 1.0), "ratio {} at r={}", s.ratio, s.r)


def two_link_bound_meets_at_four(seed: int) -> None:
    rep = two_link_simple_bound(4.0)
    _require(_near(rep.value, 1.25), rep.value)


def water_fill_matches_closed_form(seed: int) -> None:
    for links in ([{"a": 1, "b": 0}, {"a": 1, "b": 1}],
                  [{"a": 2, "b": 0.5}, {"a": 0.25, "b": 1}, {"a": 1, "b": 3}]):
        _require_water_fill_matches_nash(normalize_network(links), (0.0, 0.3, 1.0, 2.7, 9.0))


def recurrence_single_seven(seed: int) -> None:
    from fractions import Fraction

    rep = recurrence_bound([7.0])
    _require(rep.details is not None, "no exact value")
    got = Fraction(int(rep.details["exact_numerator"]),
                   int(rep.details["exact_denominator"]))
    _require(got == Fraction(256, 193), got)


def benign_two_twos(seed: int) -> None:
    rep = benign_bound([2.0, 2.0])
    _require(_near(rep.value, 324.0 / 244.0), rep.value)


def plateau_meets_target(seed: int) -> None:
    net = normalize_network([{"a": 2, "b": 0}, {"a": 1, "b": 1}])
    params = solve_plateau_params(net)
    lats = list(build_plateau_mechanism(net, params))
    val, _ = ratio_sup(net, (params, lats))
    # The exact peak sits 3.5e-4 below the target, past any rounding.
    _require(val <= PLATEAU_TARGET, val)


def lower_bound_holds(seed: int) -> None:
    rep = lower_bound_value(2.1)
    _require(rep.value >= 1.191, rep.value)


def greedy_parameters_below_four_thirds(seed: int) -> None:
    for k in (2, 3, 4):
        rep = recurrence_bound(greedy_parameters(k))
        _require(rep.strictly_below_four_thirds, (k, rep.value))


def random_water_fill_agrees(seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(100):
        net = _random_network(rng)
        _require_water_fill_matches_nash(net, (rng.uniform(0.0, 4.0 * (net.breakpoints[-1] + 1.0)),))


def random_two_link_bound_holds(seed: int) -> None:
    rng = random.Random(seed + 1)
    for _ in range(100):
        a1 = rng.uniform(0.2, 4.0)
        a2 = rng.uniform(0.05, a1)
        b2 = rng.uniform(0.1, 3.0)
        net = normalize_network([{"a": a1, "b": 0.0}, {"a": a2, "b": b2}])
        R = rng.uniform(2.0, 8.0)
        params, lats = build_threshold_mechanism(net, [R])
        bound = two_link_simple_bound(R).value
        for _ in range(5):
            r = rng.uniform(1e-3, 4.0 * net.breakpoints[1])
            num = worst_equilibrium_cost(lats, r)
            den = opt_flow(net, r).cost
            # 3 terms: the bound, the optimal cost and their product, each rounded.
            _require(num <= bound * den + 3 * _allowance(bound * den), (r, num / den, bound))


def random_usage_order(seed: int) -> None:
    rng = random.Random(seed + 2)
    for _ in range(50):
        net = _random_network(rng, kmax=6)
        if net.has_flat_tail or net.k < 2:
            continue
        R = [rng.uniform(2.0, 10.0) for _ in range(net.k - 1)]
        params, _ = build_threshold_mechanism(net, R)
        check = mn_uses_links_no_earlier_than_opt(net, params)
        _require(check, "link {} opens at {}", check.link, check.first_used_rate)


# The verify suites, in report order.  Each check is named as it reports,
# takes the suite seed (only the random suite reads it) and fails through
# _require, so adding a check is one function and one entry here.
SUITES = {
    "core": (pigou_peak_four_thirds, pigou_cap_curve_flat, two_link_bound_meets_at_four,
             water_fill_matches_closed_form),
    "known": (recurrence_single_seven, benign_two_twos, plateau_meets_target,
              lower_bound_holds, greedy_parameters_below_four_thirds),
    "random": (random_water_fill_agrees, random_two_link_bound_holds, random_usage_order),
}


def cmd_verify(args: argparse.Namespace) -> int:
    # The report's directory is made first, so a path that cannot hold it
    # fails before any check runs.
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    checks = SUITES[args.suite]
    results = []
    failures = 0
    for fn in checks:
        name = fn.__name__
        try:
            fn(args.seed)
            print(f"PASS {name}")
            results.append({"name": name, "ok": True})
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
            results.append({"name": name, "ok": False, "witness": str(exc)})

    report_path = os.path.join(out_dir, "verify_report.json")
    report = {"suite": args.suite, "seed": args.seed, "results": results}
    _write_text(report_path, json.dumps(report, indent=2) + "\n")
    _write_manifest(out_dir, args._argv, {}, [report_path])
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anarchy",
        description="Equilibria and efficiency bounds for routing on parallel links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one flow and print the table")
    p.add_argument("network", help="network JSON file")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--which", choices=("nash", "opt", "mn"), default="nash")
    p.add_argument("--mechanism", help="mechanism JSON file (needed for mn)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("curve", help="sweep the cost ratio into CSV/SVG")
    p.add_argument("network")
    p.add_argument("--mechanism")
    p.add_argument("--rmax", type=float)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--csv", required=True)
    p.add_argument("--svg")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("bounds", help="evaluate a worst-case bound")
    p.add_argument("kind", choices=("simple2", "benign", "recurrence", "lower", "greedy"))
    p.add_argument("--R", type=float, nargs="+")
    p.add_argument("--links", type=int)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run a built-in invariant suite")
    p.add_argument("--suite", choices=tuple(SUITES), default="core")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="directory for the report and manifest")
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _shared_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """One parser per process, with its subcommands' parsers by name:
    ``parse_args`` leaves them unchanged, so commands share them."""
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # A known command is parsed by its own parser alone, which prints the
    # same usage errors and help as the top-level parser in about half the
    # time; -h, a missing command and an unknown one go to the top-level
    # parser.
    parser, commands = _shared_parser()
    if argv and argv[0] in commands:
        args = commands[argv[0]].parse_args(argv[1:])
    else:
        args = parser.parse_args(argv)
    args._argv = argv
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AnarchyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
