"""End-to-end tests for the command line interface."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time

import pytest

import anarchy
import anarchy.cli as cli
import anarchy.equilibrium
from anarchy.cli import main
from anarchy.equilibrium import EquilibriumCheck
from conftest import (
    CANCELLING_OPT,
    CLIPPED_TAIL,
    NEGATIVE_OPT,
    OVERFLOWED_EFFICIENCY,
    OVERFLOWED_OFFSET,
    OVERFLOWED_SUM,
    OVERFLOWING_TAIL,
    SUBNORMAL_OPT,
    TINY_SLOPES,
)

PIGOU = {"links": [{"a": 1, "b": 0}, {"a": 0, "b": 1}]}
# A JSON integer beyond the float range.
BIG_INT = "1" + "0" * 399
TWO = {"links": [{"a": 2, "b": 0}, {"a": 1, "b": 1}]}
CANCELLING = [
    {"a": 374.28864678836334, "b": 4.056479304682468e+289},
    {"a": 7.813399645929975e+182, "b": 9.089655238580877e-146},
    {"a": 6.0175127800589514e+246, "b": 4.580824679445541e+146},
]
CANCELLING_MECH = {"kind": "threshold", "R": [6.667927883269054, 6.887850326320335]}


@pytest.fixture()
def pigou_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(PIGOU))
    return path


@pytest.fixture()
def mech_file(tmp_path):
    path = tmp_path / "mech.json"
    path.write_text(json.dumps({"kind": "threshold", "R": [2.0]}))
    return path


def test_solve_nash(pigou_file, capsys):
    assert main(["solve", str(pigou_file), "--rate", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "nash flow on 2 links" in out
    assert "cost 1" in out


def test_solve_opt(pigou_file, capsys):
    assert main(["solve", str(pigou_file), "--rate", "1.0", "--which", "opt"]) == 0
    out = capsys.readouterr().out
    assert "opt flow" in out
    assert "0.75" in out


def test_solve_mn(pigou_file, mech_file, capsys):
    rc = main([
        "solve", str(pigou_file), "--rate", "1.0",
        "--which", "mn", "--mechanism", str(mech_file),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.5" in out


def test_curve_csv_roundtrip(pigou_file, tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    rc = main([
        "curve", str(pigou_file), "--rmax", "3", "--samples", "30",
        "--csv", str(csv_path),
    ])
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "r,cost_num,cost_den,ratio,regime"
    assert lines[-1].startswith("inf,inf,inf,")
    for line in lines[1:-1]:
        r, num, den, ratio, regime = line.split(",")
        assert abs(float(ratio) - float(num) / float(den)) <= 1e-12 * float(ratio)
        assert regime
    peaks = [float(line.split(",")[3]) for line in lines[1:-1]]
    assert max(peaks) == pytest.approx(4 / 3, abs=1e-12)


def test_curve_deterministic(pigou_file, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        assert main([
            "curve", str(pigou_file), "--samples", "25", "--csv", str(path),
        ]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_curve_replaces_existing_outputs(pigou_file, tmp_path):
    csv_path = tmp_path / "curve.csv"
    csv_path.write_text("stale\n" * 10000)
    kept = tmp_path / "kept.csv"
    kept.hardlink_to(csv_path)
    assert main(["curve", str(pigou_file), "--samples", "5", "--csv", str(csv_path)]) == 0
    assert csv_path.read_text().startswith("r,cost_num,cost_den,ratio,regime\n")
    assert "stale" not in csv_path.read_text()
    # A new file, not the old one rewritten in place.
    assert kept.read_text() == "stale\n" * 10000


def test_curve_manifest(pigou_file, tmp_path):
    csv_path = tmp_path / "curve.csv"
    assert main(["curve", str(pigou_file), "--csv", str(csv_path)]) == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["command"][0] == "anarchy"
    assert manifest["version"]
    digests = list(manifest["inputs"].values())
    assert digests and all(len(d) == 64 for d in digests)
    assert "curve.csv" in " ".join(manifest["outputs"])
    assert "tolerances" in manifest


def test_curve_svg(pigou_file, tmp_path):
    csv_path = tmp_path / "curve.csv"
    svg_path = tmp_path / "curve.svg"
    rc = main([
        "curve", str(pigou_file), "--samples", "50",
        "--csv", str(csv_path), "--svg", str(svg_path),
    ])
    assert rc == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert "stroke-dasharray" in svg


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_curve_rejects_nonpositive_samples(pigou_file, tmp_path, capsys, samples):
    csv_path = tmp_path / "curve.csv"
    argv = ["curve", str(pigou_file), "--samples", samples, "--csv", str(csv_path)]
    assert main(argv) == 2
    assert "--samples" in capsys.readouterr().err
    assert not csv_path.exists()


def test_curve_rmax_at_float_max(pigou_file, tmp_path):
    csv_path = tmp_path / "curve.csv"
    argv = ["curve", str(pigou_file), "--rmax", "1e308", "--samples", "7",
            "--csv", str(csv_path)]
    assert main(argv) == 0
    rows = csv_path.read_text().strip().splitlines()
    assert float(rows[-2].split(",")[0]) == 1e308


def test_parser_reused_across_calls(pigou_file, mech_file, tmp_path, capsys, monkeypatch):
    assert main(["solve", str(pigou_file), "--rate", "1", "--which", "mn",
                 "--mechanism", str(mech_file)]) == 0
    assert "mn flow" in capsys.readouterr().out

    def no_rebuild():
        raise AssertionError("main rebuilt its parser")

    monkeypatch.setattr(cli, "build_parser", no_rebuild)
    assert main(["solve", str(pigou_file), "--rate", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("nash flow on 2 links")

    with pytest.raises(SystemExit) as exc:
        main(["solve", str(pigou_file), "--which", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()

    svg_path = tmp_path / "first.svg"
    csv_path = tmp_path / "curve.csv"
    base = ["curve", str(pigou_file), "--samples", "5", "--csv", str(csv_path)]
    assert main([*base, "--svg", str(svg_path)]) == 0
    svg_path.unlink()
    assert main(base) == 0
    assert not svg_path.exists()
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["outputs"] == [str(csv_path)]


def test_import_leaves_package_metadata_unloaded(pigou_file, tmp_path):
    # verify digests no input, so it must not load hashlib (and OpenSSL);
    # no command looks the version up in the installed metadata.
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {os.path.abspath(src)!r})\n"
        "import anarchy.cli\n"
        "def unloaded(*names):\n"
        "    for name in names:\n"
        "        assert name not in sys.modules, name + ' imported'\n"
        "unloaded('importlib.metadata', 'fractions', 'hashlib', 'datetime', 'dataclasses',\n"
        "         'inspect')\n"
        f"assert anarchy.cli.main(['verify', '--out', {str(tmp_path / 'v')!r}]) == 0\n"
        "unloaded('importlib.metadata', 'hashlib')\n"
        f"assert anarchy.cli.main(['curve', {str(pigou_file)!r}, '--samples', '5',\n"
        f"                         '--csv', {str(tmp_path / 'c.csv')!r}]) == 0\n"
        "unloaded('importlib.metadata')\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_manifest_version_matches_package_metadata(pigou_file, tmp_path):
    from importlib.metadata import PackageNotFoundError, version

    try:
        installed = version("anarchy")
    except PackageNotFoundError:  # running from a source tree
        installed = anarchy.__version__
    assert installed == anarchy.__version__
    for name in ("a.csv", "b.csv"):
        assert main(["curve", str(pigou_file), "--samples", "5",
                     "--csv", str(tmp_path / name)]) == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["version"] == anarchy.__version__


def test_manifest_digests_the_bytes_parsed(tmp_path):
    # Line ends are kept as written: the digest is of the file's bytes.
    net_path = tmp_path / "crlf.json"
    net_path.write_bytes(json.dumps(PIGOU, indent=2).replace("\n", "\r\n").encode())
    mech_path = tmp_path / "mech.json"
    mech_path.write_bytes(b'{"kind": "threshold",\r\n "R": [2.0]}\r\n')
    assert main(["curve", str(net_path), "--mechanism", str(mech_path), "--samples", "5",
                 "--csv", str(tmp_path / "c.csv")]) == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["inputs"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in (net_path, mech_path)
    }


@pytest.mark.parametrize("command", [["solve", "--rate", "1"], ["curve", "--csv", "c.csv"]])
def test_json_error_reads_the_same_with_either_line_end(tmp_path, capsys, command):
    errors = []
    for end in ("\n", "\r\n"):
        path = tmp_path / "broken.json"
        path.write_bytes(f'{{"links": [{end}  {{"a": 1, "b": 0}},{end}  {{"a": 0 "b": 1}}]}}'.encode())
        assert main([command[0], str(path), *command[1:]]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "error: bad JSON at line 3 column 11: Expecting ',' delimiter\n"


def test_curve_svg_marks_jump(tmp_path, capsys):
    net_path = tmp_path / "two.json"
    net_path.write_text(json.dumps(TWO))
    mech_path = tmp_path / "mech.json"
    mech_path.write_text(json.dumps({"kind": "plateau"}))
    csv_path = tmp_path / "curve.csv"
    svg_path = tmp_path / "curve.svg"
    rc = main([
        "curve", str(net_path), "--mechanism", str(mech_path),
        "--samples", "120", "--csv", str(csv_path), "--svg", str(svg_path),
    ])
    assert rc == 0
    assert "circle" in svg_path.read_text()
    assert "ratio peaks at 1.19165" in capsys.readouterr().out


def test_curve_keeps_narrow_hold_window(tmp_path):
    # A hold window 5e-14 wide still gets its own rows: the breakpoints stay
    # apart and the row one double past each one reads the piece it starts.
    net_path = tmp_path / "two.json"
    net_path.write_text(json.dumps(TWO))
    mech_path = tmp_path / "narrow.json"
    mech_path.write_text(json.dumps({"kind": "plateau", "x1": 0.5, "x2": 0.50000000000005}))
    csv_path = tmp_path / "n.csv"
    assert main(["curve", str(net_path), "--mechanism", str(mech_path),
                 "--csv", str(csv_path)]) == 0
    regimes = [line.rsplit(",", 1)[1] for line in csv_path.read_text().splitlines()[1:]]
    assert any(r.startswith("hold/") for r in regimes)
    assert any(r.startswith("jump/") for r in regimes)
    assert "jump/opt2" in regimes


@pytest.mark.parametrize("links, mech, samples, digest", [
    pytest.param(PIGOU, None, "50",
                 "5c9b62b3cd48f42d387727dbefe06a7acfdd45d5fd022b44ff610fdf6edea307", id="pigou"),
    pytest.param(TWO, {"kind": "plateau"}, "120",
                 "4dff59e42db1272dde5f0f37b568ebb783c7c64ffb9944a4451c2e12b8c00744", id="plateau"),
    pytest.param(TWO, {"kind": "plateau", "x1": 0.5, "x2": 0.50000000000005}, "200",
                 "928ab882fafd25537a920de70da85d8bc468f4b6f3072f1d0090a048b0f6fd42",
                 id="narrow-hold"),
    # A constant ratio is drawn in a band 0.05 either side, padded by 5%:
    # its y labels read 0.945 and 1.055.
    pytest.param({"links": [{"a": 1, "b": 0}]}, None, "5",
                 "d692cb2600f6396810d3f43a52ac7843cebb474182b6f1969a505d39ab11b865", id="flat-band"),
])
def test_curve_svg_bytes(tmp_path, links, mech, samples, digest):
    # The chart is pinned to the byte: its regime runs, jump marks and
    # coordinate rounding.
    net_path, mech_path = tmp_path / "net.json", tmp_path / "mech.json"
    net_path.write_text(json.dumps(links))
    argv = ["curve", str(net_path), "--samples", samples, "--csv", str(tmp_path / "c.csv"),
            "--svg", str(tmp_path / "c.svg")]
    if mech is not None:
        mech_path.write_text(json.dumps(mech))
        argv += ["--mechanism", str(mech_path)]
    assert main(argv) == 0
    assert hashlib.sha256((tmp_path / "c.svg").read_bytes()).hexdigest() == digest


def test_bounds_simple2(capsys):
    assert main(["bounds", "simple2", "--R", "2"]) == 0
    out = capsys.readouterr().out
    assert "1.5" in out
    assert "freeze_side" in out


def test_bounds_benign(capsys):
    assert main(["bounds", "benign", "--R", "2", "2"]) == 0
    assert "1.327868852459016" in capsys.readouterr().out


@pytest.mark.parametrize("argv, code, shown", [
    (["benign", "--R", "1e200", "1e200"], 0, "benign: 1.3333333333333333"),
    (["benign", "--R", "1e154"], 0, "benign: 1.3333333333333333"),
    (["benign", "--R", "inf"], 3, "finite"),
    (["benign", "--R", "2", "inf"], 3, "finite"),
    (["simple2", "--R", "1e308"], 0, "benign_side = 1.3333333333333333"),
    (["simple2", "--R", "6e307"], 0, "two_link_threshold: 1.3333333333333333"),
    (["simple2", "--R", "inf"], 3, "finite"),
    (["benign", "--R", "3e153"], 0, "benign: 1.3333333333333333"),
])
def test_bounds_at_float_range_edge(argv, code, shown, capsys):
    # Overflowing intermediates give the 4/3 limit; infinite multipliers are
    # a domain error, as for the recurrence bound.
    assert main(["bounds", *argv]) == code
    captured = capsys.readouterr()
    assert shown in (captured.out if code == 0 else captured.err)


def test_bounds_recurrence_exact(capsys):
    assert main(["bounds", "recurrence", "--R", "7"]) == 0
    out = capsys.readouterr().out
    assert "exact_numerator = 256" in out
    assert "exact_denominator = 193" in out
    assert "strictly below 4/3: True" in out


def test_bounds_greedy(capsys):
    assert main(["bounds", "greedy", "--links", "3"]) == 0
    out = capsys.readouterr().out
    assert "multipliers for 3 links" in out
    assert "strictly below 4/3: True" in out


@pytest.mark.parametrize("links", ["8", "1000"])
def test_bounds_greedy_beyond_float_range(links, capsys):
    start = time.perf_counter()
    assert main(["bounds", "greedy", "--links", links]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"k={links}" in err


def test_bounds_lower(capsys):
    assert main(["bounds", "lower", "--R", "2.1"]) == 0
    assert "1.19195" in capsys.readouterr().out


def test_bounds_missing_args(capsys):
    assert main(["bounds", "greedy"]) == 2
    assert main(["bounds", "simple2"]) == 2
    assert main(["bounds", "simple2", "--R", "2", "3"]) == 2
    err = capsys.readouterr().err
    assert "needs --links" in err


@pytest.mark.parametrize("argv, message", [
    (["bounds", "lower", "--R", "2", "3"], "lower takes one slope ratio"),
    (["solve", "NET", "--rate", "1", "--which", "mn"], "--which mn needs --mechanism"),
])
def test_exit_code_option_conflict(pigou_file, capsys, argv, message):
    argv = [str(pigou_file) if a == "NET" else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, prog", [
    (["solve", "NET", "--rate", "1", "--bogus"], "anarchy solve"),
    (["curve", "NET", "--csv", "c.csv", "--bogus"], "anarchy curve"),
    (["bounds", "lower", "--R", "2", "--bogus"], "anarchy bounds"),
    (["verify", "--bogus"], "anarchy verify"),
    ([], "anarchy"),
    (["bogus"], "anarchy"),
])
def test_usage_error_shows_the_command_usage(pigou_file, capsys, argv, prog):
    # A known command's usage error shows that command's usage; a missing or
    # unknown command shows the top-level usage.
    argv = [str(pigou_file) if a == "NET" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {prog} [-h]")
    assert f"\n{prog}: error: " in err


def test_exit_code_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"links": [')
    assert main(["solve", str(path), "--rate", "1"]) == 2
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    pytest.param(b'{"links": [{"a": 1, "b": 0}], "name": "\xff"}', id="non-utf8"),
    pytest.param(b"[" * 200_000 + b"]" * 200_000, id="deep"),
])
def test_exit_code_unreadable_json(tmp_path, capsys, content):
    path = tmp_path / "net.json"
    path.write_bytes(content)
    assert main(["solve", str(path), "--rate", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_exit_code_schema(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"links": "zap"}))
    assert main(["solve", str(path), "--rate", "1"]) == 2


@pytest.mark.parametrize("links", [
    pytest.param([{"a": True, "b": False}, {"a": 1, "b": 1}], id="bool"),
    pytest.param([{"a": "2", "b": "0"}], id="string"),
])
def test_exit_code_non_numeric_coefficient(tmp_path, capsys, links):
    # float() would read both, but neither is a JSON number.
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"links": links}))
    assert main(["solve", str(path), "--rate", "1"]) == 2
    assert 'needs numeric "a" and "b"' in capsys.readouterr().err


def test_exit_code_domain(pigou_file, capsys):
    assert main(["solve", str(pigou_file), "--rate", "-1"]) == 3
    assert "rate" in capsys.readouterr().err
    path = pigou_file.parent / "neg.json"
    path.write_text(json.dumps({"links": [{"a": -1, "b": 0}, {"a": 1, "b": 1}]}))
    assert main(["solve", str(path), "--rate", "1"]) == 3
    path.write_text('{"links": [{"a": %s, "b": 0}, {"a": 1, "b": 1}]}' % BIG_INT)
    assert main(["solve", str(path), "--rate", "1"]) == 3
    assert "finite" in capsys.readouterr().err


def test_solve_mn_plateau_on_hold_window(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps({"links": [
        {"a": 3.0707272758427404, "b": 0}, {"a": 1.2323489005020785, "b": 0.40375230188526406},
    ]}))
    mech_path = tmp_path / "mech.json"
    mech_path.write_text(json.dumps({"kind": "plateau"}))
    rc = main([
        "solve", str(net_path), "--rate", "0.2973144532611471",
        "--which", "mn", "--mechanism", str(mech_path),
    ])
    assert rc == 0
    assert "mn flow on 2 links" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args,code,message",
    [
        (["solve", "--rate=nan", "--which", "nash"], 3, "finite"),
        (["solve", "--rate=inf", "--which", "opt"], 3, "finite"),
        (["solve", "--rate=-inf", "--which", "mn"], 3, "finite"),
        # An --rmax outside (0, inf) is a domain error, as a bad --rate is.
        *((["curve", "--rmax", rmax], 3, f"error: --rmax must be positive and finite, got {shown}")
          for rmax, shown in [("0", "0.0"), ("-1", "-1.0"), ("nan", "nan"), ("inf", "inf")]),
    ],
    ids=["nan-nash-None-3-finite", "inf-opt-None-3-finite", "-inf-mn-None-3-finite",
         "rmax-0", "rmax-negative", "rmax-nan", "rmax-inf"],
)
def test_exit_code_bad_numbers(pigou_file, mech_file, capsys, args, code, message):
    command, *rest = args
    csv = pigou_file.parent / "curve.csv"
    argv = [command, str(pigou_file), *rest, "--mechanism", str(mech_file)]
    assert main([*argv, "--csv", str(csv)] if command == "curve" else argv) == code
    assert message in capsys.readouterr().err
    assert not csv.exists()


@pytest.mark.parametrize("mech, code", [
    *(pytest.param('{"kind": "plateau", "x1": 0.2, "x2": %s}' % mark, 3, id=name)
      for name, mark in [("1e400", "1e400"), ("Infinity", "Infinity"), ("NaN", "NaN"),
                         ("400-digits", BIG_INT)]),
    # Threshold multipliers meet the same finite check; a string is no list.
    pytest.param('{"kind": "threshold", "R": [1e400]}', 3, id="R-1e400"),
    pytest.param('{"kind": "threshold", "R": [%s]}' % BIG_INT, 3, id="R-400-digits"),
    pytest.param('{"kind": "threshold", "R": "29"}', 2, id="R-string"),
    # float() would read a numeric string or a bool, but neither is a number.
    pytest.param('{"kind": "threshold", "R": ["3"]}', 2, id="R-string-entry"),
    pytest.param('{"kind": "threshold", "R": [true]}', 2, id="R-bool-entry"),
    pytest.param('{"kind": "plateau", "x1": "0.2", "x2": 0.5}', 2, id="x1-string"),
    pytest.param('{"kind": "plateau", "x1": 0.2, "x2": true}', 2, id="x2-bool"),
])
def test_exit_code_non_finite_plateau_mark(tmp_path, capsys, mech, code):
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps({"links": [{"a": 4, "b": 0}, {"a": 1, "b": 1}]}))
    mech_path = tmp_path / "mech.json"
    mech_path.write_text(mech)
    solve = ["solve", str(net_path), "--rate", "1", "--which", "mn",
             "--mechanism", str(mech_path)]
    curve = ["curve", str(net_path), "--mechanism", str(mech_path),
             "--csv", str(tmp_path / "curve.csv")]
    for argv in (solve, curve):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert code == 2 or "finite" in err


def test_package_runs_without_numpy(tmp_path):
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from anarchy.cli import main\n"
        f"sys.exit(main(['verify', '--suite', 'core', '--out', {str(tmp_path)!r}]))\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    # No setting is read from the environment, so a malformed one is harmless.
    env = dict(os.environ, PYTHONPATH=src, ANARCHY_TOL="abc")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_verify_fails_under_optimize_flag(tmp_path):
    # A broken ratio_sup must fail verify even when python -O strips asserts.
    code = (
        "import sys\n"
        "import anarchy.cli as cli\n"
        "cli.ratio_sup = lambda *args, **kwargs: (1.0, 0.0)\n"
        f"sys.exit(cli.main(['verify', '--suite', 'core', '--out', {str(tmp_path)!r}]))\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "FAIL pigou_peak_four_thirds" in done.stdout


@pytest.mark.parametrize(
    "links,extra",
    [
        ([{"a": 1, "b": 0}, {"a": 1, "b": 1e-200}], []),
        ([{"a": 1, "b": 0}, {"a": 1, "b": 1}], ["--rmax", "1e-165"]),
    ],
)
def test_exit_code_cost_underflow(tmp_path, capsys, links, extra):
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps({"links": links}))
    argv = ["curve", str(net_path), "--csv", str(tmp_path / "curve.csv"), *extra]
    assert main(argv) == 3
    assert "underflows to 0 at demand" in capsys.readouterr().err


@pytest.mark.parametrize(
    "links,mech,args,message",
    [
        # b/a overflows, which no solver reads, and the costs pass the float
        # range at a demand near 1e300.
        (OVERFLOWED_OFFSET, None, ["solve", "--rate", "1e300"], "cost overflows"),
        (OVERFLOWED_OFFSET, None, ["curve", "--rmax", "1e300"], "costs overflow"),
        # Slope ratio 2e300: the plateau peaks overflow.
        ([{"a": 2, "b": 0}, {"a": 1e-300, "b": 1}], {"kind": "plateau"}, ["curve"],
         "peaks overflow"),
        # Costs past a demand of about 1e154 overflow.
        ([{"a": 2, "b": 0}, {"a": 1, "b": 1}], None, ["curve", "--rmax", "1e200"],
         "costs overflow"),
        # Efficiencies hundreds of orders apart, where a running float sum of
        # the supply slope cancels; past the level the exact sum gives, the
        # costs pass the float range.
        (CANCELLING, CANCELLING_MECH, ["solve", "--rate", "1e110", "--which", "mn"],
         "cost overflows"),
        (CANCELLING, CANCELLING_MECH, ["curve"], "costs overflow"),
        # A summed efficiency overflows: the optimal cost past it is NaN.
        *[(links, None, ["curve"], "costs overflow")
          for links in [OVERFLOWED_SUM, *(links for links, _ in OVERFLOWED_EFFICIENCY)]],
        (OVERFLOWING_TAIL, None, ["curve"], "costs overflow"),
        # The costs pass the float range.
        (OVERFLOWING_TAIL, None, ["solve", "--rate", "1e305", "--which", "opt"], "cost overflows"),
        (OVERFLOWING_TAIL, None, ["solve", "--rate", "1e305", "--which", "nash"], "cost overflows"),
        ([{"a": 2, "b": 0}, {"a": 1, "b": 1}], None,
         ["solve", "--rate", "1e200", "--which", "opt"], "cost overflows"),
        (TINY_SLOPES, {"kind": "threshold", "R": [2]},
         ["solve", "--rate", "1.5e308", "--which", "mn"], "cost overflows"),
        (CLIPPED_TAIL, None, ["solve", "--rate", "6.551735390898654e+233", "--which", "opt"],
         "cost overflows"),
    ],
)
def test_exit_code_overflow(tmp_path, capsys, links, mech, args, message):
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps({"links": links}))
    command, *rest = args
    argv = [command, str(net_path), *rest]
    if mech is not None:
        mech_path = tmp_path / "mech.json"
        mech_path.write_text(json.dumps(mech))
        argv += ["--mechanism", str(mech_path)]
    if command == "curve":
        argv += ["--csv", str(tmp_path / "curve.csv")]
    assert main(argv) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "curve.csv").exists()


def test_solve_mn_where_the_running_supply_slope_cancels(tmp_path, capsys):
    # Efficiencies hundreds of orders apart: a running float sum of the
    # supply slope cancels to 0 while a link still rises; the sweep's exact
    # sum does not, and the split is the stage recursion's.
    net_path, mech_path = tmp_path / "net.json", tmp_path / "mech.json"
    net_path.write_text(json.dumps({"links": CANCELLING}))
    mech_path.write_text(json.dumps(CANCELLING_MECH))
    argv = ["solve", str(net_path), "--rate", "1", "--which", "mn", "--mechanism", str(mech_path)]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[2:5]
    net = anarchy.normalize_network(CANCELLING)
    params, _ = anarchy.build_threshold_mechanism(net, CANCELLING_MECH["R"])
    expected = anarchy.mn_flow(net, params, 1.0).flows
    assert [row.split()[1] for row in rows] == [f"{f:.6g}" for f in expected]


@pytest.mark.parametrize("links, rate, which, cost", [
    (TINY_SLOPES, "1e200", "mn", "5e+99"),
    ([{"a": 1, "b": 0}, {"a": 0, "b": 0.5}], "9e307", "nash", "4.5e+307"),
    (TINY_SLOPES, "1", "opt", "8.75e-301"),
    (TINY_SLOPES, "1e200", "nash", "5e+99"),
    (TINY_SLOPES, "1e200", "opt", "5e+99"),
    (NEGATIVE_OPT, "1e30", "opt", "3.44842e-58"),
    (CANCELLING_OPT, "5.371637362363765e-171", "opt", "3.55819e-223"),
    # Twice the demand overflows; the optimal split never forms it.
    ([{"a": 1, "b": 0}, {"a": 0, "b": 0.5}], "9e307", "opt", "4.5e+307"),
    # A rate of -0 is reported as 0, in the header and in the cost.
    (PIGOU["links"], "-0", "nash", "0"),
    (PIGOU["links"], "-0", "opt", "0"),
    (PIGOU["links"], "-0", "mn", "0"),
])
def test_solve_finite_cost_near_the_float_range(tmp_path, capsys, links, rate, which, cost):
    net_path, mech_path = tmp_path / "net.json", tmp_path / "mech.json"
    net_path.write_text(json.dumps({"links": links}))
    mech_path.write_text(json.dumps({"kind": "threshold", "R": [2]}))
    argv = ["solve", str(net_path), "--rate", rate, "--which", which]
    assert main([*argv, "--mechanism", str(mech_path)] if which == "mn" else argv) == 0
    out = capsys.readouterr().out
    assert f"cost {cost} " in out
    assert "rate -" not in out


@pytest.mark.parametrize("links, code, shown", [
    (NEGATIVE_OPT, 0, "ratio peaks at 1.33333 (r = 3.21317e+27)"),
    (SUBNORMAL_OPT, 3, "below the normal range"),
])
def test_curve_near_the_float_range(tmp_path, capsys, links, code, shown):
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps({"links": links}))
    assert main(["curve", str(net_path), "--csv", str(tmp_path / "curve.csv")]) == code
    out, err = capsys.readouterr()
    assert shown in (err if code else out)


@pytest.mark.parametrize("args, shown", [
    pytest.param(["solve", "--rate", "1", "--which", "nash"], "cost 1e+10  level 1e+10",
                 id="solve-nash"),
    pytest.param(["solve", "--rate", "1", "--which", "opt"], "cost 1e+10  level 1e+10",
                 id="solve-opt"),
    pytest.param(["curve"], "ratio peaks at 1 (", id="curve"),
])
def test_overflowed_flow_offset_solves(tmp_path, capsys, args, shown):
    # b/a overflows to inf, but the split reads only the link's intercept
    # and the demand past its breakpoint.
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps({"links": OVERFLOWED_OFFSET}))
    command, *rest = args
    argv = [command, str(net_path), *rest]
    if command == "curve":
        argv += ["--csv", str(tmp_path / "curve.csv")]
    assert main(argv) == 0
    assert shown in capsys.readouterr().out


@pytest.mark.parametrize("which", ["nash", "opt"])
def test_exit_code_split_past_overflowed_efficiency(tmp_path, capsys, which):
    # 1/a of the second link overflows: a rate that opens it names that
    # link's slope, not an internal sum of flows.
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps({"links": [{"a": 1, "b": 0}, {"a": 3e-315, "b": 1}]}))
    assert main(["solve", str(net_path), "--rate", "2", "--which", which]) == 3
    err = capsys.readouterr().err
    assert "link 1 (slope 3e-315)" in err and "flows sum to" not in err
    assert main(["solve", str(net_path), "--rate", "0.4", "--which", which]) == 0


def test_exit_code_failed_certificate(pigou_file, mech_file, capsys, monkeypatch):
    monkeypatch.setattr(anarchy.equilibrium, "is_user_equilibrium",
                        lambda lats, profile: EquilibriumCheck(False, (0, 1), 2.0, 1.0))
    argv = ["solve", str(pigou_file), "--rate", "1", "--which", "mn",
            "--mechanism", str(mech_file)]
    assert main(argv) == 3
    assert "non-equilibrium profile" in capsys.readouterr().err


def test_overflowed_freeze_point_leaves_links_uncapped(tmp_path, capsys):
    # The second link's breakpoint overflows to inf: it never opens, so it
    # triggers no freeze and the mechanism equals the plain network.
    net_path, mech_path = tmp_path / "net.json", tmp_path / "mech.json"
    net_path.write_text(json.dumps({"links": [{"a": 1e-300, "b": 0}, {"a": 1e-301, "b": 1e10}]}))
    mech_path.write_text(json.dumps({"kind": "threshold", "R": [2]}))
    argv = ["--mechanism", str(mech_path)]
    assert main(["solve", str(net_path), "--rate", "1", "--which", "mn", *argv]) == 0
    assert main(["curve", str(net_path), "--csv", str(tmp_path / "curve.csv"), *argv]) == 0
    assert capsys.readouterr().err == ""


def test_curve_with_overflowed_flat_tail(tmp_path, capsys):
    # The zero-slope last link opens at an infinite demand, never reached.
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps({"links": [{"a": 1e-300, "b": 0}, {"a": 0, "b": 1e10}]}))
    assert main(["curve", str(net_path), "--csv", str(tmp_path / "curve.csv")]) == 0
    assert "ratio peaks at 1 " in capsys.readouterr().out


def test_curve_with_breakpoint_underflowing_to_zero(tmp_path, capsys):
    # The second link opens at 1e-200 / 1e200, which underflows to demand 0.
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps({"links": [{"a": 1e200, "b": 0}, {"a": 1, "b": 1e-200}]}))
    assert main(["curve", str(net_path), "--csv", str(tmp_path / "curve.csv")]) == 0
    assert "ratio peaks at 1 (r = 1)" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["solve", "curve"])
def test_exit_code_coinciding_plateau_marks(tmp_path, capsys, command):
    # The hold may start at 0, on the first segment start, only where half
    # the breakpoint rounds to 0: at a subnormal one.
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps({"links": [{"a": 1, "b": 0}, {"a": 0.25, "b": 5e-324}]}))
    mech_path = tmp_path / "mech.json"
    mech_path.write_text(json.dumps({"kind": "plateau", "x1": 0, "x2": 1e-12}))
    if command == "solve":
        argv = ["solve", str(net_path), "--rate", "1", "--which", "mn"]
    else:
        argv = ["curve", str(net_path), "--csv", str(tmp_path / "curve.csv")]
    assert main([*argv, "--mechanism", str(mech_path)]) == 3
    assert "segment starts must be strictly increasing" in capsys.readouterr().err


@pytest.mark.parametrize("links", ["0", "-3"])
def test_exit_code_bad_link_count(links, capsys):
    assert main(["bounds", "greedy", "--links", links]) == 2
    assert "--links" in capsys.readouterr().err


def test_exit_code_missing_file(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json"), "--rate", "1"]) == 4


def test_exit_code_verify_out_is_a_file(tmp_path, capsys):
    # The report's directory is made before any check runs.
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["verify", "--suite", "known", "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_verify_core(tmp_path, capsys):
    rc = main(["verify", "--suite", "core", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["suite"] == "core"
    assert all(entry["ok"] for entry in report["results"])
    assert (tmp_path / "run_manifest.json").exists()


def test_verify_reports_first_bad_row(tmp_path, capsys, monkeypatch):
    # Two bad curve rows: the check fails, and its witness names the first.
    real = cli.ratio_curve

    def bad_rows(*args):
        samples = real(*args)
        for i in (7, 9):
            samples[i] = samples[i]._replace(ratio=1.5)
        return samples

    monkeypatch.setattr(cli, "ratio_curve", bad_rows)
    assert main(["verify", "--suite", "core", "--out", str(tmp_path)]) == 1
    r = 0.01 + 2.99 * 7 / 200
    out = capsys.readouterr().out
    assert f"FAIL pigou_cap_curve_flat: ratio 1.5 at r={r}\n" in out
    assert out.count("FAIL") == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["results"][1]["witness"] == f"ratio 1.5 at r={r}"


def test_verify_known(tmp_path, capsys):
    assert main(["verify", "--suite", "known", "--out", str(tmp_path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_random_seeded(tmp_path, capsys):
    rc = main(["verify", "--suite", "random", "--seed", "4", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["seed"] == 4


@pytest.mark.parametrize("seed", (0, 3))
@pytest.mark.parametrize("check", [fn for fns in cli.SUITES.values() for fn in fns],
                         ids=[f"{suite}-{fn.__name__}" for suite, fns in cli.SUITES.items() for fn in fns])
def test_verify_check_passes(check, seed):
    check(seed)


def _cost_off(res):
    # A cost 1e-12 off: far past the rounding of k + 1 terms.
    return res._replace(cost=res.cost * (1.0 + 1e-12))


def _value_off(rep):
    # A known answer 1e-14 off: past its own rounding.
    return rep._replace(value=rep.value * (1.0 + 1e-14))


@pytest.mark.parametrize("check, name, drift", [
    pytest.param(check, name, drift, id=check.__name__) for check, name, drift in [
        (cli.water_fill_matches_closed_form, "water_fill", _cost_off),
        (cli.random_water_fill_agrees, "water_fill", _cost_off),
        (cli.pigou_peak_four_thirds, "ratio_sup",
         lambda peak: (peak[0] * (1.0 + 1e-14), peak[1])),
        (cli.two_link_bound_meets_at_four, "two_link_simple_bound", _value_off),
        (cli.benign_two_twos, "benign_bound", _value_off),
    ]
])
def test_verify_check_fails_past_its_rounding(monkeypatch, check, name, drift):
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args, **kwargs: drift(real(*args, **kwargs)))
    with pytest.raises(AssertionError):
        check(0)


def test_verify_suite_names():
    names = {suite: [fn.__name__ for fn in fns] for suite, fns in cli.SUITES.items()}
    assert names == {
        "core": ["pigou_peak_four_thirds", "pigou_cap_curve_flat",
                 "two_link_bound_meets_at_four", "water_fill_matches_closed_form"],
        "known": ["recurrence_single_seven", "benign_two_twos", "plateau_meets_target",
                  "lower_bound_holds", "greedy_parameters_below_four_thirds"],
        "random": ["random_water_fill_agrees", "random_two_link_bound_holds",
                   "random_usage_order"],
    }
