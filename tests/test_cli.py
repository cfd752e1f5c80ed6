"""CLI harness: flags, reports, schema, exit codes, determinism."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bogolib import cli
from bogolib.bilinear import main_theorem_experiment
from bogolib.errors import PreconditionError
from bogolib.groups import make_group
from bogolib.suites import run_suite

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run as perfbench_run  # noqa: E402


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "bogolib.cli", *args],
        capture_output=True,
        text=True,
    )


def test_experiment_json_report(tmp_path):
    out = tmp_path / "run.json"
    proc = run_cli(
        ["--group-g", "Z16", "--group-h", "Z16", "--delta", "0.3", "--seed", "7", "--out", str(out)]
    )
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["verified"] is True
    assert report["group_g"] == "Z16"
    cli.validate_report(report)


def test_experiment_trivial_full_density(tmp_path):
    out = tmp_path / "run.json"
    proc = run_cli(
        ["--group-g", "Z8", "--group-h", "Z8", "--delta", "1.0", "--seed", "1", "--out", str(out)]
    )
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["variety_size"] == 64


def test_experiment_csv(tmp_path):
    out = tmp_path / "run.csv"
    proc = run_cli(
        [
            "--group-g", "Z4xZ2", "--group-h", "Z8",
            "--delta", "0.4", "--seed", "5",
            "--format", "csv", "--out", str(out),
        ]
    )
    assert proc.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == cli.EXPERIMENT_CSV_COLUMNS
    assert len(lines) == 2


def test_group_ceiling_gate():
    proc = run_cli(
        ["--group-g", "Z1024", "--group-h", "Z1024", "--delta", "0.5", "--ceiling", "16"]
    )
    assert proc.returncode == 1
    assert "too large" in proc.stderr


def test_library_entry_points_reject_out_of_range_seeds():
    # derive_seed reduces seeds modulo 2^64: -1 would alias 2^64 - 1, and 2^64 alias 0
    z8 = make_group([8])
    for seed in (-1, 1 << 64):
        with pytest.raises(PreconditionError):
            run_suite("lattice", seed)
        with pytest.raises(PreconditionError):
            main_theorem_experiment(z8, z8, 0.5, seed)
        with pytest.raises(PreconditionError):
            cli.run_experiment("Z8", "Z8", 0.5, seed)
    assert main_theorem_experiment(z8, z8, 0.5, (1 << 64) - 1).report["verified"]


def test_usage_errors_exit_2(monkeypatch, capsys):
    usage_errors = [
        ["--group-g", "Z0", "--group-h", "Z2", "--delta", "0.5"],
        ["--suite", "does-not-exist"],
        ["--group-g", "Z4", "--delta", "0.5"],
        ["--group-g", "Z4", "--group-h", "Z4", "--delta", "0.5", "--word", "hxv"],
    ]
    for argv in usage_errors:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    # seeds are derived modulo 2^64, so a seed outside [0, 2^64) would alias another
    for seed in ("-1", str(1 << 64)):
        for argv in (
            ["--group-g", "Z8", "--group-h", "Z8", "--delta", "0.5", "--seed", seed],
            ["--suite", "lattice", "--seed", seed],
        ):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert "--seed" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["--group-g", "Z8", "--group-h", "Z8", "--delta", "0"])
    assert exc.value.code == 2
    assert "(0, 1]" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["--group-g", "Z8", "--group-h", "Z8", "--delta", "0.5", "--budget", "-1"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err
    # BOGO_CEILING must be a positive integer, for experiments and suites alike
    experiment = ["--group-g", "Z8", "--group-h", "Z8", "--delta", "0.5", "--seed", "1"]
    for raw in ("abc", "-5", "0"):
        monkeypatch.setenv("BOGO_CEILING", raw)
        for argv in (experiment, ["--suite", "lattice"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert "BOGO_CEILING" in capsys.readouterr().err
    monkeypatch.setenv("BOGO_CEILING", "63")  # |G| |H| = 64
    assert cli.main(experiment) == 1
    assert "too large" in capsys.readouterr().err


def test_suite_rejects_experiment_flags():
    rejected = [["--word", "hv"], ["--budget", "3"], ["--ceiling", "20"], ["--step-cap", "3"]]
    for extra in rejected:
        with pytest.raises(SystemExit) as exc:
            cli.main(["--suite", "lattice", *extra])
        assert exc.value.code == 2


def test_ceiling_applies_to_one_run(tmp_path, monkeypatch):
    monkeypatch.delenv("BOGO_CEILING", raising=False)
    out = str(tmp_path / "run.json")
    small = ["--group-g", "Z16", "--group-h", "Z16", "--delta", "0.3", "--out", out]
    assert cli.main([*small, "--ceiling", "16"]) == 0
    large = ["--group-g", "Z512", "--group-h", "Z512", "--delta", "0.3", "--out", out]
    assert cli.main(large) == 0
    assert cli.main([*large, "--ceiling", "16"]) == 1


def test_in_process_calls_do_not_leak(tmp_path, capsys):
    # the parser is built once per process; no call may see the previous one
    out = tmp_path / "run.json"
    base = ["--group-g", "Z8", "--group-h", "Z8", "--delta", "0.5", "--out", str(out)]
    assert cli.main([*base, "--word", "hv", "--seed", "3"]) == 0
    first = json.loads(out.read_text())
    assert first["word"] == "hv" and first["seed"] == 3
    assert cli.main(base) == 0
    second = json.loads(out.read_text())
    assert second["word"] == cli.DEFAULT_WORD and second["seed"] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["--group-g", "Z8", "--delta", "0.5"])
    assert exc.value.code == 2
    assert cli.main(base) == 0
    third = json.loads(out.read_text())
    for report in (second, third):
        report.pop("elapsed_ms")
    assert third == second
    capsys.readouterr()


def test_single_letter_words(tmp_path, capsys):
    out = tmp_path / "run.json"
    args = ["--group-g", "Z16", "--group-h", "Z16", "--delta", "0.05", "--out", str(out)]
    assert cli.main([*args, "--seed", "0", "--word", "h"]) == 0
    assert json.loads(out.read_text())["verified"] is True
    # a v-only word fails exactly when column 0 of A is empty, with the reason
    for seed in range(10):
        rc = cli.main([*args, "--seed", str(seed), "--word", "v"])
        report = json.loads(out.read_text())
        assert rc == (0 if report["verified"] else 1)
        if not report["verified"]:
            assert report["variety"] is None
            assert "no point with x = 0" in capsys.readouterr().err
            break
    else:
        pytest.fail("no seed gave an empty zero column")


def test_validate_report_rejects_missing_key():
    report = cli.run_experiment("Z8", "Z8", 0.5, 1)
    cli.validate_report(report)
    for key in ("verified", "d_size", "word"):
        broken = {k: v for k, v in report.items() if k != key}
        with pytest.raises(jsonschema.ValidationError):
            cli.validate_report(broken)
    cli.validate_report(report)


def test_suite_report_schema(tmp_path):
    out = tmp_path / "suite.json"
    proc = run_cli(["--suite", "lattice", "--seed", "2", "--out", str(out)])
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    cli.validate_report(report)
    assert report["suite"] == "lattice"
    assert report["all_passed"] is True


def _schema_corpus(battery) -> list[tuple[dict, bool]]:
    """(document, accepted) pairs: every contain-sparse and contain-saturated
    report at seed 1 and the --suite all report at seed 1, as written, then
    mutations of one experiment report with a variety and of the suite report."""
    reports = [
        cli.run_experiment(f"Z{n}", f"Z{n}", delta, seed, word=word)
        for workload in ("contain-sparse", "contain-saturated")
        for n, word, delta, seed in perfbench_run.batch_inputs(workload, 1)
    ]
    suite = json.loads(json.dumps(battery))
    corpus = [(json.loads(json.dumps(r)), True) for r in reports] + [(suite, True)]
    exp = next(r for r in reports if r["variety"]["maps"] and r["variety"]["progression"]["arms"])

    def mutant(base, edit):
        doc = copy.deepcopy(base)
        edit(doc)
        return doc

    exp_edits = [
        (lambda r: r.update(extra=1), False),
        (lambda r: r.pop("d_size"), False),
        (lambda r: r.update(kind="suite"), False),
        (lambda r: r.update(variety=None), True),
        (lambda r: r.update(variety=[]), False),
        (lambda r: r.update(variety={}), False),
        (lambda r: r["variety"].pop("maps"), False),
        (lambda r: r["variety"].update(rho="1/x"), False),
        (lambda r: r["variety"]["progression"].update(extra=0), False),
        (lambda r: r["variety"]["progression"]["arms"][0].pop("lo"), False),
        (lambda r: r.update(word="hx"), False),
        (lambda r: r.update(schema_version=2), False),
        (lambda r: r.update(variety_size="1"), False),
    ]
    suite_edits = [
        (lambda r: r.update(extra=1), False),
        (lambda r: r.pop("kind"), False),
        (lambda r: r.pop("checks"), False),
        (lambda r: r.update(kind="experiment"), False),
        (lambda r: r["checks"][0].update(extra=1), False),
        (lambda r: r.update(checks=[]), True),
    ]
    corpus += [(mutant(exp, edit), ok) for edit, ok in exp_edits]
    corpus += [(mutant(suite, edit), ok) for edit, ok in suite_edits]
    corpus += [([], False), ("report", False), (None, False)]
    return corpus


def test_report_schema_accepts_what_the_two_branch_schema_did(battery):
    # the shipped if/then/else schema and the earlier oneOf of two $refs
    # accept and reject the same documents
    shipped = cli.load_report_schema()
    old = json.loads((Path(__file__).parent / "data" / "report_oneof.schema.json").read_text())
    validators = []
    for schema in (shipped, old):
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        validators.append(cls(schema))
    corpus = _schema_corpus(battery)
    assert len(corpus) >= 86 + 12
    for doc, accepted in corpus:
        assert [v.is_valid(doc) for v in validators] == [accepted, accepted], doc


def test_suite_determinism_in_process():
    a = run_suite("quasirandom", 9)
    b = run_suite("quasirandom", 9)

    def strip(r):
        return json.dumps(
            {
                k: (
                    [{kk: vv for kk, vv in c.items() if kk != "elapsed_ms"} for c in v]
                    if k == "checks"
                    else v
                )
                for k, v in r.items()
                if k != "elapsed_ms"
            },
            sort_keys=True,
        )

    assert strip(a) == strip(b)


def test_cli_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["--group-g", "Z16", "--group-h", "Z16", "--delta", "0.1", "--seed", "11"]
    assert run_cli([*args, "--out", str(out1)]).returncode == 0
    assert run_cli([*args, "--out", str(out2)]).returncode == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_package_runs_as_a_module():
    args = ["--group-g", "Z8", "--group-h", "Z8", "--delta", "0.5", "--seed", "3"]
    reports = []
    for module in ("bogolib", "bogolib.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, *args], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        report.pop("elapsed_ms")
        reports.append(report)
    assert reports[0] == reports[1]


def test_run_experiment_function():
    report = cli.run_experiment("Z16", "Z16", 0.3, 7)
    assert report["verified"]
    cli.validate_report(report)


# -- grammar properties: every input ends in exit 0, 1 or 2, never a traceback

SMALL_SPECS = st.lists(st.integers(1, 12), min_size=1, max_size=2).map(
    lambda ms: "x".join(f"Z{m}" for m in ms)
)
# near-misses of the Z<n>(xZ<n>)* grammar, including non-ASCII digits
SPEC_TEXT = st.text(alphabet="Zzx0123456789 -+.\u00b2\u0661", max_size=8)
SPECS = st.one_of(SMALL_SPECS, SPEC_TEXT)
WORDS = st.one_of(
    st.none(),
    st.text(alphabet="hv", max_size=6),
    st.text(alphabet="hvHx 1", min_size=1, max_size=4),
)
DELTAS = st.one_of(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["0", "1", "1.0000001", "-0.0", "1e-300", "0x1p-2", "half", ""]),
)


def _run_in_process(argv):
    """(exit code, stderr) of cli.main; any exception but SystemExit escapes."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue()


def _check_outcome(argv, out):
    rc, err = _run_in_process([*argv, "--out", out])
    assert rc in (0, 1, 2), (argv, rc)
    if rc == 0:
        with open(out) as fh:
            report = json.load(fh)
        cli.validate_report(report)
        assert report["verified"] is True
    elif rc == 1:
        assert err.startswith(("error: ", "not verified: ")), (argv, err)
    else:
        assert "error:" in err, (argv, err)  # argparse's usage message
    return rc


@given(g=SPECS, h=SPECS, delta=DELTAS, word=WORDS, seed=st.integers(0, 3))
@example(g="Z\u00b2", h="Z4", delta=0.5, word=None, seed=0)
@example(g="Z8", h="Z8", delta=0.3, word="", seed=0)
@example(g="Z8", h="Z8", delta=float("nan"), word="hv", seed=0)
@settings(max_examples=60)
def test_cli_grammar_ends_in_a_stated_exit(g, h, delta, word, seed):
    delta = delta if isinstance(delta, str) else repr(delta)
    argv = ["--group-g", g, "--group-h", h, "--delta", delta, "--seed", str(seed)]
    if word is not None:
        argv += ["--word", word]
    # at most 256 elements in G x H keeps every accepted experiment small
    argv += ["--ceiling", "8"]
    with tempfile.TemporaryDirectory() as tmp:
        _check_outcome(argv, os.path.join(tmp, "run.json"))


@given(
    g=SMALL_SPECS,
    h=SMALL_SPECS,
    delta=st.floats(min_value=0.05, max_value=1.0),
    word=st.text(alphabet="hv", min_size=1, max_size=5),
)
@settings(max_examples=20)
def test_cli_valid_experiments_verify_or_state_why(g, h, delta, word):
    argv = ["--group-g", g, "--group-h", h, "--delta", repr(delta), "--word", word]
    with tempfile.TemporaryDirectory() as tmp:
        rc = _check_outcome(argv, os.path.join(tmp, "run.json"))
    # well-formed inputs within the ceiling are never usage errors
    assert rc in (0, 1)

