import csv
import io
import json
from dataclasses import fields

import pytest

from symmwig import cli
from symmwig.cli import _SUBCOMMANDS, dispatch, load_config
from symmwig.covariance import V_n_exact
from symmwig.ensemble import EntryModel, SymmetryClass
from symmwig.montecarlo import CLTPair, CLTRow, CumulantEstimates
from symmwig.patterns import CONDITIONS, DELTA_ALPHABET


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


def test_classes_example(capsys):
    code, out, _ = run(capsys, "classes", "--class", "DIII", "--n", "2")
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["class", "n", "index", "kind", "a", "b", "size", "members", "signs"]
    assert len(rows) == 1 + 2  # header + the two classes of DIII at n=2
    assert {r[3] for r in rows[1:]} == {"C1", "C2"}


CLASSES_CSV = {
    ("DIII", 3): """\
class,n,index,kind,a,b,size,members,signs
DIII,3,0,C1,1,2,4,1:2;2:1;4:5;5:4,1;-1;-1;1
DIII,3,1,C1,1,3,4,1:3;3:1;4:6;6:4,1;-1;-1;1
DIII,3,2,C1,2,3,4,2:3;3:2;5:6;6:5,1;-1;-1;1
DIII,3,3,C2,1,2,4,4:2;5:1;1:5;2:4,1;-1;1;-1
DIII,3,4,C2,1,3,4,4:3;6:1;1:6;3:4,1;-1;1;-1
DIII,3,5,C2,2,3,4,5:3;6:2;2:6;3:5,1;-1;1;-1
""",
    ("CI", 2): """\
class,n,index,kind,a,b,size,members,signs
CI,2,0,C1,1,2,4,1:2;2:1;3:4;4:3,1;1;-1;-1
CI,2,1,C2,1,2,4,3:2;4:1;1:4;2:3,1;1;1;1
CI,2,2,C1,1,1,2,1:1;3:3,1;-1
CI,2,3,C1,2,2,2,2:2;4:4,1;-1
CI,2,4,C2,1,1,2,3:1;1:3,1;1
CI,2,5,C2,2,2,2,4:2;2:4,1;1
""",
}


@pytest.mark.parametrize("cls,n", sorted(CLASSES_CSV))
def test_classes_golden_csv(capsys, cls, n):
    """The member rule, spelled out: members and signs of every class, in
    canonical order, byte for byte."""
    code, out, err = run(capsys, "classes", "--class", cls, "--n", str(n))
    assert (code, err) == (0, "")
    assert out.replace("\r\n", "\n") == CLASSES_CSV[(cls, n)]


def test_patterns_example(capsys):
    code, out, _ = run(
        capsys, "patterns", "--m", "4", "--condition", "forward",
        "--filter", "identical-rows-alpha1",
    )
    assert code == 0
    rows = rows_of(out)
    assert rows[1][3] == "8" and rows[1][4] == "8" and rows[1][5] == "yes"


def test_variance_asymptotic_example(capsys):
    code, out, _ = run(
        capsys, "variance", "--class", "CI", "--m", "4",
        "--mode", "asymptotic", "--sigma", "1",
    )
    assert code == 0
    rows = rows_of(out)
    assert rows[1][3] == "16"
    assert rows[1][5] == "theorem"


def test_variance_exact_needs_n(capsys):
    code, _, err = run(capsys, "variance", "--class", "CI", "--m", "4", "--mode", "exact")
    assert code == 1
    assert "--n" in err


@pytest.mark.parametrize("mode", ("exact", "asymptotic"))
@pytest.mark.parametrize("cls, n, message", [
    ("DIII", "-3", "n must be positive"),
    ("CI", "0", "n must be positive"),
    ("DIII", "1", "degenerate space: DIII with n=1 is identically zero"),
])
def test_variance_checks_n_in_every_mode(capsys, mode, cls, n, message):
    """A given --n is checked by one rule in every mode, the limit included."""
    code, out, err = run(capsys, "variance", "--class", cls, "--m", "4", "--mode", mode, "--n", n)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_variance_oracle_mode_is_gone(capsys):
    """The finite-n variance is the moment oracle's: ``oracle --mu <m>``."""
    code, out, err = run(capsys, "variance", "--class", "CI", "--m", "4", "--mode", "oracle",
                         "--n", "2")
    assert (code, out) == (1, "")
    assert err == "error: --mode: expected one of exact, asymptotic; got 'oracle'\n"
    code, out, _ = run(capsys, "oracle", "--class", "CI", "--n", "2", "--m", "4", "--mu", "4",
                       "--kind", "moment", "--family", "gaussian")
    assert (code, rows_of(out)[1][4]) == (0, "18")


def test_twelve_significant_digits(capsys):
    code, out, _ = run(
        capsys, "variance", "--class", "DIII", "--m", "2",
        "--mode", "exact", "--n", "12",
    )
    assert code == 0
    value = rows_of(out)[1][3]
    assert value == "%.12g" % (8 * 11 / 12)


def test_unknown_flag_exits_1(capsys):
    code, _, err = run(capsys, "classes", "--class", "DIII", "--n", "2", "--frob", "1")
    assert code == 1
    assert "usage" in err


def test_unknown_subcommand_exits_1(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_missing_required_flag(capsys):
    code, _, err = run(capsys, "classes", "--class", "DIII")
    assert code == 1
    assert "--n" in err


@pytest.mark.parametrize("argv,message", [
    (("classes", "--class", "AI", "--n", "2"),
     "--class: unknown symmetry class 'AI' (expected DIII or CI)"),
    (("patterns", "--m", "4", "--condition", "forward", "--first-delta", "0/1"),
     "--first-delta: expected 'ab/cd' with binary digits, got '0/1'"),
    (("patterns", "--m", "4", "--condition", "forward", "--first-delta", "02/10"),
     "--first-delta: expected 'ab/cd' with binary digits, got '02/10'"),
    (("patterns", "--m", "4", "--condition", "forward", "--first-delta", "0a/10"),
     "--first-delta: expected 'ab/cd' with binary digits, got '0a/10'"),
    (("patterns", "--m", "4", "--condition", "forward", "--first-delta", "\u0660\u0661/\u0661\u0660"),
     "--first-delta: expected 'ab/cd' with binary digits, got '\u0660\u0661/\u0661\u0660'"),
    (("patterns", "--m", "4", "--condition", "forward", "--first-delta", "+1/10"),
     "--first-delta: expected 'ab/cd' with binary digits, got '+1/10'"),
])
def test_class_and_delta_are_parsed_by_their_own_rules(capsys, argv, message):
    """--class and --first-delta go through SymmetryClass.parse and
    DeltaMatrix.from_string, and their messages reach one error line."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {message}"]


def test_pinned_first_digit_matches_its_closed_form(capsys):
    """Each of the eight digits heads 2^(m-2) of the 2^(m+1) chains, under
    either condition; a pinned reverse chain is also tau-realizable in
    2^(m-2) ways.  At m = 1 there is no closed form."""
    cases = [(m, condition, "all") for m in range(3, 7) for condition in CONDITIONS]
    cases += [(m, "reverse", "tau-realizable") for m in range(3, 7)]
    for m, condition, filt in cases:
        for digit in DELTA_ALPHABET:
            code, out, err = run(capsys, "patterns", "--m", str(m), "--condition", condition,
                                 "--filter", filt, "--first-delta", str(digit))
            assert (code, err) == (0, "")
            assert rows_of(out)[1][3:] == [str(2 ** (m - 2))] * 2 + ["yes"]
    # a chain of one digit must chain to itself, so a pinned m = 1 count is 0 or 1
    for digit in DELTA_ALPHABET:
        code, out, err = run(capsys, "patterns", "--m", "1", "--condition", "forward",
                             "--first-delta", str(digit))
        assert (code, err) == (0, "") and rows_of(out)[1][4:] == ["", ""]


@pytest.mark.parametrize("m", (1, 2))
def test_tau_realizable_below_three_is_rejected_before_enumerating(capsys, m):
    """Reflection completion needs m >= 3, so the filter is rejected before
    the enumeration, by one message that names it, as for forward chains."""
    code, out, err = run(capsys, "patterns", "--m", str(m), "--condition", "reverse",
                         "--filter", "tau-realizable")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"error: tau-realizable needs reverse chains of m >= 3, got reverse, m={m}"
    ]


def test_budget_error_exits_2(capsys):
    code, _, err = run(
        capsys, "oracle", "--class", "DIII", "--n", "6",
        "--m", "4", "--mu", "4", "--budget", "10",
    )
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("cls", ("CI", "DIII"))
def test_exact_variance_at_desk_size(capsys, cls):
    """m = 6 at n = 64 is one pass over 6496 shape walks."""
    code, out, err = run(capsys, "variance", "--class", cls, "--m", "6",
                         "--mode", "exact", "--n", "64")
    assert (code, err) == (0, "")
    model = EntryModel.gaussian()
    assert rows_of(out)[1][3] == "%.12g" % V_n_exact(SymmetryClass[cls], 64, 6, model)


# each command with the exit code of --budget 0: m = 2 enumerates nothing
BUDGET_COMMANDS = (
    (("variance", "--class", "CI", "--m", "2", "--mode", "exact", "--n", "3"), 0),
    (("variance", "--class", "CI", "--m", "4", "--mode", "exact", "--n", "3"), 2),
    (("oracle", "--class", "CI", "--n", "2", "--m", "2", "--mu", "2", "--kind", "moment"), 2),
    (("oracle", "--class", "CI", "--n", "2", "--m", "2", "--mu", "2", "--kind", "config"), 2),
)


@pytest.mark.parametrize("argv, zero_code", BUDGET_COMMANDS,
                         ids=("variance-m2", "variance-m4", "oracle-moment", "oracle-config"))
def test_negative_budget_is_one_message(tmp_path, capsys, argv, zero_code):
    """A budget below 0 is a validation error, on the command line and in a
    config file; a budget of 0 stays valid and runs out where anything is
    enumerated."""
    code, out, err = run(capsys, *argv, "--budget", "-1")
    assert (code, out, err) == (1, "", "error: --budget: expected an integer >= 0, got '-1'\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("budget = -1\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == f"error: {cfg}:1: budget: expected an integer >= 0, got '-1'\n"
    code, _, err = run(capsys, *argv, "--budget", "0")
    assert code == zero_code
    assert err == "" if zero_code == 0 else err.endswith(" exceed budget 0\n")


def test_exact_budget_counts_shape_walks(capsys):
    code, out, err = run(capsys, "variance", "--class", "CI", "--m", "4",
                         "--mode", "exact", "--n", "64", "--budget", "119")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: 120 shape walks exceed budget 119"]


def test_help_exits_0(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()
    assert dispatch(["report", "--help"]) == 0
    capsys.readouterr()


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nclass = CI\nn = 64\n\nm = 4  # trailing comment\n")
    code, out, _ = run(
        capsys, "variance", "--config", str(cfg), "--n", "3", "--mode", "exact"
    )
    assert code == 0
    row = rows_of(out)[1]
    assert row[0] == "CI" and row[1] == "3" and row[2] == "4"  # flag beat file


def test_config_malformed_line_reports_lineno(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("class = CI\nnonsense line\n")
    code, _, err = run(capsys, "classes", "--config", str(cfg), "--n", "2")
    assert code == 1
    assert f"{cfg}:2" in err


def test_config_unknown_key_reports_lineno(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("class = CI\nn = 2\nwibble = 9\n")
    code, _, err = run(capsys, "classes", "--config", str(cfg))
    assert code == 1
    assert "wibble" in err and ":3" in err


def test_config_type_error_reports_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = lots\n")
    code, _, err = run(capsys, "classes", "--config", str(cfg), "--class", "CI")
    assert code == 1
    assert "n" in err and "integer" in err


def test_config_bad_family_reports_lineno(tmp_path, capsys):
    """A family is checked by the entry law's own rule where it is read."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("class = CI\nfamily = atoms:-1:0.5,1:0.4\n")
    code, out, err = run(
        capsys, "variance", "--config", str(cfg), "--m", "2", "--mode", "exact", "--n", "3"
    )
    assert code == 1
    assert out == ""
    assert f"{cfg}:2: family:" in err and "sum" in err


def test_missing_config_file(tmp_path, capsys):
    code, _, err = run(capsys, "classes", "--config", str(tmp_path / "nope.cfg"),
                       "--class", "CI", "--n", "2")
    assert code == 1


def test_load_config_duplicate_last_wins(tmp_path):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("n = 2\nn = 5\n")
    assert load_config(str(cfg))["n"] == (2, "5")


def test_out_writes_table_and_manifest(tmp_path, capsys):
    out = tmp_path / "classes.csv"
    code, printed, _ = run(
        capsys, "classes", "--class", "CI", "--n", "2", "--out", str(out)
    )
    assert code == 0
    assert printed == ""  # table went to the file
    rows = rows_of(out.read_text())
    assert len(rows) == 1 + 2 * 1 + 4  # header + n(n-1) + 2n classes
    manifest = json.loads((tmp_path / "classes.csv.manifest.json").read_text())
    assert manifest["schema"] == "symmwig/1"
    assert manifest["subcommand"] == "classes"
    assert manifest["parameters"]["class"] == "CI"
    assert manifest["parameters"]["n"] == 2
    assert "version" in manifest and "timestamp" in manifest


def test_report_artifacts(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, _, _ = run(
        capsys, "report", "--class", "CI", "--n", "6", "--samples", "300",
        "--seed", "4", "--M", "4", "--out", str(out),
    )
    assert code == 0
    rows = rows_of(out.read_text())
    assert rows[0] == ["kind", "degree", "mu", "estimate", "se", "target",
                       "flag", "z", "k3", "k4", "passed", "note"]
    assert len(rows) == 1 + 4 + 6  # header, a var row per degree, a cov row per pair
    doc = json.loads((out.parent / "sim.csv.json").read_text())
    assert doc["schema"] == "symmwig/1"
    assert doc["config"]["samples"] == 300
    assert len(doc["report"]["rows"]) == 4
    assert doc["report"]["rows"][0]["var_est"] == 0.0
    manifest = json.loads((out.parent / "sim.csv.manifest.json").read_text())
    assert manifest["seed"] == 4


def test_report_csv_deterministic_across_threads(tmp_path, capsys):
    outs = []
    for threads, name in ((1, "a.csv"), (8, "b.csv")):
        path = tmp_path / name
        code, _, _ = run(
            capsys, "report", "--class", "DIII", "--n", "8", "--samples", "400",
            "--seed", "12", "--threads", str(threads), "--out", str(path),
        )
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("env", (None, "2", "soon"))
def test_manifest_records_the_worker_count_that_ran(tmp_path, capsys, monkeypatch, env):
    """--threads (or threads = in a config file) alone sets the worker count:
    without it one worker runs, the manifest says so, and the environment
    plays no part."""
    if env is not None:
        monkeypatch.setenv("SYMMWIG_THREADS", env)
    out = tmp_path / "run.csv"
    code, _, _ = run(
        capsys, "report", "--class", "CI", "--n", "4", "--samples", "200", "--seed", "1",
        "--out", str(out),
    )
    assert code == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["parameters"]["threads"] == 1
    assert json.loads((tmp_path / "run.csv.json").read_text())["config"]["parallelism"] == 1


@pytest.mark.parametrize("flag, in_file, ran", ((2, None, 2), (None, 2, 2), (3, 2, 3)))
def test_threads_come_from_the_flag_or_the_config_file(tmp_path, capsys, flag, in_file, ran):
    """The worker count is --threads, else threads = in the config file; the
    flag wins over the file, and manifest and document record what ran."""
    argv = ["report", "--class", "CI", "--n", "4", "--samples", "200", "--seed", "1"]
    if flag is not None:
        argv += ["--threads", str(flag)]
    if in_file is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"threads = {in_file}\n")
        argv += ["--config", str(cfg)]
    out = tmp_path / "run.csv"
    code, _, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["parameters"]["threads"] == ran
    assert json.loads((tmp_path / "run.csv.json").read_text())["config"]["parallelism"] == ran


@pytest.mark.parametrize("raw, message", (
    ("0", "parallelism must be >= 1"),
    ("-2", "parallelism must be >= 1"),
    ("soon", "--threads: expected an integer, got 'soon'"),
    ("1.5", "--threads: expected an integer, got '1.5'"),
))
def test_bad_worker_count_is_one_message(capsys, raw, message):
    code, out, err = run(capsys, "report", "--class", "CI", "--n", "2", "--samples", "10",
                         "--threads", raw)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("raw, message", (
    ("0", "parallelism must be >= 1"),
    ("soon", "{cfg}:1: threads: expected an integer, got 'soon'"),
))
def test_bad_worker_count_in_config_file_is_one_message(tmp_path, capsys, raw, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"threads = {raw}\n")
    code, out, err = run(capsys, "report", "--class", "CI", "--n", "2", "--samples", "10",
                         "--config", str(cfg))
    assert (code, out, err) == (1, "", f"error: {message.format(cfg=cfg)}\n")


def test_simulate_is_not_a_subcommand(capsys):
    """report is the one Monte Carlo command."""
    assert dispatch(["simulate", "--class", "CI", "--n", "2"]) == 1
    assert "invalid choice: 'simulate'" in capsys.readouterr().err


def test_report_table(capsys):
    code, out, _ = run(
        capsys, "report", "--class", "CI", "--n", "6", "--samples", "300",
        "--seed", "4", "--M", "4", "--rel-window", "0.5",
    )
    assert code == 0
    rows = rows_of(out)
    kinds = [r[0] for r in rows[1:]]
    assert kinds.count("var") == 4
    assert kinds.count("cov") == 6


def test_oracle_kinds_agree(capsys):
    results = []
    for kind in ("config", "moment"):
        code, out, _ = run(
            capsys, "oracle", "--class", "CI", "--n", "2", "--m", "2", "--mu", "2",
            "--kind", kind,
        )
        assert code == 0
        results.append(float(rows_of(out)[1][4]))
    assert results[0] == pytest.approx(results[1], abs=1e-12)


@pytest.mark.parametrize("argv", [
    ("oracle", "--kind", "config", "--m", "0", "--mu", "2"),
    ("oracle", "--kind", "config", "--m", "2", "--mu", "0"),
    ("oracle", "--kind", "config", "--m", "-1", "--mu", "2"),
    ("oracle", "--kind", "moment", "--m", "0", "--mu", "2"),
    ("oracle", "--kind", "moment", "--m", "2", "--mu", "0"),
    ("oracle", "--kind", "moment", "--m", "-1", "--mu", "2"),
    ("variance", "--mode", "exact", "--m", "0"),
    ("variance", "--mode", "asymptotic", "--m", "0"),
])
def test_oracles_reject_degrees_below_one(capsys, argv):
    """Both oracles, and the variance in every mode, reject a degree
    below 1 with one message."""
    code, out, err = run(capsys, *argv, "--class", "CI", "--n", "2")
    assert (code, out, err) == (1, "", "error: degrees must be >= 1\n")


@pytest.mark.parametrize("subcommand", ("traces", "report"))
def test_top_degree_below_one_is_one_message(capsys, subcommand):
    code, out, err = run(capsys, subcommand, "--class", "CI", "--n", "2", "--M", "0")
    assert (code, out, err) == (1, "", "error: M must be >= 1\n")


@pytest.mark.parametrize("subcommand", ("report",))
def test_top_degree_above_512_is_one_message(capsys, subcommand):
    """An M whose block sums would exhaust memory is refused before sampling."""
    code, out, err = run(capsys, subcommand, "--class", "CI", "--n", "2", "--M", "5000")
    assert (code, out, err) == (1, "", "error: M must be <= 512\n")


@pytest.mark.parametrize("argv", (("traces",), ("report", "--samples", "10")))
def test_negative_seed_is_one_message(capsys, argv):
    code, out, err = run(capsys, *argv, "--class", "CI", "--n", "2", "--seed", "-1")
    assert (code, out, err) == (1, "", "error: seed must be >= 0\n")


@pytest.mark.parametrize("flag", ("z-max", "rel-window"))
@pytest.mark.parametrize("value", ("nan", "inf", "-1"))
def test_grading_thresholds_are_finite_and_nonnegative(capsys, flag, value):
    """A NaN, infinite or negative threshold is one message, not a report
    that grades every degree the same way; 0 is a threshold."""
    argv = ("report", "--class", "CI", "--n", "2", "--samples", "10")
    code, out, err = run(capsys, *argv, f"--{flag}", value)
    want = f"error: {flag.replace('-', '_')} must be finite and >= 0\n"
    assert (code, out, err) == (1, "", want)
    assert run(capsys, *argv, f"--{flag}", "0")[0] == 0


def test_odd_degrees_have_no_threshold(tmp_path, capsys):
    """Odd degrees are graded by the exact-zero rule alone, so report takes
    no odd-degree threshold, as a flag or from a config file."""
    retired = "-".join(("odd", "ceiling"))  # spelled in parts, so no source names the flag
    argv = ("report", "--class", "CI", "--n", "2", "--samples", "10")
    code, out, err = run(capsys, *argv, f"--{retired}", "0.5")
    assert (code, out) == (1, "") and f"unrecognized arguments: --{retired}" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"z-max = 3\n{retired} = 0.5\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {cfg}:2: unknown key {retired!r}"]


def test_bad_threshold_is_rejected_before_sampling(capsys, monkeypatch):
    def no_sampling(config):
        raise AssertionError("sampled before the thresholds were checked")

    monkeypatch.setattr(cli, "run_simulation", no_sampling)
    code, out, err = run(capsys, "report", "--class", "CI", "--n", "64", "--samples", "10000",
                         "--z-max", "nan")
    assert (code, out, err) == (1, "", "error: z_max must be finite and >= 0\n")


def _no_constant(token):
    raise ValueError(f"non-JSON token {token}")


def test_report_document_follows_the_dataclasses(tmp_path, capsys):
    """The JSON document is written from the result dataclasses: every
    field of the estimates and of each grading row, with NaN as null.
    Under DIII n = 2 Rademacher entries Tr T_2 is constant, so its k3 and
    k4 are NaN."""
    out = tmp_path / "rep.csv"
    code, _, _ = run(
        capsys, "report", "--class", "DIII", "--n", "2", "--family", "rademacher",
        "--samples", "200", "--seed", "3", "--M", "4", "--out", str(out),
    )
    assert code == 0
    doc = json.loads((tmp_path / "rep.csv.json").read_text(), parse_constant=_no_constant)
    report = doc["report"]
    assert all(set(row) == {f.name for f in fields(CLTRow)} for row in report["rows"])
    assert report["offdiag"]
    assert all(set(pair) == {f.name for f in fields(CLTPair)} for pair in report["offdiag"])
    assert {f.name for f in fields(CumulantEstimates)} <= set(doc)
    (degree_2,) = [row for row in report["rows"] if row["degree"] == 2]
    assert degree_2["k3"] is None and degree_2["k3_se"] is None


def test_traces_runs(capsys):
    code, out, _ = run(
        capsys, "traces", "--class", "DIII", "--n", "4", "--seed", "2", "--M", "5"
    )
    assert code == 0
    rows = rows_of(out)
    assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4", "5"]


def test_traces_of_hermitian_diii_input_run_at_large_sigma(capsys):
    """DIII input is Hermitian by construction; at sigma = 1000 the
    rounding residue of its traces is large in absolute terms, and the
    command still prints every degree."""
    code, out, err = run(
        capsys, "traces", "--class", "DIII", "--n", "4", "--sigma", "1000", "--M", "6",
        "--seed", "2",
    )
    assert (code, err) == (0, "")
    assert [r[0] for r in rows_of(out)[1:]] == ["1", "2", "3", "4", "5", "6"]


@pytest.mark.parametrize("subcommand", ("report",))
def test_two_samples_is_one_message(capsys, subcommand):
    """Two samples make one-sample jackknife blocks, whose leave-one-out
    covariances divide by zero: rejected before sampling."""
    code, out, err = run(capsys, subcommand, "--class", "CI", "--n", "2", "--samples", "2",
                         "--seed", "1")
    assert (code, out, err) == (1, "", "error: need at least 3 samples\n")


def test_atoms_family_accepted(capsys):
    code, out, _ = run(
        capsys, "variance", "--class", "CI", "--m", "2", "--mode", "exact",
        "--n", "3", "--family", "atoms:-1:0.5,1:0.5",
    )
    assert code == 0
    assert float(rows_of(out)[1][3]) == 0.0  # fourth moment tight, no m=2 noise


def test_bad_atoms_rejected(capsys):
    code, _, err = run(
        capsys, "variance", "--class", "CI", "--m", "2", "--mode", "exact",
        "--n", "3", "--family", "atoms:-1:0.5,1:0.4",
    )
    assert code == 1
    assert "sum" in err


@pytest.mark.parametrize(
    "argv",
    (
        ("traces", "--class", "CI", "--n", "2"),
        ("variance", "--class", "CI", "--m", "4", "--mode", "asymptotic"),
        ("variance", "--class", "CI", "--m", "4", "--mode", "exact", "--n", "3"),
    ),
)
@pytest.mark.parametrize("sigma", ("nan", "inf", "-1"))
def test_bad_sigma_rejected_with_atoms(capsys, argv, sigma):
    """--sigma is checked before the family is read, atom laws included."""
    code, out, err = run(capsys, *argv, "--family", "atoms:-1:0.5,1:0.5", "--sigma", sigma)
    assert code == 1
    assert out == ""
    assert "sigma must be positive and finite" in err


SIGMA_COMMANDS = (
    ("traces", "--class", "CI", "--n", "2"),
    ("variance", "--class", "CI", "--m", "4", "--mode", "asymptotic"),
    ("variance", "--class", "CI", "--m", "4", "--mode", "exact", "--n", "3"),
    ("oracle", "--class", "CI", "--n", "2", "--m", "2", "--mu", "2", "--kind", "moment"),
    ("oracle", "--class", "CI", "--n", "2", "--m", "2", "--mu", "2", "--kind", "config"),
    ("report", "--class", "CI", "--n", "2", "--samples", "10"),
)


def test_sigma_commands_cover_every_subcommand_with_sigma():
    takes_sigma = {
        name for name, (_, _, opts) in _SUBCOMMANDS.items() if any(o.name == "sigma" for o in opts)
    }
    assert takes_sigma == {argv[0] for argv in SIGMA_COMMANDS}


@pytest.mark.parametrize("argv", SIGMA_COMMANDS, ids=lambda argv: "-".join(argv[:1] + argv[-2:]))
@pytest.mark.parametrize("sigma", ("nan", "inf", "-1", "1e200", "1e-170", "1e-160"))
def test_bad_sigma_rejected_on_every_subcommand(capsys, argv, sigma):
    """The default family of each subcommand, every mode and oracle kind:
    exit 1, nothing on stdout, one error line.  A sigma whose square
    overflows, underflows to zero or is subnormal is rejected too."""
    code, out, err = run(capsys, *argv, "--sigma", sigma)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: sigma must be positive and finite"]


ATOM_LAW = ("--family", "atoms:-1:0.5,1:0.5")  # scale 1


@pytest.mark.parametrize("argv", SIGMA_COMMANDS, ids=lambda argv: "-".join(argv[:1] + argv[-2:]))
def test_atom_law_has_one_scale_on_every_subcommand(capsys, argv):
    """An atom law carries its own scale: a --sigma off it is the same
    error on every subcommand, mode and oracle kind, and a --sigma on it
    changes nothing."""
    code, out, err = run(capsys, *argv, *ATOM_LAW, "--sigma", "2")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "--sigma 2 differs" in err
    default = run(capsys, *argv, *ATOM_LAW)
    assert default[0] == 0
    assert run(capsys, *argv, *ATOM_LAW, "--sigma", "1") == default


OVERFLOW_COMMANDS = (
    ("variance", "--class", "CI", "--m", "4", "--sigma", "1e150"),
    ("variance", "--class", "CI", "--m", "4", "--mode", "exact", "--n", "3", "--sigma", "1e150"),
    ("variance", "--class", "CI", "--m", "2", "--mode", "exact", "--n", "3", "--sigma", "1e100"),
    ("oracle", "--class", "CI", "--n", "2", "--m", "4", "--mu", "4", "--kind", "moment",
     "--sigma", "1e150"),
    ("report", "--class", "CI", "--n", "2", "--samples", "10", "--sigma", "1e150"),
    ("traces", "--class", "CI", "--n", "2", "--sigma", "1e150"),
    ("oracle", "--class", "CI", "--n", "2", "--m", "4", "--mu", "4", "--kind", "config",
     "--sigma", "1e150"),
    ("report", "--class", "CI", "--n", "4", "--samples", "100", "--M", "400"),
)


@pytest.mark.parametrize("argv", OVERFLOW_COMMANDS, ids=lambda argv: "-".join(argv[:1] + argv[-4:]))
def test_overflow_is_one_error_line(capsys, argv):
    """A sigma or a degree whose powers overflow a float is one error line
    and exit 1, with nothing on stdout, not a traceback."""
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: the result overflows a float"]


def test_exact_variance_rejects_sigma_off_the_atom_scale(capsys):
    """The exact formula reads its scale from the atom law, so a --sigma
    that differs from it is an error, not silently the value at sigma 1."""
    argv = ("variance", "--class", "CI", "--m", "4", "--mode", "exact", "--n", "3",
            "--family", "atoms:-1:0.5,1:0.5")
    code, out, err = run(capsys, *argv, "--sigma", "2")
    assert code == 1
    assert out == ""
    assert "--sigma 2 differs" in err
    default = run(capsys, *argv)
    assert default[0] == 0
    assert run(capsys, *argv, "--sigma", "1") == default
    # gaussian and rademacher laws take --sigma as their scale, as before
    for family in ("gaussian", "rademacher"):
        code, out, _ = run(capsys, *argv[:-1], family, "--sigma", "2")
        assert code == 0
        assert rows_of(out)[1][3] == "2427.25925926"


def test_manifest_records_environment(tmp_path, capsys):
    out = tmp_path / "classes.csv"
    code, _, _ = run(capsys, "classes", "--class", "DIII", "--n", "2", "--out", str(out))
    assert code == 0
    manifest = json.loads((tmp_path / "classes.csv.manifest.json").read_text())
    assert manifest["schema"] == "symmwig/1"
    env = manifest["environment"]
    assert set(env) == {"python", "numpy", "blas", "blas_version", "blas_threads", "blas_pinned"}
    assert isinstance(env["python"], str) and isinstance(env["numpy"], str)
    assert isinstance(env["blas_pinned"], bool)


def test_traces_manifest_records_blas_threads(tmp_path, capsys):
    """The thread count is read from the loaded OpenBLAS, or None where it
    cannot be read."""
    out = tmp_path / "traces.csv"
    code, _, _ = run(capsys, "traces", "--class", "CI", "--n", "2", "--out", str(out))
    assert code == 0
    env = json.loads((tmp_path / "traces.csv.manifest.json").read_text())["environment"]
    assert "blas_threads" in env
    assert env["blas_threads"] is None or env["blas_threads"] >= 1


@pytest.mark.parametrize("cls", ("CI", "DIII"))
def test_rademacher_m2_variance_is_exactly_zero(capsys, cls):
    """4 Var(g^2) = 0 under Rademacher entries at any sigma, in every mode,
    and so is the moment oracle's finite-n variance of degree 2."""
    for sigma in ("0.7", "0.9", "1.3", "2.1"):
        for mode, n in (("exact", "5"), ("asymptotic", "5")):
            code, out, _ = run(
                capsys, "variance", "--class", cls, "--m", "2", "--mode", mode,
                "--n", n, "--family", "rademacher", "--sigma", sigma,
            )
            assert code == 0
            assert rows_of(out)[1][3] == "0", (sigma, mode)
        code, out, _ = run(
            capsys, "oracle", "--class", cls, "--n", "3", "--m", "2", "--mu", "2",
            "--kind", "moment", "--family", "rademacher", "--sigma", sigma,
        )
        assert code == 0
        assert rows_of(out)[1][4] == "0", sigma
