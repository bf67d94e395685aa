import dataclasses
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ergolab.cli import build_parser, config_from_args, main
from ergolab.harness import PIPELINES, ExperimentConfig

A_VALUES_CFG = Path(__file__).resolve().parent / "data" / "a_values.cfg"
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ergolab.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_expsum_single_n_stdout():
    code = main(["expsum", "--p", "x^(3/2)", "--eps", "0.5", "--N", "64"])
    assert code == 0


def test_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_each_subcommand_takes_its_pipelines_keys():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert list(subparsers) == list(PIPELINES)
    for name, sp in subparsers.items():
        dests = {action.dest for action in sp._actions if action.dest != "help"}
        assert dests == set(PIPELINES[name].keys) | {"config", "out", "workers"}, name


def test_every_config_field_is_taken_by_some_pipeline():
    taken = {key for pipeline in PIPELINES.values() for key in pipeline.keys}
    content = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"pipeline", "out", "workers"}
    assert taken == content


def test_readme_lists_each_subcommands_keys():
    # the README's CLI section has one line per subcommand: "name: key key ..."
    names = "|".join(map(re.escape, PIPELINES))
    listed = re.findall(rf"^({names}): +(.+)$", README.read_text(), re.M)
    assert {name: tuple(keys.split()) for name, keys in listed} == {
        name: pipeline.keys for name, pipeline in PIPELINES.items()
    }
    assert len(listed) == len(PIPELINES)


def test_config_from_args_overrides_file(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("a=0.25\nseeds=7\nrho=1.5\n")
    args = build_parser().parse_args(
        ["average", "--config", str(cfg_file), "--seeds", "3"]
    )
    cfg = config_from_args(args)
    assert cfg.a == 0.25          # from file
    assert cfg.seeds == 3         # flag wins
    assert cfg.rho == (1.5,)
    assert cfg.pipeline == "average"


@pytest.mark.parametrize("flag,key,text,value", [
    ("--seeds", "seeds", "3", 3),  # int
    ("--a", "a", "0.25", 0.25),  # float
    ("--b", "b", "auto", None),  # optional float set to None
    ("--rho", "rho", "2,1.5", (2.0, 1.5)),  # comma list of floats
    ("--p", "p", "x^(3/2) + x", "x^(3/2) + x"),  # str
    ("--a-values", "a_values", "0.2,0.3", (0.2, 0.3)),  # average's sweep
])
def test_flag_and_config_file_give_equal_configs(tmp_path, flag, key, text, value):
    pipeline = "correlation" if key in PIPELINES["correlation"].keys else "average"
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"{key}={text}\n")
    from_file = config_from_args(
        build_parser().parse_args([pipeline, "--config", str(cfg_file)])
    )
    from_flag = config_from_args(build_parser().parse_args([pipeline, flag, text]))
    assert from_flag == from_file
    assert getattr(from_flag, key) == value


def test_auto_values_from_cli():
    args = build_parser().parse_args(
        ["correlation", "--b", "auto", "--c", "0.8", "--rho", "2"]
    )
    cfg = config_from_args(args)
    assert cfg.b is None
    assert cfg.c == 0.8


def test_generate_writes_csv(tmp_path):
    out = tmp_path / "real.csv"
    code = main(["generate", "--a", "0.3", "--seed", "5", "--n", "50", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# schema=")
    # X_1 = 1 always
    first = [l for l in text.splitlines() if not l.startswith("#")][1]
    assert first.endswith(",1,1")


def test_byte_identical_output_across_worker_env(tmp_path):
    args = [
        "average", "--system", "rotation", "--alpha", "sqrt2m1", "--f", "e(x)",
        "--a", "0.3", "--p", "x^(3/2)", "--eps", "0.5", "--rho", "2",
        "--Nmin", "64", "--Nmax", "256", "--seeds", "2", "--points", "2",
    ]
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    r1 = run_cli(args + ["--out", str(out1)], {"ERGOLAB_WORKERS": "1"})
    r2 = run_cli(args + ["--out", str(out2)], {"ERGOLAB_WORKERS": "2"})
    assert r1.returncode == 0 and r2.returncode == 0, (r1.stderr, r2.stderr)
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("pipeline", ["average", "chain"])
def test_cyclic_runs_with_the_default_observable(tmp_path, pipeline):
    # the default f, e, reads e(x) at x = j/q: the rows of --f roots
    args = [pipeline, "--system", "cyclic", "--Nmin", "64", "--Nmax", "256", "--seeds", "1"]
    default, roots = tmp_path / "default.csv", tmp_path / "roots.csv"
    assert main(args + ["--out", str(default)]) == 0
    assert main(args + ["--f", "roots", "--out", str(roots)]) == 0

    def rows(path):
        lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        return [line.split(",", 1)[1] for line in lines[1:]]  # all but experiment_id
    assert rows(default) == rows(roots) != []


# one small command per pipeline, each with a main table of at most 40 rows
ECHO_COMMANDS = [
    ["generate", "--a", "0.3", "--seed", "5", "--n", "30"],
    ["expsum", "--rho", "2,1.5", "--Nmin", "64", "--Nmax", "512"],
    ["average", "--rho", "2,1.5", "--Nmin", "64", "--Nmax", "256", "--seeds", "1", "--points", "2"],
    ["chain", "--rho", "2,1.5", "--Nmin", "64", "--Nmax", "256", "--seeds", "1", "--points", "2"],
    ["correlation", "--rho", "2", "--Nmin", "16", "--Nmax", "64", "--seeds", "1", "--b", "0.35"],
    ["deviation", "--N", "1000", "--trials", "20"],
    ["vdc-selftest", "--instances", "10"],
]


@pytest.mark.parametrize("args", ECHO_COMMANDS, ids=lambda args: args[0])
def test_echo_is_the_csv_body(tmp_path, capsys, args):
    # without --out, stdout ends with the main table as --out writes it,
    # less the comment lines, right after the summary lines
    assert main(args) == 0
    echoed = capsys.readouterr().out.splitlines()
    out = tmp_path / "run.csv"
    assert main(args + ["--out", str(out)]) == 0
    body = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert body[0].startswith("experiment_id,") and 2 <= len(body) <= 41
    assert echoed[-len(body):] == body
    assert echoed[-len(body) - 1].startswith(("pipeline=", "  slope["))


def test_vdc_selftest_cli():
    code = main(["vdc-selftest", "--instances", "25", "--seed", "1"])
    assert code == 0


@pytest.mark.parametrize("args", [
    ["average", "--a", "0.7"],
    ["average", "--system", "cyclic", "--f", "coboundary"],  # a rotation observable only
    ["average", "--Nmin", "64", "--Nmax", "64", "--seeds", "1", "--points", "0"],
    ["average", "--Nmin", "1000", "--Nmax", "1000"],  # no power of 2 in range
    ["chain", "--Nmin", "1000", "--Nmax", "1000"],
    ["correlation", "--Nmin", "1000", "--Nmax", "1000"],
    ["expsum", "--Nmin", "1000", "--Nmax", "1000"],
    ["average", "--Nmin", "64", "--Nmax", "64", "--seeds", "0"],
    ["correlation", "--Nmin", "128", "--Nmax", "1024", "--seeds", "1", "--iterms-N", "500"],
    ["correlation", "--Nmin", "1", "--Nmax", "2", "--seeds", "1", "--iterms-N", "2"],
    ["vdc-selftest", "--instances", "0"],
    ["expsum", "--p", "x + 0^(-2)", "--N", "16"],
    ["expsum", "--p", "exp(exp(x))", "--N", "16"],
    ["expsum", "--p", "x + 3^3^15", "--N", "16"],
    ["expsum", "--p", "9^9^9", "--N", "16"],
    ["deviation", "--chernoff-c", "-1000", "--N", "1000", "--trials", "2"],
    ["expsum", "--N"],  # argparse: missing value
    ["expsum", "--bogus", "1"],  # argparse: unknown flag
    ["average", "--system", "foo"],
    ["expsum", "--N", "abc"],
    ["expsum", "--rho", "2,x"],
    ["average", "--config", "no/such/dir/exp.cfg"],
    ["expsum", "--rho", "inf"],
    ["expsum", "--rho", "nan"],
    ["average", "--alpha", "nan", "--Nmin", "64", "--Nmax", "64", "--seeds", "1"],
    ["average", "--alpha", "inf", "--Nmin", "64", "--Nmax", "64", "--seeds", "1"],
    ["average", "--alpha", "abc", "--Nmin", "64", "--Nmax", "64", "--seeds", "1"],
    ["expsum", "--p", "x^(3/2)", "--N", "9007199254740993"],  # a 64 PiB table
    ["chain", "--config", str(A_VALUES_CFG)],  # a sweep over a that chain would ignore
    ["average", "--system", "bernoulli", "--f", "const"],  # the shift observes e(w) only
    # seeds outside [0, 2^64) would wrap onto others
    ["average", "--seed-base", "18446744073709551616", "--Nmin", "64", "--Nmax", "64",
     "--seeds", "1", "--points", "1"],
    ["average", "--seed-base", "-1", "--Nmin", "64", "--Nmax", "64", "--seeds", "1", "--points", "1"],
    ["expsum", "--N", "64", "--workers", "0"],
    ["average", "--Nmin", "64", "--Nmax", "64", "--seeds", "1", "--workers", "-3"],
    # past the interval repair's ceiling of 2^14 bits
    ["expsum", "--p", "x*x^(1/2)", "--Nmin", "64", "--Nmax", "1024", "--bits", "100000"],
    ["average", "--f", "foo"],  # the rotation lists its own observables
    ["vdc-selftest", "--seed", "-1", "--instances", "1"],
    # rho^k leaves the float64 range before it exceeds N_max
    ["expsum", "--Nmax", "1" + "0" * 400],
    ["expsum", "--rho", "1.5", "--Nmin", "1", "--Nmax", "1" + "0" * 320],
    # a repeated rho would repeat rows in average and chain, not in expsum
    ["average", "--rho", "2,1.5,2", "--Nmin", "64", "--Nmax", "64", "--seeds", "1"],
])
def test_bad_input_exits_with_one_line(args):
    t0 = time.perf_counter()
    r = run_cli(args)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("ergolab: error: ")
    assert len(r.stderr.strip().splitlines()) == 1
    if "--alpha" in args:
        assert "alpha" in r.stderr
    if args[1:3] == ["--alpha", "abc"]:
        assert "sqrt2m1|sqrt3m1|invphi|decimal" in r.stderr
    if args[-1] == str(A_VALUES_CFG):
        assert "a_values" in r.stderr and "average" in r.stderr
    if "cyclic" in args:
        assert "choose from e, roots, indicator0" in r.stderr
    if "2,1.5,2" in args:
        assert "rho must not repeat a value" in r.stderr
    if "--seed-base" in args:
        assert "seed_base" in r.stderr
    if "--workers" in args:
        assert "workers must be >= 1" in r.stderr
    if args[1:] == ["--f", "foo"]:
        assert "unknown rotation observable 'foo'; choose from e, e_shifted, const, coboundary" in r.stderr
    if "--seed" in args:
        assert "seed" in r.stderr
    if "--bits" in args:  # refused at entry, not after a run without bound
        assert "precision_bits must be at most 16384" in r.stderr
        assert time.perf_counter() - t0 < 10.0


@pytest.mark.parametrize("args", [
    ["--p", "(" * 400 + "x" + ")" * 400],
    ["--p=" + "-" * 2000 + "x"],
    ["--p", "+".join(["x"] * 3000)],
])
def test_deep_expression_exits_with_one_line(args, capsys):
    # rejected at parse time, where the parser's recursion and the
    # evaluators' would otherwise end in a RecursionError
    t0 = time.perf_counter()
    assert main(["expsum", *args, "--Nmin", "64", "--Nmax", "128"]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("ergolab: error: expression nested deeper than 160 levels")
    assert len(err.strip().splitlines()) == 1


def test_expression_150_parentheses_deep_runs():
    assert main(["expsum", "--p", "(" * 150 + "x^(3/2)" + ")" * 150, "--Nmin", "64", "--Nmax", "128"]) == 0


@pytest.mark.parametrize("pipeline", ["expsum", "average"])
def test_bad_worker_env_exits_with_one_line(pipeline):
    r = run_cli([pipeline, "--Nmin", "64", "--Nmax", "64"], {"ERGOLAB_WORKERS": "abc"})
    assert r.returncode == 2
    assert r.stderr == "ergolab: error: ERGOLAB_WORKERS must be an integer, got 'abc'\n"


@pytest.mark.parametrize("text,pipeline,named", [
    ("seeds=none\n", "average", "'seeds'"),  # a required key set to none
    ("nmax=5000\n", "deviation", "'nmax'"),  # deviation runs n, not nmax
    ("window=4\n", "expsum", "'window' is not read by expsum; pipelines that read it: average, chain"),
    ("seeds=2\n# two seeds\nseeds=3\n", "average", ":3: key 'seeds' repeats line 1"),
], ids=["required-none", "nmax-deviation", "window-expsum", "repeated"])
def test_bad_config_file_exits_with_one_line(tmp_path, text, pipeline, named):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(text)
    r = run_cli([pipeline, "--config", str(cfg_file)])
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("ergolab: error: ")
    assert named in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1
