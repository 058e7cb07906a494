"""tools/compare_stdout.py's report of changed tokens."""

import importlib.util
import pathlib
import shlex

from gausscollide import cli

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "compare_stdout.py"
_spec = importlib.util.spec_from_file_location("compare_stdout", TOOL)
compare_stdout = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_stdout)


def test_signed_zeros_are_a_change_of_no_deviation():
    report = compare_stdout.token_deviation("j,x\n0,0\n1,-0\n", "j,x\n0,-0\n1,0.0\n")
    assert report == "2 of 6 tokens changed, max abs 0, max rel 0"


def test_deviation_of_changed_numbers():
    report = compare_stdout.token_deviation('{"x": 2, "y": 0}\n', '{"x": 3, "y": 0.5}\n')
    assert report == "2 of 4 tokens changed, max abs 1, max rel 1"


def test_random_argvs_cover_every_subcommand():
    argvs = compare_stdout.random_argvs(compare_stdout.RANDOM_ARGVS, compare_stdout.SEED)
    assert len(argvs) == compare_stdout.RANDOM_ARGVS
    assert {argv.split()[0] for argv in argvs} == {"evolve", "scan", "transport", "thresholds"}


def test_long_argvs_span_several_blocks():
    lengths = [int(words[words.index("--L") + 1])
               for words in map(shlex.split, compare_stdout.LONG_ARGVS)]
    assert all(words[0] == "scan" for words in map(shlex.split, compare_stdout.LONG_ARGVS))
    assert max(lengths) + 1 > cli.EMIT_ROWS


def test_fault_argvs_end_on_stderr():
    # Each fails with one error line, or runs and warns, so their stderr is compared.
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    for argv in compare_stdout.FAULT_ARGVS:
        code, out, err = compare_stdout.run(str(src), argv)
        last = err.decode().splitlines()[-1]
        if code == 2:
            assert out == b"" and "error: " in last, argv
        else:
            assert code == 0 and out and last.startswith("warning: "), argv


def test_a_changed_stderr_is_a_mismatch(monkeypatch, capsys):
    runs = {"old": (2, b"", b"usage: x\nerror: a\n"), "new": (2, b"", b"usage: x\nerror: b\n")}
    monkeypatch.setattr(compare_stdout, "run", lambda src, argv: runs[src])
    monkeypatch.setattr(compare_stdout, "golden_argvs", lambda path: [])
    monkeypatch.setattr(compare_stdout, "random_argvs", lambda count, seed: [])
    monkeypatch.setattr(compare_stdout, "LONG_ARGVS", [])
    monkeypatch.setattr(compare_stdout, "FAULT_ARGVS", ["evolve --r1 2"])
    assert compare_stdout.main(["old", "new"]) == 1
    assert capsys.readouterr().out == ("DIFF  exit 2 -> 2, stderr ['error: a'] -> ['error: b']  "
                                       "evolve --r1 2\n1 of 1 argvs differ\n")
