import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mzhopf
from mzhopf import cli, verify
from mzhopf.compositions import enumerate_basis
from mzhopf.elements import Element
from mzhopf.expressions import MAX_NESTING


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "[2] sh [2]")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "element"
    assert doc["terms"] == [
        {"coeff": "4", "comp": [3, 1]},
        {"coeff": "2", "comp": [2, 2]},
    ]


def test_eval_text(capsys):
    code, out, _ = run(capsys, "eval", "[2] st [2]", "--format", "text")
    assert code == 0
    assert out.strip() == "[4] + 2*[2,2]"


def test_coprod_sides(capsys):
    code, out, _ = run(capsys, "coprod", "[1,2]", "--format", "text")
    assert code == 0
    assert "- [2](x)[1]" in out
    code, out, _ = run(capsys, "coprod", "[1,2]", "--side", "dec", "--format", "text")
    assert code == 0
    assert "- " not in out
    assert "[1](x)[2]" in out


def test_coprod_json_records(capsys):
    code, out, _ = run(capsys, "coprod", "[2,1]")
    doc = json.loads(out)
    assert doc["kind"] == "tensor"
    assert doc["rank"] == 2
    assert {"coeff": "1", "comp": [[2], [1]]} in doc["terms"]


def test_antipode_both_algebras(capsys):
    code, out, _ = run(capsys, "antipode", "[1,1]", "--format", "text")
    assert code == 0 and out.strip() == "[1,1]"
    code, out, _ = run(capsys, "antipode", "[1,1]", "--algebra", "qsh", "--format", "text")
    assert code == 0 and out.strip() == "[2] + [1,1]"


def test_psi_and_inverse_roundtrip(capsys):
    code, out, _ = run(capsys, "psi", "[1,1]", "--format", "text")
    assert code == 0 and out.strip() == "1/2*[2] + [1,1]"
    code, out, _ = run(capsys, "psi-inv", "1/2*[2] + [1,1]", "--format", "text")
    assert code == 0 and out.strip() == "[1,1]"


def test_psi_text_output_round_trips_at_weight_eleven(capsys):
    ones = "[" + ",".join(["1"] * 11) + "]"
    code, text, _ = run(capsys, "psi", ones, "--format", "text")
    assert code == 0 and text.count("[") == 1024
    code, out, err = run(capsys, "psi-inv", text.strip(), "--format", "text")
    assert (code, out.strip(), err) == (0, ones, "")


def test_eval_of_a_5000_term_sum(capsys):
    basis = [c for n in range(1, 14) for c in enumerate_basis(n)][:5000]
    terms = [f"{i % 7 + 1}*[{','.join(map(str, c))}]" for i, c in enumerate(basis)]
    src = terms[0] + "".join((" - " if i % 2 else " + ") + t for i, t in enumerate(terms[1:]))
    expected = Element(
        {c: (i % 7 + 1) * (-1 if i % 2 == 0 and i else 1) for i, c in enumerate(basis)}
    )
    code, out, err = run(capsys, "eval", src, "--format", "text")
    assert (code, err) == (0, "")
    assert out.strip() == str(expected)


def test_matrix_formats(capsys):
    code, out, _ = run(capsys, "matrix", "--weight", "2")
    assert code == 0
    assert "[1,1]" in out and "1/2" in out
    code, out, _ = run(capsys, "matrix", "--weight", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "[2],[1,1]"
    code, out, _ = run(capsys, "matrix", "--weight", "2", "--format", "json")
    doc = json.loads(out)
    assert doc["weight"] == 2
    assert doc["entries"][0] == ["1/2", "1/2"]
    assert doc["entries"][1] == ["0", "1"]


def test_mzv(capsys):
    code, out, _ = run(capsys, "mzv", "[2]", "--terms", "10", "--format", "text")
    assert code == 0
    assert abs(float(out.strip()) - 1.5497677311665408) < 1e-12
    code, out, _ = run(capsys, "mzv", "2,1", "--terms", "100")
    doc = json.loads(out)
    assert doc["composition"] == [2, 1]
    assert doc["terms"] == 100


def test_verify_suite_capped(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "order", "--max-weight", "4")
    assert code == 0
    assert "[PASS] order/weight-4-chain" in out
    assert "checks passed" in out


def test_verify_report_file(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--suite", "rota-baxter", "--max-weight", "3",
        "--report", str(report),
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc[0]["suite"] == "rota-baxter"
    assert doc[0]["passed"] is True


def test_verify_failure_exit_code(capsys, monkeypatch):
    fake = [verify.CheckResult("demo", "always-fails", False, "broken on purpose")]
    monkeypatch.setattr(cli.verify, "run_suite", lambda name, cap: fake)
    code, out, _ = run(capsys, "verify", "--suite", "order")
    assert code == 7
    assert "[FAIL] demo/always-fails -- broken on purpose" in out


def test_usage_error_exit_code(capsys):
    assert cli.main([]) == 2
    assert cli.main(["matrix"]) == 2  # --weight is required
    assert cli.main(["verify", "--suite", "nope"]) == 2
    capsys.readouterr()


def test_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "[2] ++")
    assert code == 3
    assert "error:" in err


def test_nesting_limit_exit_code(capsys):
    code, out, _ = run(capsys, "eval", "(" * MAX_NESTING + "[1]" + ")" * MAX_NESTING)
    assert code == 0 and json.loads(out)["terms"] == [{"coeff": "1", "comp": [1]}]
    code, _, err = run(capsys, "eval", "(" * 2000 + "[1]" + ")" * 2000)
    assert code == 3
    assert err.count("error:") == 1
    assert f"at position {MAX_NESTING + 2}" in err
    code, _, err = run(capsys, "eval", "2*" * 2000 + "[1]")
    assert code == 3


def test_cli_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(mzhopf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, mzhopf.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def test_domain_error_exit_codes(capsys):
    code, _, err = run(capsys, "mzv", "[1,2]")
    assert code == 4 and "not admissible" in err
    code, _, err = run(capsys, "mzv", "[abc]")
    assert code == 4
    code, _, err = run(capsys, "mzv", "1")
    assert code == 4
    # [1] is a nonempty composition, so it reaches the series and diverges
    code, _, err = run(capsys, "mzv", "[1]")
    assert code == 4 and "not admissible" in err


def _limit_address_space():
    limit = 300 * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_mzv_memory_is_bounded_by_the_chunk():
    # The limit binds only the child.  One dense array of this cutoff takes
    # 153 MiB, more than the limit leaves beside the interpreter and numpy;
    # the blocked sweep needs about 1.5 MB.
    src = os.path.dirname(os.path.dirname(mzhopf.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "mzhopf", "mzv", "[2,1]", "--terms", "20000000"],
        env=env, capture_output=True, text=True, preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert done.stderr == ""
    assert done.returncode == 0
    assert done.stdout == (
        '{"composition": [2, 1], "terms": 20000000, "value": 1.2020559837365405}\n'
    )


def test_error_line_is_never_empty(capsys, monkeypatch):
    def no_memory(c, config):
        raise MemoryError

    monkeypatch.setattr(cli.numeric, "zeta_truncated", no_memory)
    code, _, err = run(capsys, "mzv", "[2,1]")
    assert code == 4
    assert err == "error: out of memory\n"


_ONES_700 = "[" + ",".join(["1"] * 700) + "]"


@pytest.mark.parametrize("expr", [
    "[300] sh [300]",
    f"{_ONES_700} st [1]",
    f"{_ONES_700} sh [1]",
], ids=["300-sh-300", "ones700-st-1", "ones700-sh-1"])
def test_products_too_deep_for_the_recursion_exit_four(capsys, expr):
    code, out, err = run(capsys, "eval", expr)
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_coverage_error_exit_code(capsys):
    code, _, err = run(capsys, "matrix", "--weight", "5", "--horizon", "3")
    assert code == 5
    assert "weight" in err


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_matrix_errors_before_the_stream_write_nothing(capsys, monkeypatch, fmt):
    code, out, err = run(capsys, "matrix", "--weight", "5", "--horizon", "3", "--format", fmt)
    assert (code, out) == (5, "")
    assert err.startswith("error: ") and err.count("\n") == 1

    # every entry's text is made before the first line is written
    def out_of_memory(n, den):
        raise MemoryError

    monkeypatch.setattr(mzhopf.morphisms, "_fraction_text", out_of_memory)
    assert run(capsys, "matrix", "--weight", "4", "--format", fmt) == (
        4, "", "error: out of memory\n")


class _ClosingPipe:
    """A stdout whose reader goes away after the first line."""

    def __init__(self):
        self.lines = []

    def write(self, text):
        if self.lines:
            raise BrokenPipeError(32, "Broken pipe")
        self.lines.append(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_matrix_into_a_closed_pipe_exits_nine(capsys, fmt):
    pipe = _ClosingPipe()
    with redirect_stdout(pipe):
        code = cli.main(["matrix", "--weight", "6", "--format", fmt])
    err = capsys.readouterr().err
    assert code == 9
    assert len(pipe.lines) == 1
    assert err == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv, lines_read", [
    (["matrix", "--weight", "10"], 1),  # a ~3.7 MB table, cut part way through
    (["eval", "[2] sh [2]"], 0),  # still buffered when Python flushes at exit
], ids=["matrix-stream", "eval-buffered"])
def test_a_pipe_closed_by_its_reader_exits_nine(argv, lines_read):
    src = os.path.dirname(os.path.dirname(mzhopf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered, as in a shell pipeline
    child = subprocess.Popen(
        [sys.executable, "-m", "mzhopf", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    for _ in range(lines_read):
        child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 9
    assert err == "error: [Errno 32] Broken pipe\n"


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


CHAR_SINGULAR = {
    "label": "vanishing",
    "max_weight": 2,
    "values": {"[1]": "1", "[2]": "0", "[1,1]": "1/2"},
}


def test_singular_character_exit_code(tmp_path, capsys):
    path = tmp_path / "chi.json"
    path.write_text(json.dumps(CHAR_SINGULAR))
    code, _, err = run(capsys, "psi-inv", "[2]", "--char-file", str(path))
    assert code == 6
    assert "[2]" in err
    # forward application still works
    code, out, _ = run(capsys, "psi", "[1,1]", "--char-file", str(path), "--format", "text")
    assert code == 0
    assert out.strip() == "1/2*[2] + [1,1]"


def test_invalid_character_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "max_weight": 2,
        "values": {"[1]": "1", "[2]": "1", "[1,1]": "1"},
    }))
    code, _, err = run(capsys, "psi", "[1,1]", "--char-file", str(path))
    assert code == 8
    assert "not multiplicative" in err


def test_missing_character_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "psi", "[2]", "--char-file", str(tmp_path / "none.json"))
    assert code == 9


def test_report_write_failure_exit_code(capsys, tmp_path):
    bad = tmp_path / "missing-dir" / "report.json"
    code, _, _ = run(
        capsys, "verify", "--suite", "rota-baxter", "--max-weight", "2",
        "--report", str(bad),
    )
    assert code == 9


def _composition_texts(max_parts):
    """A composition as typed on the command line, well formed or not."""
    parts = st.lists(st.integers(-1, 4), max_size=max_parts)
    return st.one_of(
        parts.map(str),
        parts.map(lambda p: ",".join(map(str, p))),
        st.text(alphabet="[]01234,-x /", max_size=8),
    )


# literals of at most two parts keep a chain of three products small
_literals = st.lists(st.integers(1, 3), min_size=1, max_size=2).map(str)
_expressions = st.one_of(
    st.tuples(_literals, st.sampled_from(["+", "-", "sh", "st"]), _literals).map(" ".join),
    st.lists(
        st.one_of(
            _composition_texts(2),
            st.sampled_from(["sh", "st", "+", "-", "*", "(", ")", "1/2", "3", "1"]),
        ),
        min_size=1, max_size=5,
    ).map(" ".join),
)

_admissible = st.lists(st.integers(1, 4), max_size=5).flatmap(
    lambda rest: st.integers(2, 4).map(lambda s: str([s] + rest)))

_argvs = st.one_of(
    st.tuples(st.just("mzv"), st.one_of(_admissible, _composition_texts(6)),
              st.just("--terms"), st.integers(10, 5000).map(str)),
    st.tuples(st.just("eval"), _expressions, st.just("--format"),
              st.sampled_from(["text", "json"])),
    st.tuples(st.just("psi"), _expressions, st.just("--horizon"),
              st.integers(-1, 6).map(str)),
    st.tuples(st.just("verify"), st.just("--suite"), st.sampled_from(verify.SUITE_NAMES),
              st.just("--max-weight"), st.integers(-1, 2).map(str)),
).flatmap(lambda argv: st.sampled_from(
    # mostly whole command lines; some lose their last value or gain a bad flag
    [list(argv)] * 3 + [list(argv[:-1]), list(argv) + ["--nope"]]))


@settings(max_examples=80, deadline=None)
@given(_argvs)
def test_random_command_lines_keep_the_exit_code_contract(argv):
    # nothing escapes main; a nonzero exit explains itself in one error line
    # or a usage message.  Only verify exits 7, when a check fails, and every
    # check holds up to weight 2
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4, 5, 6, 8, 9), (argv, code)
    if code:
        text = err.getvalue()
        one_error = text.startswith("error: ") and text.count("\n") == 1
        assert one_error or text.startswith("usage: "), (argv, code, text)
