"""CLI surface: delegation, exit codes, schemas, determinism."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from clasplab import (EvennessViolation, FrontDiagram, InvalidDiagram,
                      clasps, validate)
from clasplab.cli import main
from clasplab.diagram import Event, generate_trefoil, serialize
from test_golden_cli import invoke, load_corpus

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"
SRC = SCHEMAS.parent / "src"


def load_schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


def registry_validate(payload, name):
    from referencing import Registry, Resource
    resources = []
    for path in SCHEMAS.glob("*.schema.json"):
        schema = json.loads(path.read_text())
        resources.append((schema["$id"], Resource.from_contents(schema)))
    registry = Registry().with_resources(resources)
    validator = jsonschema.Draft202012Validator(load_schema(name),
                                                registry=registry)
    validator.validate(payload)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSubcommands:
    def test_rulings_trefoil(self, capsys):
        code, out, _ = run(capsys, "rulings", "--generate", "trefoil")
        assert code == 0
        assert out == "[[1],[3],[1,2,3]]\n"
        registry_validate(json.loads(out), "rulings")

    def test_obstruct_torus(self, capsys):
        code, out, _ = run(capsys, "obstruct", "--generate", "torus4",
                           "--n", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "obstructed"
        registry_validate(payload, "verdict")

    def test_obstruct_trefoil_witness(self, capsys):
        code, out, _ = run(capsys, "obstruct", "--generate", "trefoil")
        payload = json.loads(out)
        assert payload["verdict"] == "not_obstructed"
        assert payload["witness"] == [1, 2, 3]

    def test_validate_bad_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.front"
        bad.write_text("rc 1\n")
        code, out, _ = run(capsys, "validate", "--input", str(bad))
        assert code == 1
        payload = json.loads(out)
        assert not payload["ok"]
        assert payload["violations"][0]["line"] == 1
        registry_validate(payload, "validation")

    def test_validate_generated(self, capsys):
        code, out, _ = run(capsys, "validate", "--generate", "unknot")
        assert code == 0
        assert json.loads(out)["ok"]

    def test_clasps_single_ruling(self, capsys):
        code, out, _ = run(capsys, "clasps", "--generate", "trefoil",
                           "--ruling", "[1,2,3]")
        payload = json.loads(out)
        assert payload["total"] == 0 and payload["parity"] == "even"
        registry_validate(payload, "clasp_report")

    def test_parity_lists_all_rulings(self, capsys):
        code, out, _ = run(capsys, "parity", "--generate", "trefoil")
        payload = json.loads(out)
        assert [row["parity"] for row in payload] == ["odd", "odd", "even"]

    def test_generate_braid(self, capsys):
        code, out, _ = run(capsys, "generate", "--generate", "braid",
                           "--strands", "2", "--word", "1,1,1")
        assert code == 0
        assert out.count("x 1") == 3

    def test_apply_script(self, capsys, tmp_path):
        script = tmp_path / "fill.moves"
        script.write_text("h0 1\nh1 1 @2\n")
        code, out, _ = run(capsys, "apply-script", "--script", str(script))
        assert code == 0
        payload = json.loads(out)
        assert payload["clasps"]["parity"] == "even"
        registry_validate(payload, "certificate")

    def test_search_unknot(self, capsys):
        code, out, _ = run(capsys, "search", "--generate", "unknot")
        payload = json.loads(out)
        assert payload["status"] == "found"
        registry_validate(payload, "search")

    def test_cobordism(self, capsys, tmp_path):
        lower = tmp_path / "a.front"
        lower.write_text(serialize(generate_trefoil()))
        code, out, _ = run(capsys, "cobordism", "--input", str(lower),
                           "--generate-upper", "unknot")
        payload = json.loads(out)
        assert payload["status"] == "not_applicable"
        registry_validate(payload, "parity_check")

    def test_render_svg(self, capsys):
        code, out, _ = run(capsys, "render", "--generate", "trefoil",
                           "--ruling", "[1]")
        assert code == 0
        assert out.startswith("<svg ")

    def test_render_ascii(self, capsys):
        code, out, _ = run(capsys, "render", "--generate", "unknot",
                           "--style", "ascii")
        assert "<-->" in out


class TestErrorsAndDeterminism:
    def test_usage_error_exit_2(self, capsys):
        code, _, err = run(capsys, "rulings")
        assert code == 2
        assert "usage error" in err

    def test_mutually_exclusive_inputs(self, capsys, tmp_path):
        f = tmp_path / "d.front"
        f.write_text("lc 1\nrc 1\n")
        code, _, err = run(capsys, "rulings", "--input", str(f),
                           "--generate", "unknot")
        assert code == 2

    def test_domain_error_exit_1(self, capsys, tmp_path):
        f = tmp_path / "d.front"
        f.write_text("rc 1\n")
        code, _, err = run(capsys, "rulings", "--input", str(f))
        assert code == 1
        assert json.loads(err)["error"] == "InvalidDiagram"

    def test_internal_invariant_error_exit_1(self, capsys, monkeypatch):
        def broken(diagram, ruling):
            raise EvennessViolation("odd clasp total on a certificate")

        monkeypatch.setattr(clasps, "clasp_report", broken)
        code, out, err = run(capsys, "clasps", "--generate", "trefoil",
                             "--ruling", "[1]")
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "EvennessViolation",
            "message": "odd clasp total on a certificate"}

    def test_memory_error_exit_1(self, capsys, monkeypatch):
        """An unbounded listing that exhausts memory ends in one JSON
        line naming --budget, not in a traceback."""
        from clasplab import fillability

        def exhausted(diagram, budget=None):
            raise MemoryError

        monkeypatch.setattr(fillability, "obstruction_verdict", exhausted)
        code, out, err = run(capsys, "obstruct", "--generate", "braid",
                             "--strands", "2", "--word", ",".join("1" * 40))
        assert (code, out, err.count("\n")) == (1, "", 1)
        assert "Traceback" not in err
        payload = json.loads(err)
        assert payload["error"] == "MemoryError"
        assert "--budget" in payload["message"]

    @pytest.mark.parametrize("argv, stdin, message", [
        (("render", "--style", "ascii", "--generate", "torus4", "--n",
          "3000"), None, "out of memory"),
        (("rulings", "--input", "-"), "lc 1\n" * 30_000 + "rc 1\n" * 30_000,
         "out of memory; --budget N bounds the listing"),
    ], ids=["render_ascii", "rulings_nested_eyes"])
    def test_memory_error_in_a_capped_process(self, argv, stdin, message):
        """Memory that runs out for real, in a process that caps its own
        address space at 200 MB: the failing frames are released before
        the message is written, so it is one JSON line, not a chained
        traceback, and it names --budget only where the subcommand has
        one."""
        env = {k: v for k, v in os.environ.items() if k != "CLASPLAB_BUDGET"}
        env["PYTHONPATH"] = str(SRC)
        done = subprocess.run(
            [sys.executable, "-c", "import resource; resource.setrlimit("
             "resource.RLIMIT_AS, (200 << 20, 200 << 20)); from clasplab.cli "
             "import main; raise SystemExit(main())", *argv],
            input=stdin, env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (1, "")
        assert "Traceback" not in done.stderr
        assert done.stderr.count("\n") == 1
        assert json.loads(done.stderr) == {"error": "MemoryError",
                                           "message": message}

    def test_parse_error_structured(self, capsys, tmp_path):
        f = tmp_path / "d.front"
        f.write_text("x zero\n")
        code, _, err = run(capsys, "validate", "--input", str(f))
        assert code == 1
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize("argv", [
        ("rulings", "--generate", "trefoil"),
        ("clasps", "--generate", "trefoil"),
        ("obstruct", "--generate", "torus4", "--n", "1"),
        ("render", "--generate", "trefoil"),
        ("search", "--generate", "unknot"),
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "rulings", "--generate", "unknot",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text()) == [[]]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "rulings", "--generate", "trefoil",
                           "--format", "text")
        assert out.splitlines() == ["{1}", "{3}", "{1,2,3}"]

    def test_budget_flag_exhausts(self, capsys):
        code, _, err = run(capsys, "rulings", "--generate", "trefoil",
                           "--budget", "3")
        assert code == 1
        assert json.loads(err)["error"] == "BudgetExceeded"

    @pytest.mark.parametrize("command", ["rulings", "obstruct"])
    def test_default_budget_stops_a_huge_listing(self, command):
        """braid(2, [1]*40) has F(41) rulings; with no --budget and no
        CLASPLAB_BUDGET the listing stops at the default in a fresh
        process (its address space capped, so a regression fails here
        rather than filling memory), with one JSON line naming --budget."""
        env = {k: v for k, v in os.environ.items() if k != "CLASPLAB_BUDGET"}
        env["PYTHONPATH"] = str(SRC)
        done = subprocess.run(
            [sys.executable, "-c", "import resource; resource.setrlimit("
             "resource.RLIMIT_AS, (1 << 31, 1 << 31)); from clasplab.cli "
             "import main; raise SystemExit(main())", command, "--generate",
             "braid", "--strands", "2", "--word", ",".join("1" * 40)],
            env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (1, "")
        assert "Traceback" not in done.stderr
        assert json.loads(done.stderr) == {
            "error": "BudgetExceeded",
            "message": "enumeration exceeded 1000000 steps (the default "
                       "budget; --budget N sets another)"}

    def test_explicit_budget_lifts_the_default(self, capsys, monkeypatch):
        from clasplab import cli
        monkeypatch.delenv("CLASPLAB_BUDGET", raising=False)
        monkeypatch.setattr(cli, "LISTING_BUDGET", 10)
        argv = ("rulings", "--generate", "braid", "--strands", "2",
                "--word", "1,1,1,1,1,1")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err)["message"] == (
            "enumeration exceeded 10 steps (the default budget; --budget N "
            "sets another)")
        code, out, _ = run(capsys, *argv, "--budget", "5000")
        assert code == 0 and len(json.loads(out)) == 13
        monkeypatch.setenv("CLASPLAB_BUDGET", "5000")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(json.loads(out)) == 13
        # an explicit budget's message is the library's own
        code, _, err = run(capsys, *argv, "--budget", "5")
        assert json.loads(err)["message"] == "enumeration exceeded 5 steps"

    @pytest.mark.parametrize("argv", [
        ("obstruct", "--generate", "unknot", "--depth", "3"),
        ("rulings", "--generate", "unknot", "--depth", "3"),
        ("validate", "--generate", "unknot", "--budget", "3"),
        ("generate", "--generate", "unknot", "--budget", "3"),
        ("render", "--generate", "unknot", "--budget", "3"),
        ("search", "--generate", "unknot", "--seed", "3"),
    ])
    def test_flags_only_where_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_upper_generator_is_never_braid(self, capsys):
        # the upper diagram has no --strands or --word of its own
        with pytest.raises(SystemExit) as exc:
            main(["cobordism", "--generate", "unknot",
                  "--generate-upper", "braid"])
        assert exc.value.code == 2
        assert "invalid choice: 'braid'" in capsys.readouterr().err

    def test_search_budget_bounds_precheck(self, capsys):
        code, out, _ = run(capsys, "search", "--generate", "braid",
                           "--strands", "2", "--word", ",".join(["1"] * 40),
                           "--budget", "100")
        assert code == 0
        assert json.loads(out)["status"] == "exhausted"

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("CLASPLAB_BUDGET", "3")
        code, _, err = run(capsys, "rulings", "--generate", "trefoil")
        assert code == 1
        assert json.loads(err)["error"] == "BudgetExceeded"
        monkeypatch.setenv("CLASPLAB_BUDGET", "100000")
        code, out, _ = run(capsys, "rulings", "--generate", "trefoil")
        assert code == 0

    def test_budget_env_var_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("CLASPLAB_BUDGET", "abc")
        code, out, err = run(capsys, "rulings", "--generate", "trefoil")
        assert code == 2
        assert out == ""
        assert err == "usage error: CLASPLAB_BUDGET must be an integer, " \
                      "got 'abc'\n"

    def test_search_budget_zero_is_zero(self, capsys):
        # no node is expanded, so not even the unknot's one-move script
        # is found
        for name in ("trefoil", "unknot"):
            code, out, _ = run(capsys, "search", "--generate", name,
                               "--budget", "0")
            assert code == 0
            assert json.loads(out) == {
                "script": None, "status": "exhausted",
                "stats": {"depth": 0, "nodes": 0, "reason": "node budget"}}

    @pytest.mark.parametrize("command", ["rulings", "search"])
    def test_negative_budget_is_usage_error(self, capsys, monkeypatch,
                                            command):
        code, out, err = run(capsys, command, "--generate", "trefoil",
                             "--budget", "-1")
        assert (code, out) == (2, "")
        assert err == "usage error: --budget must be >= 0, got -1\n"
        monkeypatch.setenv("CLASPLAB_BUDGET", "-5")
        code, out, err = run(capsys, command, "--generate", "trefoil")
        assert (code, out) == (2, "")
        assert err == "usage error: CLASPLAB_BUDGET must be >= 0, got -5\n"

    @pytest.mark.parametrize("argv, expected", [
        (("rulings", "--input", "{missing}"), "cannot read"),
        (("rulings", "--input", "{tmp}"), "cannot read"),
        (("apply-script", "--script", "{missing}"), "cannot read"),
        (("cobordism", "--generate", "unknot", "--upper", "{missing}"),
         "cannot read"),
        (("rulings", "--input", "{latin1}"), "cannot read"),
        (("rulings", "--generate", "unknot", "--out", "{missing}/out.json"),
         "cannot write"),
        (("rulings", "--generate", "unknot", "--out", "{tmp}"),
         "cannot write"),
        (("rulings", "--input", "a\x00b"),
         "cannot read a\x00b: embedded null byte"),
        (("apply-script", "--script", "a\x00b"),
         "cannot read a\x00b: embedded null byte"),
        (("cobordism", "--generate", "unknot", "--upper", "a\x00b"),
         "cannot read a\x00b: embedded null byte"),
        (("rulings", "--generate", "unknot", "--out", "a\x00b"),
         "cannot write a\x00b: embedded null byte"),
        (("obstruct", "--generate", "torus4", "--n", "-1"),
         "--n must be >= 0, got -1"),
        (("search", "--generate", "unknot", "--depth", "-1"),
         "--depth must be >= 0, got -1"),
        (("rulings", "--generate", "braid", "--strands", "2", "--word", "a"),
         "--word must be comma-separated integers, got 'a'"),
        (("cobordism", "--generate", "torus4", "--n", "0",
          "--generate-upper", "torus4"),
         "--generate-upper torus4 needs --upper-n\n"),
        (("cobordism", "--generate", "unknot", "--generate-upper", "torus4",
          "--upper-n", "-1"),
         "--upper-n must be >= 0, got -1\n"),
        (("cobordism", "--generate", "unknot", "--upper", "{missing}",
          "--generate-upper", "unknot"),
         "--upper and --generate-upper are mutually exclusive\n"),
        *(((command, "--generate", "trefoil", "--ruling",
            "[" * 3000 + "]" * 3000), "--ruling must be a JSON array: ")
          for command in ("clasps", "parity", "render")),
    ], ids=["missing-input", "directory-input", "missing-script",
            "missing-upper", "non-utf8-input", "out-in-missing-dir",
            "out-is-directory", "nul-in-input", "nul-in-script",
            "nul-in-upper", "nul-in-out", "negative-n", "negative-depth",
            "non-integer-word", "upper-without-upper-n",
            "negative-upper-n", "upper-and-generate-upper",
            "deeply-nested-ruling-clasps",
            "deeply-nested-ruling-parity", "deeply-nested-ruling-render"])
    def test_bad_paths_and_generator_args_are_usage_errors(
            self, capsys, tmp_path, argv, expected):
        latin1 = tmp_path / "latin1.front"
        latin1.write_bytes("# caf\u00e9\nlc 1\nrc 1\n".encode("latin-1"))
        paths = {"missing": str(tmp_path / "missing"), "tmp": str(tmp_path),
                 "latin1": str(latin1)}
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith("usage error: ")
        assert expected in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("rulings", "--input", "-"),
        ("apply-script", "--script", "-"),
        ("cobordism", "--generate", "unknot", "--upper", "-"),
    ], ids=["input", "script", "upper"])
    def test_non_utf8_stdin_is_usage_error_in_c_locale(self, argv):
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
        env.update(LC_ALL="C", PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-m", "clasplab.cli", *argv],
                              input=b"\xff", env=env, capture_output=True,
                              timeout=60)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == (
            b"usage error: cannot read -: 'utf-8' codec can't decode byte "
            b"0xff in position 0: invalid start byte\n")

    @pytest.mark.parametrize("command", ["parity", "clasps"])
    @pytest.mark.parametrize("ruling", ["[true]", "[1,false]"])
    def test_boolean_ruling_rejected(self, capsys, command, ruling):
        code, out, err = run(capsys, command, "--generate", "trefoil",
                             "--ruling", ruling)
        assert code == 2
        assert out == ""
        assert "usage error: --ruling must be a JSON array of integers" in err


#: Every command the boundary property runs on a random word's text.
_WORD_COMMANDS = (
    ("validate",),
    ("rulings", "--budget", "5000"),
    ("obstruct", "--budget", "5000"),
    ("render", "--style", "ascii"),
    ("search", "--depth", "2", "--budget", "200"),
)


_SLOTS = st.integers(1, 6)


@st.composite
def _closed_words(draw):
    """Words with every slot inside the live strands, closed by right
    cusps at slot 1; few uniformly random words are valid."""
    word, s = [], 0
    while draw(st.booleans()):
        kind = draw(st.sampled_from(["lc", "rc", "x"] if s >= 2 else ["lc"]))
        after = s + {"lc": 2, "rc": -2, "x": 0}[kind]
        if len(word) + 1 + after // 2 > 12:
            break
        top = s + 1 if kind == "lc" else s - 1
        word.append(Event(kind, draw(st.integers(1, min(top, 6)))))
        s = after
    return word + [Event("rc", 1)] * (s // 2)


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.lists(st.builds(Event, st.sampled_from(["lc", "rc", "x"]), _SLOTS),
             max_size=12),
    _closed_words()))
def test_any_word_is_a_diagram_or_a_structured_error(word):
    """FrontDiagram raises exactly on the words validate rejects, and the
    CLI answers any word with exit 0 or 1, never a traceback."""
    report = validate(word)
    try:
        FrontDiagram(word)
    except InvalidDiagram as exc:
        assert not report.ok
        assert str(exc) == str(report.violations[0])
    else:
        assert report.ok
    text = "".join(f"{e}\n" for e in word)
    for command, *flags in _WORD_COMMANDS:
        code, _, err = invoke([command, "--input", "-", *flags], text)
        assert code in (0, 1)
        if err:
            assert err.count("\n") == 1 and err.endswith("\n")
            assert set(json.loads(err)) == {"error", "message"}
        if not report.ok and command != "validate":
            assert json.loads(err) == {
                "error": "InvalidDiagram",
                "message": str(report.violations[0])}


#: Integer options, each in a command where any small value is cheap.
_INTEGER_OPTIONS = {
    "--n": ("validate", "--generate", "unknot", "--n"),
    "--strands": ("validate", "--generate", "unknot", "--strands"),
    "--budget": ("rulings", "--generate", "unknot", "--budget"),
    "--upper-n": ("cobordism", "--generate", "unknot", "--generate-upper",
                  "unknot", "--upper-n"),
    "--depth": ("search", "--generate", "unknot", "--depth"),
    "--word": ("validate", "--generate", "braid", "--strands", "2",
               "--word"),
}


@pytest.mark.parametrize("option, text", [
    ("--n", "+0"), ("--n", " 1"), ("--n", "1_0"), ("--n", "١"),
    ("--strands", "+2"), ("--budget", "1_0"), ("--budget", "1e3"),
    ("--upper-n", " 0"), ("--depth", "+1"), ("--word", "+1,1_0"),
    ("--word", "1, 1"), ("CLASPLAB_BUDGET", "1_0"),
    ("CLASPLAB_BUDGET", " 5"),
])
def test_integers_are_ascii_digits_only(option, text, monkeypatch):
    """Signs other than one leading -, spaces, underscores and other
    scripts' digits are usage errors, not integers."""
    if option == "CLASPLAB_BUDGET":
        monkeypatch.setenv(option, text)
        argv = ["rulings", "--generate", "unknot"]
    else:
        argv = [*_INTEGER_OPTIONS[option], text]
    code, out, err = invoke(argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert text in err or repr(text) in err


@pytest.mark.parametrize("option, text, out", [
    ("--n", "0", '{"ok":true,"violations":[]}\n'),
    ("--budget", "007", "[[]]\n"),
    ("--word", "1,1,", '{"ok":true,"violations":[]}\n'),
    ("CLASPLAB_BUDGET", "5", "[[]]\n"),
])
def test_plain_integers_still_read(option, text, out, monkeypatch):
    if option == "CLASPLAB_BUDGET":
        monkeypatch.setenv(option, text)
        argv = ["rulings", "--generate", "unknot"]
    else:
        argv = [*_INTEGER_OPTIONS[option], text]
    assert invoke(argv) == (0, out, "")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_INTEGER_OPTIONS) + ["CLASPLAB_BUDGET"]),
       st.text(max_size=8))
def test_any_integer_option_text_is_answered(option, text):
    """Whatever text an integer option or CLASPLAB_BUDGET holds, the CLI
    exits 0, 1 or 2 and prints no traceback."""
    saved = os.environ.get("CLASPLAB_BUDGET")
    try:
        if option == "CLASPLAB_BUDGET":
            os.environ["CLASPLAB_BUDGET"] = text.replace("\0", "")
            argv = ["rulings", "--generate", "unknot"]
        else:
            os.environ.pop("CLASPLAB_BUDGET", None)
            argv = [*_INTEGER_OPTIONS[option], text]
        code, _, err = invoke(argv)
    finally:
        if saved is None:
            os.environ.pop("CLASPLAB_BUDGET", None)
        else:
            os.environ["CLASPLAB_BUDGET"] = saved
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# fresh interpreters: what each subcommand imports.  The in-process tests
# above cannot see an import-order bug, because by then every module is
# loaded.

#: clasplab modules each subcommand loads besides cli, diagram and errors.
_LOADS = {
    "validate": set(), "generate": set(),
    "rulings": {"rulings"},
    "clasps": {"rulings", "clasps"}, "parity": {"rulings", "clasps"},
    "render": {"render"},
    "obstruct": {"rulings", "clasps", "fillability"},
    "cobordism": {"rulings", "clasps", "fillability"},
    "apply-script": {"rulings", "clasps", "fillability", "moves"},
    "search": {"rulings", "clasps", "fillability", "moves"},
}

_LOADED = ("print(sorted(m for m in sys.modules "
           "if m.startswith('clasplab.')))")

#: Standard modules no subcommand may load: dataclasses also imports
#: inspect, ast, dis and tokenize, which every cold start would pay for.
_BARRED = ("dataclasses", "inspect")

#: Runs cli.main on its arguments, then prints the loaded module names
#: and the barred ones among them.
_PROBE = f"""
import contextlib, io, sys
from clasplab import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
{_LOADED}
print([m for m in {_BARRED!r} if m in sys.modules])
"""


def _python(*args, stdin=None):
    env = {k: v for k, v in os.environ.items() if k != "CLASPLAB_BUDGET"}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, *args],
                          input=(stdin or "").encode("utf-8"), env=env,
                          capture_output=True, timeout=60)


def test_bare_import_loads_no_submodule():
    done = _python("-c", f"import sys, clasplab\n{_LOADED}")
    assert (done.returncode, done.stdout) == (0, b"[]\n")


def _assert_loads(row, loads):
    """The golden row's exact module set after cli.main, none of the
    barred modules, and the same bytes from ``python -m clasplab.cli``."""
    probe = _python("-c", _PROBE, *row["argv"], stdin=row["stdin"])
    modules = {"cli", "diagram", "errors", *loads}
    assert probe.stdout.decode() == \
        f"{sorted(f'clasplab.{m}' for m in modules)}\n[]\n"
    done = _python("-m", "clasplab.cli", *row["argv"], stdin=row["stdin"])
    assert (done.returncode, done.stdout, done.stderr) == (
        row["exit"], row["stdout"].encode("utf-8"),
        row["stderr"].encode("utf-8"))


@pytest.mark.parametrize("command", sorted(_LOADS))
def test_subcommand_loads_only_its_modules(command):
    """The subcommand's first golden row (render's has no --ruling)."""
    _assert_loads(next(r for r in load_corpus() if r["argv"][0] == command),
                  _LOADS[command])


def test_render_with_a_ruling_loads_clasps():
    """Drawing a ruling's resolution is what needs clasps and rulings."""
    argv = ["render", "--generate", "trefoil", "--ruling", "[1]"]
    _assert_loads(next(r for r in load_corpus() if r["argv"] == argv),
                  {"render", "rulings", "clasps"})


# ---------------------------------------------------------------------------
# fuzzing whole argv and move scripts

_TREFOIL_TEXT = serialize(generate_trefoil())
_SCRIPT_TEXT = "h0 1 @1\nh0 3 @2\nh1 1 @2\n"

#: Files in the fuzz's working directory; ``.`` is a directory.
_FILES = {"d.front": _TREFOIL_TEXT, "junk.txt": "lc x\n[1]\n",
          "s.moves": _SCRIPT_TEXT}

#: Values that an option usually gets, so that drawn argv get past the
#: parser and reach the subcommands; any option may also get junk.
_PATHS = st.sampled_from([*_FILES, "-", ".", "missing"])
_SMALL = st.sampled_from(["0", "1", "2", "3", "-1", "007"])
_JSON = st.one_of(
    st.recursive(st.none() | st.booleans() | st.integers(-2, 20),
                 lambda inner: st.lists(inner, max_size=3),
                 max_leaves=6).map(json.dumps),
    st.sampled_from([10, 999, 3000]).map(lambda d: "[" * d + "]" * d))
_TYPICAL = {
    "--input": _PATHS, "-i": _PATHS, "--upper": _PATHS, "--script": _PATHS,
    "--out": _PATHS, "--n": _SMALL, "--strands": _SMALL, "--budget": _SMALL,
    "--upper-n": _SMALL, "--depth": _SMALL, "--seed": _SMALL,
    "--generate": st.sampled_from(["unknot", "trefoil", "torus4", "braid"]),
    "--generate-upper": st.sampled_from(["unknot", "trefoil", "torus4"]),
    "--word": st.sampled_from(["1,1,1", "1,2,1", "2,0", "1,,1"]),
    "--format": st.sampled_from(["json", "text"]),
    "--style": st.sampled_from(["svg", "ascii"]),
    "--ruling": _JSON, "-h": _JSON, "--": _JSON,
}
# junk without ASCII digits, so that no drawn size is large
_JUNK = st.text(st.characters(blacklist_characters="0123456789"),
                max_size=6)
_INPUT = ("--input", "-i", "--generate", "--n", "--strands", "--word")
#: The options each subcommand takes, besides --format and --out.
_TAKES = {
    "validate": _INPUT, "generate": _INPUT,
    "rulings": (*_INPUT, "--budget"), "obstruct": (*_INPUT, "--budget"),
    "clasps": (*_INPUT, "--budget", "--ruling"),
    "parity": (*_INPUT, "--budget", "--ruling"),
    "render": (*_INPUT, "--ruling", "--style"),
    "cobordism": (*_INPUT, "--budget", "--upper", "--generate-upper",
                  "--upper-n"),
    "search": (*_INPUT, "--budget", "--depth"),
    "apply-script": ("--script",),
    "nonsense": (),
}


def _option_pairs(command):
    """(option, value) pairs: mostly options the subcommand takes, with
    the values they usually get; sometimes any option, or junk."""
    taken = st.sampled_from([*_TAKES[command], "--format", "--out"])
    return st.one_of(taken, taken, st.sampled_from(sorted(_TYPICAL))).flatmap(
        lambda option: st.tuples(st.just(option), st.one_of(
            _TYPICAL[option], _TYPICAL[option], _TYPICAL[option], _JUNK)))

#: Script lines: the grammar's tokens mixed with junk.
_SCRIPT_TOKENS = st.one_of(
    st.sampled_from(["h0", "h1", "r1", "r1inv", "r2", "r2inv", "r3", "tr",
                     "lc", "@1", "@2", "@3", "@0", "@-1", "1", "2", "3",
                     "up", "down", "#", "@", "@x"]),
    st.text(max_size=3))
_SCRIPTS = st.lists(st.lists(_SCRIPT_TOKENS, max_size=4).map(" ".join),
                    max_size=6).map("\n".join)

_WORDS = st.lists(st.sampled_from(["lc 1", "lc 2", "rc 1", "rc 2", "x 1",
                                   "x 2", "x", "rc 0", "# c", ""]),
                  max_size=6).map("\n".join)


def _answers_in_structure(argv, stdin):
    """Run argv in a scratch directory; check exit code and stderr."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _FILES.items():
            Path(tmp, name).write_text(text)
        os.chdir(tmp)
        try:
            code, _, err = invoke(argv, stdin)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if err and not err.startswith(("usage error: ", "usage: ")):
        assert err.count("\n") == 1 and err.endswith("\n")
        assert set(json.loads(err)) == {"error", "message"}


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(sorted(_TAKES)),
       st.one_of(_WORDS, _SCRIPTS))
def test_any_argv_is_answered(data, command, stdin):
    """Any subcommand with any options and values exits 0, 1 or 2, with
    nothing, one JSON error line or a usage message on stderr."""
    source = "--script" if command == "apply-script" else \
        data.draw(st.sampled_from(["--generate", "--input"]))
    options = data.draw(st.lists(_option_pairs(command), min_size=1,
                                 max_size=4))
    argv = [command, source, data.draw(_TYPICAL[source]),
            *(token for pair in options for token in pair)]
    _answers_in_structure(argv, stdin)


@settings(max_examples=150, deadline=None)
@given(_SCRIPTS)
def test_any_move_script_is_answered(script):
    _answers_in_structure(["apply-script", "--script", "-"], script)
