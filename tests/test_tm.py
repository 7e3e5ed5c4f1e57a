"""Machine format, direct simulator, and the compiler into tiered programs."""

import itertools

import pytest

from tierlang import FirstAlive, Store, cli, parse, pretty, run_with_scheduler
from tierlang.fixtures import fixture_text
from tierlang.tm import (
    MAX_CLOCK_DEGREE,
    TMFormatError,
    _state_codes,
    compile_tm,
    parse_tm,
    simulate_tm,
)
from tierlang.typecheck import check_program


def lsb_value(word):
    return int(word[::-1], 2) if word else 0


def lsb_words(max_len):
    yield ""
    for length in range(1, max_len + 1):
        for bits in range(2**length):
            yield format(bits, "b").zfill(length)[::-1]


@pytest.fixture(scope="module")
def inc():
    return parse_tm(fixture_text("binary_inc.tm"))


def test_parse_tm_golden(inc):
    assert inc.states == ("scan", "done")
    assert inc.alphabet == ("0", "1")
    assert inc.blank == "B"
    assert inc.init == "scan"
    assert inc.halting == frozenset({"done"})
    assert inc.clock_degree == 1
    assert inc.transitions[("scan", "1")] == ("scan", "0", "R")
    assert inc.transitions[("scan", "0")] == ("done", "1", "R")
    assert inc.transitions[("scan", "B")] == ("done", "1", "R")


BAD_MACHINES = {
    "not total": "states s h\nalphabet 0\ninit s\nhalt h\nclock 1\ndelta s 0 -> h 0 R\n",
    "blank in alphabet": (
        "states s h\nalphabet 0 B\ninit s\nhalt h\nclock 1\n"
        "delta s 0 -> h 0 R\ndelta s B -> h 0 R\n"
    ),
    "halting transition": "states s\nalphabet 0\ninit s\nhalt s\nclock 1\ndelta s 0 -> s 0 R\n",
    "multi-char letter": "states s h\nalphabet 01\ninit s\nhalt h\nclock 1\n",
    "truth letter": "states s h\nalphabet T\ninit s\nhalt h\nclock 1\n",
    "missing section": "states s h\nalphabet 0\ninit s\nclock 1\n",
    "bad delta": "states s h\nalphabet 0\ninit s\nhalt h\nclock 1\ndelta s 0 h 0 R\n",
    "unknown keyword": "stat s\n",
    "clock zero": "states s h\nalphabet 0\ninit s\nhalt h\nclock 0\n",
}


@pytest.mark.parametrize("label", sorted(BAD_MACHINES))
def test_malformed_machines_rejected(label):
    with pytest.raises(TMFormatError):
        parse_tm(BAD_MACHINES[label])


GOOD_MACHINE = (
    "states s h\nalphabet 0\ninit s\nhalt h\nclock 1\ndelta s 0 -> h 0 R\ndelta s B -> h 0 R\n"
)

# Each case edits GOOD_MACHINE once: (old text, new text, message).
MACHINE_ERRORS = {
    "no states": ("states s h", "states", "a machine needs at least one state"),
    "duplicate states": ("states s h", "states s h s", "duplicate state names"),
    "long letter": ("alphabet 0", "alphabet 01", "tape letters are single characters, got '01'"),
    "truth letter": ("alphabet 0", "alphabet 0 T",
                     "tape letters T and F collide with the truth words"),
    "blank in alphabet": ("alphabet 0", "alphabet 0 B",
                          "the blank must be a fresh single character"),
    "unspellable letter": ("alphabet 0", "alphabet 0 -",
                           "tape letter '-' cannot be spelled in a .tier alphabet"),
    "unknown init": ("init s", "init q", "initial state 'q' is not a state"),
    "unknown halt": ("halt h", "halt q", "halting states must be states"),
    "clock zero": ("clock 1", "clock 0", "clock degree must be at least 1"),
    "clock above limit": ("clock 1", f"clock {MAX_CLOCK_DEGREE + 1}",
                          f"clock degree must be at most {MAX_CLOCK_DEGREE}"),
    "from unknown state": ("R\n", "R\ndelta q 0 -> h 0 R\n", "transition from unknown state 'q'"),
    "from halting state": ("R\n", "R\ndelta h 0 -> h 0 R\n", "halting state 'h' has a transition"),
    "reads unknown letter": ("R\n", "R\ndelta s 1 -> h 0 R\n",
                             "transition reads unknown letter '1'"),
    "to unknown state": ("0 -> h", "0 -> q", "transition to unknown state 'q'"),
    "writes unknown letter": ("h 0 R", "h 1 R", "transition writes unknown letter '1'"),
    "bad move": ("h 0 R", "h 0 X", "move must be R or L, got 'X'"),
    "not total": ("delta s B -> h 0 R\n", "",
                  "transition table is not total: no entry for ('s', 'B')"),
    "blank arity": ("init s", "blank B C\ninit s", "line 3: blank takes exactly one letter"),
    "init arity": ("init s", "init s h", "line 3: init takes exactly one state"),
    "clock word": ("clock 1", "clock one", "line 5: clock takes one integer degree"),
    "clock numeric sign": ("clock 1", "clock \u00b2", "line 5: clock takes one integer degree"),
    # int() refuses this many digits; the degree is above the limit anyway.
    "clock of 5000 digits": ("clock 1", "clock " + "9" * 5000,
                             f"clock degree must be at most {MAX_CLOCK_DEGREE}"),
    "delta shape": ("0 -> h", "0 h",
                    "line 6: delta lines read 'delta STATE LETTER -> STATE LETTER MOVE'"),
    "duplicate delta": ("B -> h 0 R\n", "B -> h 0 R\ndelta s 0 -> h 0 L\n",
                        "line 8: duplicate transition for ('s', '0')"),
    "unknown section": ("clock 1", "speed 1\nclock 1", "line 5: unknown section 'speed'"),
    "missing section": ("halt h\n", "", "missing sections: halt"),
}


@pytest.mark.parametrize("label", MACHINE_ERRORS)
def test_tm_compile_reports_each_malformed_machine(label, tmp_path, capsys, monkeypatch):
    old, new, message = MACHINE_ERRORS[label]
    assert old in GOOD_MACHINE
    path = tmp_path / "bad.tm"
    path.write_text(GOOD_MACHINE.replace(old, new, 1), encoding="utf-8")
    # Every refusal comes before compilation builds a single counter.
    monkeypatch.setattr(cli, "compile_tm", None)
    code = cli.main(["tm-compile", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: {path}: ")
    assert captured.err.endswith(f"{message}\n")


def test_the_good_machine_compiles():
    assert check_program(compile_tm(parse_tm(GOOD_MACHINE)).source).safe


# ``{`` is punctuation to the .tier tokenizer, which refuses the other three.
@pytest.mark.parametrize("letter", ["-", ".", '"', "{"])
@pytest.mark.parametrize("role", ["letter", "blank"])
def test_tape_letters_must_be_spelled_in_tier_files(letter, role):
    header = f"alphabet 0 {letter}\n" if role == "letter" else f"alphabet 0\nblank {letter}\n"
    with pytest.raises(TMFormatError, match="cannot be spelled"):
        parse_tm(f"states s h\n{header}init s\nhalt h\nclock 1\n")


def test_input_letters_must_be_on_the_tape_alphabet(inc):
    with pytest.raises(ValueError):
        simulate_tm(inc, "10x")


# --- simulation -----------------------------------------------------------------


def test_simulator_increments_lsb_first_binary(inc):
    for word in lsb_words(6):
        result = simulate_tm(inc, word)
        assert result.halted
        assert lsb_value(result.tape) == lsb_value(word) + 1
        # a carry past the end materializes exactly one blank cell
        assert len(result.tape) == len(word) + (0 if "0" in word else 1)


def test_simulator_goldens(inc):
    assert simulate_tm(inc, "11").tape == "001"
    assert simulate_tm(inc, "11").steps == 3
    empty = simulate_tm(inc, "")
    assert (empty.tape, empty.steps) == ("1", 1)


def test_identity_machine_halts_at_once():
    ident = parse_tm(fixture_text("identity.tm"))
    result = simulate_tm(ident, "0101")
    assert result.halted
    assert result.steps == 0
    assert result.tape == "0101"


def test_busy_machine_hits_the_step_bound():
    busy = parse_tm(fixture_text("busy.tm"))
    result = simulate_tm(busy, "00", max_steps=40)
    assert not result.halted
    assert result.tape is None
    assert result.steps == 40


def test_left_move_bounces_at_the_tape_edge():
    bounce = parse_tm(
        "states go done\nalphabet 0 1\nblank B\ninit go\nhalt done\nclock 1\n"
        "delta go 0 -> done 1 L\ndelta go 1 -> done 0 L\ndelta go B -> done 1 L\n"
    )
    assert simulate_tm(bounce, "01").tape == "11"
    assert simulate_tm(bounce, "").tape == "1"


# Runs to the first blank, writes a 1 there, then steps back onto the last
# letter of the input, flips it, and steps left once more.
WALK_BACK = (
    "states right back done\nalphabet 0 1\nblank B\ninit right\nhalt done\nclock 1\n"
    "delta right 0 -> right 0 R\ndelta right 1 -> right 1 R\ndelta right B -> back 1 L\n"
    "delta back 0 -> done 1 L\ndelta back 1 -> done 0 L\ndelta back B -> done 0 L\n"
)


def test_left_moves_inside_the_tape():
    spec = parse_tm(WALK_BACK)
    compiled = compile_tm(spec)
    program = compiled.source.program()
    words = ["".join(letters) for n in range(7) for letters in itertools.product("01", repeat=n)]
    assert len(words) == 127
    for word in words:
        # the head bounces at the left edge on the empty input
        closed_form = word[:-1] + {"0": "1", "1": "0"}[word[-1]] + "1" if word else "0"
        expected = simulate_tm(spec, word)
        assert expected.halted and expected.tape == closed_form, word
        run = run_with_scheduler(Store.of(input=word), program, FirstAlive(), fuel=1_000_000)
        assert run.finished
        assert run.store.lookup(compiled.output_var) == closed_form, word


# --- compilation ----------------------------------------------------------------


def test_state_codes_are_fixed_width(inc):
    assert _state_codes(inc.states) == {"scan": "0", "done": "1"}
    three = parse_tm(
        "states a b h\nalphabet 0\ninit a\nhalt h\nclock 1\n"
        "delta a 0 -> b 0 R\ndelta a B -> b 0 R\n"
        "delta b 0 -> h 0 R\ndelta b B -> h 0 R\n"
    )
    assert _state_codes(three.states) == {"a": "00", "b": "01", "h": "10"}


def sim_cascades(spec, n):
    """The step cascades a compiled machine runs on an n-letter input."""
    return 2 * n**spec.clock_degree + 2


def rewind_cascades(spec, n):
    """The rewind steps a compiled machine runs on an n-letter input."""
    return 2 * n**spec.clock_degree + n + 2


def test_cascade_budgets(inc):
    assert sim_cascades(inc, 3) == 8
    assert rewind_cascades(inc, 3) == 11
    quadratic = parse_tm(
        "states s h\nalphabet 0\ninit s\nhalt h\nclock 2\n"
        "delta s 0 -> h 0 R\ndelta s B -> h 0 R\n"
    )
    assert sim_cascades(quadratic, 3) == 20


def test_compiled_program_parses_back(inc):
    source = compile_tm(inc).source
    assert parse(pretty(source)).program() == source.program()


def test_compiled_program_type_checks(inc):
    assert check_program(compile_tm(inc).source).safe


def test_compiled_program_matches_the_simulator(inc):
    compiled = compile_tm(inc)
    program = compiled.source.program()
    for word in lsb_words(4):
        run = run_with_scheduler(Store.of(input=word), program, FirstAlive())
        assert run.finished
        assert run.store.lookup(compiled.output_var) == simulate_tm(inc, word).tape
        # the tier-1 clock variable is read, never consumed
        assert run.store.lookup(compiled.input_var) == word
        assert run.store.lookup("Left") == ""


def test_compiled_identity_copies_input_through():
    compiled = compile_tm(parse_tm(fixture_text("identity.tm")))
    program = compiled.source.program()
    for word in ("", "0", "0110"):
        run = run_with_scheduler(Store.of(input=word), program, FirstAlive())
        assert run.store.lookup("Right") == word


def test_compiled_busy_machine_exhausts_its_clock():
    # the non-halting machine writes one letter per funded step, so the
    # tape length counts exactly the cascades the clock paid for
    busy = parse_tm(fixture_text("busy.tm"))
    compiled = compile_tm(busy)
    program = compiled.source.program()
    for n in (0, 1, 3, 5):
        run = run_with_scheduler(Store.of(input="0" * n), program, FirstAlive(), fuel=10_000_000)
        assert run.finished
        tape = run.store.lookup("Right")
        assert len(tape) == sim_cascades(busy, n)
        assert set(tape) <= {"1"}
