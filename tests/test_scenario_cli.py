import io
import os
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, seed, settings
from hypothesis import strategies as st

import orbkit
from orbkit.abelian import AbelianGroup
from orbkit import cli, fpgroup, seifert, spin, surgery
from orbkit.exact import IntMatrix
from orbkit.model import (
    IntersectionEvent,
    OrbifoldConfig,
    SingularPointData,
    SurfaceData,
    validate_config,
)
from orbkit.record import replace
from orbkit.report import emit_report, run_pipeline
from orbkit.scenario import (
    BUILTINS,
    MAX_DIGITS,
    MAX_PRIME,
    SCRIPT_OPS,
    SPIN_TARGETS,
    ParseError,
    Scenario,
    ScriptOp,
    SeifertRequest,
    emit_scenario,
    parse_scenario,
)

BUILTIN_TEXT = """\
scenario v1

[builtin]
name = glued_Z
p = 3

[seifert]
c1B = search
spin_target = spin
"""

EXPLICIT_TEXT = """\
scenario v1

[config]
b1 = 0
b2 = 1
euler = 3

[surface C]
genus = 1
self = 9

[script]
blow_up through=C id=E
blow_up through=E id=F   # E is now a (-2)-sphere
blow_down sphere=E
"""

# EXPLICIT_TEXT with a line that its move refuses for its geometry: E is
# a (-1)-sphere, and blow_down takes (-2)-spheres
REFUSED_GEOMETRY_TEXT = EXPLICIT_TEXT.split("[script]")[0] + """[script]
blow_up through=C id=E
blow_down sphere=E
"""

# a point dp1 and an event ev1 declared, then a blow-up that adds an
# event and a blow-down that adds a point, each without an id
DRAWN_IDS_TEXT = """\
scenario v1

[config]
b1 = 0
b2 = 2
euler = 4

[surface C]
genus = 0
self = 1

[surface L]
genus = 0
self = 1

[surface S]
genus = 0
self = -2

[point dp1]
order = 2
exponents = 1 1
incident = C L

[event ev1]
between = C L
at = dp1

[event cs]
between = C S

[script]
blow_up through=C
blow_down sphere=S
"""

# EXPLICIT_TEXT without its script, C of multiplicity 3, and a point on C
FACTOR_TEXT = (EXPLICIT_TEXT.split("[script]")[0].replace(
    "self = 9\n", "self = 9\nmultiplicity = 3\nj = 1\n")
    + "[point x]\norder = 5\nexponents = 1 1\nincident = C\n")
BIG_PRIME = 10 ** 30 + 57


class TestParse:
    def test_builtin(self):
        scn = parse_scenario(BUILTIN_TEXT)
        assert scn.builtin == ("glued_Z", 3)
        assert scn.seifert == SeifertRequest("search", "spin", None)

    def test_explicit_config_and_script(self):
        scn = parse_scenario(EXPLICIT_TEXT)
        assert scn.builtin is None
        assert scn.config.b2 == 1
        assert scn.config.surface("C").self_intersection == 9
        assert scn.script == (
            ScriptOp("blow_up", (("through", "C"), ("id", "E"))),
            ScriptOp("blow_up", (("through", "E"), ("id", "F"))),
            ScriptOp("blow_down", (("sphere", "E"),)))

    def test_script_line_its_move_refuses(self):
        # the parser runs each line's move: a refusal is the line's error
        with pytest.raises(ParseError, match="^line 14: E: genus 0, "
                                             "multiplicity 1, "
                                             "self-intersection -1$"):
            parse_scenario(REFUSED_GEOMETRY_TEXT)

    def test_missing_magic_line(self):
        with pytest.raises(ParseError) as exc:
            parse_scenario("[builtin]\nname = block_Y\n")
        assert exc.value.line_no == 1

    def test_unknown_key_reports_line(self):
        text = BUILTIN_TEXT.replace("p = 3", "prime = 3")
        with pytest.raises(ParseError) as exc:
            parse_scenario(text)
        assert exc.value.line_no == 5
        assert "prime" in str(exc.value)

    def test_unknown_builtin(self):
        with pytest.raises(ParseError):
            parse_scenario("scenario v1\n[builtin]\nname = nothing\n")

    def test_glued_Z_requires_p(self):
        with pytest.raises(ParseError):
            parse_scenario("scenario v1\n[builtin]\nname = glued_Z\n")

    def test_script_rejects_undefined_surface(self):
        text = EXPLICIT_TEXT.replace("sphere=E", "sphere=Q")
        with pytest.raises(ParseError) as exc:
            parse_scenario(text)
        assert "Q" in str(exc.value)

    def test_script_tracks_renames(self):
        text = EXPLICIT_TEXT.replace("blow_down sphere=E",
                                     "rename old=E new=G\ndiscard id=G")
        scn = parse_scenario(text)
        assert scn.script[-1] == ScriptOp("discard", (("id", "G"),))

    def test_script_names_the_sphere_of_an_unnamed_blow_up(self):
        # the blow-up names its sphere E1, so a later line may name it;
        # with E1 taken, the next unnamed sphere is E2
        text = EXPLICIT_TEXT.split("[script]")[0] + (
            "[script]\nblow_up through=C\nblow_up through=E1 id=F\n"
            "blow_up through=F\ndiscard id=E2\n")
        scn = parse_scenario(text)
        assert scn.script[1] == ScriptOp("blow_up", (("through", "E1"),
                                                     ("id", "F")))
        cfg, _ = scn.built
        assert [(s.id, s.self_intersection) for s in cfg.surfaces] == [
            ("C", 8), ("E1", -2), ("F", -2)]
        with pytest.raises(ParseError, match="undefined surface 'E2'"):
            parse_scenario(text + "rename old=E2 new=G\n")

    @pytest.mark.parametrize("line", [
        "blow_up through=C id=L", "resolve t1=C t2=C id=L",
        "rename old=C new=L", "rename old=L new=L"])
    def test_script_refuses_a_surface_id_in_use(self, line):
        # each line used to parse and then fail the build stage
        text = (EXPLICIT_TEXT.split("[script]")[0]
                + f"[surface L]\ngenus = 0\n\n[script]\n{line}\n")
        ln = len(text.splitlines())
        with pytest.raises(ParseError, match=f"^line {ln}: surface id 'L' "
                                             "already in use$"):
            parse_scenario(text)

    def test_script_sees_a_surface_declared_after_it(self):
        # the parse runs the script on the whole declared config
        text = (EXPLICIT_TEXT.split("[script]")[0]
                + "[script]\ndiscard id=L\n\n[surface L]\ngenus = 0\n")
        scn = parse_scenario(text)
        assert scn.script == (ScriptOp("discard", (("id", "L"),)),)
        assert scn.built[0].ids("surfaces") == ["C"]

    @pytest.mark.parametrize("kind, body", [
        ("surface", "genus = 0\n"), ("point", "order = 2\nexponents = 1 1\n"),
        ("event", "between = C L\n")])
    def test_repeated_section_id(self, kind, body):
        # ids are unique per kind: the second [kind x] header is refused
        first = (EXPLICIT_TEXT.split("[script]")[0]
                 + f"[surface L]\ngenus = 0\n\n[{kind} x]\n{body}\n")
        ln = len(first.splitlines()) + 1
        with pytest.raises(ParseError, match=f"^line {ln}: {kind} id 'x' "
                                             "already in use$"):
            parse_scenario(first + f"[{kind} x]\n{body}")
        # one id may name one record of each kind
        parse_scenario(first + "[point C]\norder = 2\nexponents = 1 1\n"
                       "[event C]\nbetween = C L\n")

    @pytest.mark.parametrize("line", ["multiplicity = 3", "j = 1",
                                      "order = 5"])
    def test_integer_that_cannot_be_factored(self, line):
        key = line.split()[0]
        text = FACTOR_TEXT.replace(line, f"{key} = {BIG_PRIME}")
        ln = text.splitlines().index(f"{key} = {BIG_PRIME}") + 1
        with pytest.raises(ParseError, match=f"^line {ln}: {BIG_PRIME} has "
                                             "no prime factor up to 1000000"):
            parse_scenario(text)
        # a larger value with small prime factors parses
        parse_scenario(FACTOR_TEXT.replace(line, f"{key} = {97 ** 16}"))

    @pytest.mark.parametrize("raw, value", [
        ("9", 9), ("-1/2", Fraction(-1, 2)), ("17/2", Fraction(17, 2)),
        ("9" * MAX_DIGITS, int("9" * MAX_DIGITS)),
        ("-" + "9" * MAX_DIGITS, -int("9" * MAX_DIGITS))],
        ids=["integer", "negative_half", "fraction", "longest", "longest_neg"])
    def test_self_is_an_integer_or_a_fraction(self, raw, value):
        text = EXPLICIT_TEXT.split("[script]")[0]
        scn = parse_scenario(text.replace("self = 9", f"self = {raw}"))
        assert scn.config.surface("C").self_intersection == value

    def test_b_residues_is_an_unknown_key(self):
        with pytest.raises(ParseError, match="line 8: unknown key "
                                             "'b_residues'"):
            parse_scenario(BUILTIN_TEXT.replace(
                "[seifert]\n", "[seifert]\nb_residues = auto\n"))

    @pytest.mark.parametrize("name", ["block_Y", "block_W"])
    def test_block_takes_no_p(self, name):
        with pytest.raises(ParseError, match=f"line 5: {name} takes no p"):
            parse_scenario(BUILTIN_TEXT.replace("glued_Z", name))

    def test_unknown_section(self):
        with pytest.raises(ParseError):
            parse_scenario(BUILTIN_TEXT + "\n[bogus]\nx = 1\n")

    def test_conflicting_build_sections(self):
        with pytest.raises(ParseError):
            parse_scenario(BUILTIN_TEXT + "\n[config]\nb1 = 0\n"
                           "b2 = 0\neuler = 0\n")

    def test_bad_spin_target(self):
        with pytest.raises(ParseError):
            parse_scenario(BUILTIN_TEXT.replace("spin_target = spin",
                                                "spin_target = maybe"))

    def test_explicit_c1B_vector(self):
        scn = parse_scenario(BUILTIN_TEXT.replace(
            "c1B = search", "c1B = " + " ".join(["0"] * 16)))
        assert scn.seifert.c1B == (0,) * 16

    def test_spin_unknowns(self):
        scn = parse_scenario(BUILTIN_TEXT
                             + "spin_unknowns = a1=1 a2=0\n")
        assert scn.seifert.spin_unknowns == {"a1": 1, "a2": 0}

    @pytest.mark.parametrize("value", ["a1=2", "a1=-1", "a1=0 a1=0"])
    def test_spin_unknowns_are_bits_named_once(self, value):
        with pytest.raises(ParseError, match="line 10"):
            parse_scenario(BUILTIN_TEXT + f"spin_unknowns = {value}\n")

    def test_missing_keys_are_named_in_grammar_order(self):
        # the error names the first missing key under every hash seed
        code = ("import sys\n"
                "from orbkit.scenario import ParseError, parse_scenario\n"
                "for text in sys.argv[1:]:\n"
                "    try:\n"
                "        parse_scenario(text)\n"
                "    except ParseError as exc:\n"
                "        print(exc)\n")
        no_config_keys = "scenario v1\n[config]\n"
        bare_resolve = EXPLICIT_TEXT.split("[script]")[0] + "[script]\nresolve"
        src = Path(orbkit.__file__).resolve().parents[1]
        outputs = {subprocess.run(
            [sys.executable, "-c", code, no_config_keys, bare_resolve],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(src),
                     PYTHONHASHSEED=str(seed))).stdout
            for seed in range(1, 7)}
        assert outputs == {"line 2: missing required key 'b1'\n"
                           "line 13: resolve requires t1=\n"}


class TestRoundTrip:
    def _check(self, text):
        scn = parse_scenario(text)
        emitted = emit_scenario(scn)
        assert parse_scenario(emitted) == scn
        # emit is a fixed point
        assert emit_scenario(parse_scenario(emitted)) == emitted

    def test_builtin_round_trip(self):
        self._check(BUILTIN_TEXT)

    def test_explicit_round_trip(self):
        self._check(EXPLICIT_TEXT)

    def test_full_featured_round_trip(self):
        self._check(FULL_TEXT)


FULL_TEXT = """\
scenario v1

[config]
b1 = 0
b2 = 2
euler = 4

[surface A]
genus = 1
multiplicity = 3
j = 1
self = 1/2

[surface B]
genus = 0
self = -1

[point s]
order = 2
exponents = 1 1
incident = A

[event e]
between = A B

[seifert]
c1B = 1 0
spin_target = nonspin
spin_unknowns = a1=1
"""


# ids the grammar can carry: no whitespace, '#', '=', ',' or '[' (the
# id rule refuses whitespace, ',' and '#'); none is reserved, so
# "smooth" is an id like any other; E1, dp1, ... are ids a move draws
# too.  A config holds at most ten surfaces (five declared, five added)
# and eight points, so a fresh id is always left
_IDS = ("A", "B", "C", "X", "Z", "a", "x", "_", "0", "12", "b_9", "XYZ0",
        "E1", "E2", "dp1", "dp2", "smooth")


def _unique_ids(**sizes):
    """A strategy for a list of distinct ids."""
    return st.lists(st.sampled_from(_IDS), unique=True, **sizes)


def _pick(draw, pool):
    """An element of pool, drawn as an index into one fixed range.  No
    strategy is made per draw, and a shrink that changes the pool
    changes no other draw, so a failing example shrinks in seconds."""
    return pool[draw(st.integers(0, len(_IDS) - 1)) % len(pool)]


def _fresh(draw, ids):
    """An id not in ids."""
    return _pick(draw, sorted(set(_IDS) - ids))


_OPS = ("blow_up", "blow_down", "discard", "rename", "resolve")


@st.composite
def _configs(draw):
    b1, b2 = draw(st.integers(0, 4)), draw(st.integers(0, 20))
    surfaces, points, events = [], [], []
    sids = draw(_unique_ids(min_size=1, max_size=5))
    for sid in sids:
        shape = draw(st.sampled_from(("torus", "sphere", "any")))
        if shape == "sphere":  # a (-2)-sphere, which blow_down takes
            surfaces.append(SurfaceData(sid, 0, self_intersection=-2))
            continue
        if shape == "torus":  # one of multiplicity 1, which resolve takes
            surfaces.append(SurfaceData(
                sid, 1, self_intersection=draw(st.integers(-2, 2))))
            continue
        # a self-intersection in [-20, 20] with denominator at most 6,
        # each one reachable: 60 is the lcm of 1..6
        surfaces.append(SurfaceData(
            sid, draw(st.integers(0, 3)), draw(st.integers(1, 9)),
            draw(st.integers(0, 8)),
            Fraction(draw(st.integers(-20 * 60, 20 * 60)),
                     60).limit_denominator(6)))
    tori = [s.id for s in surfaces if (s.genus, s.multiplicity) == (1, 1)]
    if len(tori) > 1:  # a smooth crossing, as resolve takes
        events.append(IntersectionEvent("ev1", *tori[:2]))
    pids = draw(_unique_ids(max_size=3))
    for pid in pids:
        order = draw(st.integers(1, 12))
        incident = [_pick(draw, sids) for _ in range(2)]
        points.append(SingularPointData(
            pid, order, (draw(st.integers(0, 30)), draw(st.integers(0, 30))),
            tuple(dict.fromkeys(incident[:draw(st.integers(0, 2))]))))
    for eid in draw(_unique_ids(max_size=4)):
        a = _pick(draw, sids)
        b = _pick(draw, [sid for sid in sids if sid != a] or sids)
        at = _pick(draw, [None, *pids])
        events.append(IntersectionEvent(eid, a, b, at))
    return OrbifoldConfig(tuple(surfaces), tuple(points), tuple(events),
                          b1=b1, b2=b2)


@st.composite
def _scripts(draw, cfg):
    """Script ops on the surfaces cfg holds at each step, a step kept only
    when its move accepts it, as the parser keeps a line.  blow_down and
    resolve are drawn only where some surface has the shape they take."""
    ops = []
    for _ in range(draw(st.integers(0, 5))):
        known = sorted(cfg.ids("surfaces"))
        if not known:
            break
        spheres = [s.id for s in cfg.surfaces
                   if (s.genus, s.multiplicity, s.self_intersection)
                   == (0, 1, -2)]
        tori = {s.id for s in cfg.surfaces
                if (s.genus, s.multiplicity) == (1, 1)}
        pairs = [(e.a, e.b) for e in cfg.events
                 if e.location is None and e.a != e.b and {e.a, e.b} <= tori]
        # few configs let resolve and blow_down apply: where they do,
        # each is drawn as often as the other three together
        op = _pick(draw, ["resolve"] * 3 * bool(pairs)
                   + ["blow_down"] * 3 * bool(spheres)
                   + ["blow_up", "discard", "rename"])
        sid = _pick(draw, known)
        if op == "blow_up":
            through = [_pick(draw, known)
                       for _ in range(draw(st.integers(1, 3)))]
            args = [("through", ",".join(dict.fromkeys(through)))]
            if draw(st.booleans()):  # else the move names the sphere
                args.append(("id", _fresh(draw, set(known))))
        elif op == "blow_down":
            args = [("sphere", _pick(draw, spheres))]
            if draw(st.booleans()):  # else the move names the point
                args.append(("point", _fresh(draw, set(cfg.ids("points")))))
        elif op == "resolve":
            t1, t2 = _pick(draw, pairs)
            args = [("t1", t1), ("t2", t2), ("id", _fresh(draw, set(known)))]
        elif op == "discard":
            args = [("id", sid)]
        else:
            args = [("old", sid), ("new", _fresh(draw, set(known)))]
        try:
            cfg = SCRIPT_OPS[op].apply(cfg, args)
        except (ValueError, KeyError):
            continue
        ops.append(ScriptOp(op, tuple(args)))
    return tuple(ops)


@st.composite
def _scenarios(draw):
    seifert = draw(st.none() | st.builds(
        SeifertRequest,
        c1B=st.just("search") | st.tuples(*[st.integers(-9, 9)] * 3),
        spin_target=st.sampled_from(SPIN_TARGETS),
        spin_unknowns=st.none() | st.dictionaries(
            st.sampled_from(["a1", "a2"]), st.integers(0, 1))))
    if draw(st.booleans()):
        name = draw(st.sampled_from(BUILTINS))
        primes = st.sampled_from([2, 3, 5, 7, 11, 13])
        p = draw(primes) if name == "glued_Z" else None
        return Scenario(builtin=(name, p), seifert=seifert)
    cfg = draw(_configs())
    return Scenario(config=cfg, script=draw(_scripts(cfg)), seifert=seifert)


# hypothesis's explain phase reruns a failing example with each span
# redrawn; over these strategies it nearly doubled the time a failure
# takes to report
_NO_EXPLAIN = [phase for phase in Phase if phase is not Phase.explain]


# one explicit seed for the round trip, the count of its ops and the
# split script: a derandomized run is seeded from the test's own source,
# so an edit to a body would change the examples it sees; with this seed
# the round trip and the count see the same 80 examples
_SCENARIO_SEED = 1
_SCENARIO_SETTINGS = settings(max_examples=80, deadline=None,
                              phases=_NO_EXPLAIN, database=None)


@seed(_SCENARIO_SEED)
@_SCENARIO_SETTINGS
@given(_scenarios())
def test_emit_then_parse_is_the_identity(scn):
    parsed = parse_scenario(emit_scenario(scn))
    assert parsed == scn
    # the parse's checking run builds what the scenario builds on its own
    assert parsed.built[0] == scn.built[0]


def test_scripts_draw_every_op():
    # the examples of the round trip hold each of the five ops, so the
    # properties here see every move run at parse
    seen = Counter()

    @seed(_SCENARIO_SEED)
    @_SCENARIO_SETTINGS
    @given(_scenarios())
    def count(scn):
        seen.update(op.op for op in scn.script)

    count()
    assert set(seen) == set(_OPS)


@seed(_SCENARIO_SEED)
@settings(max_examples=60, deadline=None, phases=_NO_EXPLAIN, database=None)
@given(st.data())
def test_a_script_split_over_sections_parses_as_in_one(data):
    # each [script] line's move runs once, in file order, on the whole
    # declared config, so where the sections break changes nothing
    cfg = data.draw(_configs())
    scn = Scenario(config=cfg, script=data.draw(_scripts(cfg)))
    head, _, tail = emit_scenario(scn).partition("[script]\n")
    lines = tail.splitlines()
    cuts = sorted(data.draw(st.lists(st.integers(0, len(lines)),
                                     max_size=3)))
    split = head + "".join(
        "[script]\n" + "".join(line + "\n" for line in lines[a:b]) + "\n"
        for a, b in zip([0, *cuts], [*cuts, len(lines)]))
    assert parse_scenario(split) == parse_scenario(emit_scenario(scn)) == scn


class TestCli:
    def test_verify_builtin_glued(self, capsys):
        rc = cli.main(["verify", "--builtin", "glued_Z", "--prime", "3"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "simply_connected: pass" in out
        assert "fail" not in out

    def test_verify_glued_p13_at_default_budget(self, capsys):
        rc = cli.main(["verify", "--builtin", "glued_Z", "--prime", "13"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "pi1_index_divides_4: pass" in out
        assert "simply_connected: pass" in out

    def test_verify_scenario_file(self, tmp_path, capsys):
        f = tmp_path / "s.scn"
        f.write_text(BUILTIN_TEXT)
        assert cli.main(["verify", str(f)]) == cli.EXIT_OK

    def test_readme_scenarios_verify(self, tmp_path, capsys):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        blocks = re.findall(r"^```ini\n(.*?)^```$", text,
                            re.MULTILINE | re.DOTALL)
        assert blocks and len(blocks) == text.count("```ini")
        for k, block in enumerate(blocks):
            parse_scenario(block)
            f = tmp_path / f"readme{k}.scn"
            f.write_text(block)
            rc = cli.main(["verify", str(f)])
            assert rc == cli.EXIT_OK, (block, capsys.readouterr())

    def test_build_block_W(self, capsys):
        rc = cli.main(["build", "--builtin", "block_W"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "euler = 12" in out and "b2 = 10" in out

    def test_build_ignores_seifert_section(self, tmp_path, capsys):
        # build only builds and validates; the background class of the
        # [seifert] section is the business of verify and report
        f = tmp_path / "s.scn"
        f.write_text(EXPLICIT_TEXT.split("[script]")[0]
                     + "[seifert]\nc1B = 1\n")
        rc = cli.main(["build", str(f)])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_OK
        assert "surface C: genus 1 mult 1 j 0 self 9" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("verb", ["verify", "report"])
    def test_seifert_on_explicit_config_is_input_error(self, verb, tmp_path,
                                                       capsys):
        # the grammar cannot declare an integral pairing, so the seifert
        # stage lacks input: exit 2, not the exit 1 of a failing verdict
        f = tmp_path / "s.scn"
        f.write_text(EXPLICIT_TEXT.split("[script]")[0]
                     + "[seifert]\nc1B = 1\n")
        rc = cli.main([verb, str(f)])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_INPUT
        assert captured.err == ("error: stage seifert: config declares no "
                                "integral pairing\n")

    # glued_Z at p = 3, whose lattice has b2 = 16 and whose w2 has the
    # unknowns a1 and a2; the one [seifert] key is line 8
    SEIFERT_TEXT = ("scenario v1\n\n[builtin]\nname = glued_Z\np = 3\n\n"
                    "[seifert]\n{}\n")

    @pytest.mark.parametrize("verb", ["verify", "report"])
    @pytest.mark.parametrize("line, err", [
        # each of these used to exit 0 or 1 (a stage error, or a verdict
        # computed from a bit read mod 2 or a name w2 does not have)
        ("c1B = 1 2", "error: stage seifert: c1B has 2 entries, b2 = 16"),
        ("spin_unknowns = a1=5 a2=0",
         "input error: line 8: a1 must be 0 or 1, got 5"),
        ("spin_unknowns = a1=-1 a2=0",
         "input error: line 8: a1 must be 0 or 1, got -1"),
        ("spin_unknowns = a1=0 a1=1 a2=0",
         "input error: line 8: duplicate unknown 'a1'"),
        ("spin_unknowns = a1=0 a2=0 a9=1",
         "error: stage seifert: spin_unknowns names a1 a2 a9; "
         "the unknowns of w2 are a1 a2"),
        ("spin_unknowns = a1=0",
         "error: stage seifert: spin_unknowns names a1; "
         "the unknowns of w2 are a1 a2"),
    ])
    def test_bad_seifert_request_is_input_error(self, verb, line, err,
                                                tmp_path, capsys):
        f = tmp_path / "s.scn"
        f.write_text(self.SEIFERT_TEXT.format(line))
        rc = cli.main([verb, str(f)])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_INPUT
        assert captured.out == ""
        assert captured.err == err + "\n"

    def test_seifert_request_naming_every_unknown(self, tmp_path, capsys):
        f = tmp_path / "s.scn"
        f.write_text(self.SEIFERT_TEXT.format("spin_unknowns = a2=0 a1=1"))
        rc = cli.main(["report", "--format", "structured", str(f)])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert [line.split(" = ")[0] for line in out.splitlines()
                if line.startswith("spin.")] == ["spin.a1=1,a2=0"]

    # EXPLICIT_TEXT without its script, then a point: "order" is line 13
    POINT_TEXT = (EXPLICIT_TEXT.split("[script]")[0]
                  + "[point x]\norder = {}\nexponents = 1 1\n")

    @pytest.mark.parametrize("verb", ["build", "verify", "report"])
    @pytest.mark.parametrize("order", ["0", "-2"])
    def test_point_order_below_one_is_input_error(self, verb, order,
                                                  tmp_path, capsys):
        # order 0 used to escape as a ZeroDivisionError traceback (exit 1)
        f = tmp_path / "s.scn"
        f.write_text(self.POINT_TEXT.format(order))
        rc = cli.main([verb, str(f)])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_INPUT
        assert captured.out == ""
        assert captured.err == (f"input error: line 13: order must be >= 1, "
                                f"got {order}\n")

    @pytest.mark.parametrize("verb", ["build", "verify", "report"])
    def test_point_order_one_is_a_violation(self, verb, tmp_path, capsys):
        f = tmp_path / "s.scn"
        f.write_text(self.POINT_TEXT.format(1))
        rc = cli.main([verb, str(f)])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_FAIL
        assert captured.err == ""
        if verb == "verify":
            assert "config_valid: fail" in captured.out
        if verb == "report":
            assert "BadOrder at x: order 1" in captured.out

    def test_negative_b2_fails_validation(self, tmp_path, capsys):
        f = tmp_path / "s.scn"
        # euler = 2 - 2*b1 + b2, so that the parse takes the file
        f.write_text(EXPLICIT_TEXT.split("[script]")[0]
                     .replace("b2 = 1", "b2 = -4")
                     .replace("euler = 3", "euler = -2"))
        assert cli.main(["verify", str(f)]) == cli.EXIT_FAIL
        assert "config_valid: fail" in capsys.readouterr().out

    def test_build_reports_failing_script(self, tmp_path, capsys):
        # the refused blow_down used to fail the build stage (exit 1)
        f = tmp_path / "s.scn"
        f.write_text(REFUSED_GEOMETRY_TEXT)
        assert cli.main(["build", str(f)]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            "input error: line 14: E: genus 0, multiplicity 1, "
            "self-intersection -1\n")

    def test_explicit_c1B_failing_h1_is_a_verdict(self, tmp_path, capsys):
        # every scaled entry is even, so the class is not primitive
        f = tmp_path / "s.scn"
        f.write_text(BUILTIN_TEXT.replace(
            "c1B = search", "c1B = " + " ".join(["1"] * 16)))
        rc = cli.main(["verify", str(f)])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_FAIL
        assert captured.err == ""
        assert "h1_zero: fail" in captured.out
        assert "simply_connected: fail" in captured.out
        for skipped in ("gk_condition", "spin_target"):
            assert skipped not in captured.out
        cli.main(["report", str(f), "--format", "structured"])
        out = capsys.readouterr().out
        assert "h1.primitive = False" in out and "chern.scaled = " in out
        assert "spin." not in out

    def test_missing_file_is_input_error(self, capsys):
        rc = cli.main(["verify", "/nonexistent/path.scn"])
        assert rc == cli.EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    def test_malformed_scenario_is_input_error(self, tmp_path, capsys):
        f = tmp_path / "bad.scn"
        f.write_text("not a scenario\n")
        assert cli.main(["verify", str(f)]) == cli.EXIT_INPUT

    @pytest.mark.parametrize("verb", ["build", "verify", "report"])
    def test_non_utf8_file_is_input_error(self, verb, tmp_path, capsys):
        # a byte 0xff in a comment line used to escape as a traceback
        f = tmp_path / "s.scn"
        f.write_bytes(b"scenario v1\n# caf\xff\n"
                      + BUILTIN_TEXT.encode().partition(b"\n")[2])
        assert cli.main([verb, str(f)]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == f"input error: {f}: byte 17 is not UTF-8\n"
        assert captured.out == ""

    @pytest.mark.parametrize("text, message", [
        (EXPLICIT_TEXT.replace("self = 9", "self = 1e5000"),
         "line 10: expected integer, got '1e5000'"),
        (EXPLICIT_TEXT.replace("self = 9", "self = 1e10000000"),
         "line 10: expected integer, got '1e10000000'"),
        (EXPLICIT_TEXT.replace("self = 9", "self = 1.5"),
         "line 10: expected integer, got '1.5'"),
        (EXPLICIT_TEXT.replace("self = 9", "self = " + "9" * 4300),
         f"line 10: integer longer than {MAX_DIGITS} digits"),
        (BUILTIN_TEXT.replace("c1B = search",
                              "c1B = " + "9" * 4299 + " 0" * 15),
         f"line 8: integer longer than {MAX_DIGITS} digits"),
    ], ids=["exponent", "exponent_of_ten_million_digits", "decimal",
            "self_of_4300_digits", "c1B_of_4299_digits"])
    @pytest.mark.parametrize("verb", ["build", "verify", "report"])
    def test_a_number_past_the_digit_cap_is_input_error(
            self, verb, text, message, tmp_path, capsys):
        # build and report used to print a traceback for a number of more
        # than 4,300 digits (the exponent, the blow-down of the long self,
        # the scaled Chern class of the long c1B), and reading 1e10000000
        # took seconds
        f = tmp_path / "s.scn"
        f.write_text(text)
        assert cli.main([verb, str(f)]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == f"input error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("verb", ["build", "verify", "report"])
    def test_euler_must_follow_from_the_betti_numbers(self, verb, tmp_path,
                                                      capsys):
        # chi = 2 - 2*b1 + b2; euler = 3 beside a 1,000-digit b2 used to
        # pass config_valid, and every verb exited 0
        b2 = "9" * MAX_DIGITS
        f = tmp_path / "s.scn"
        f.write_text(EXPLICIT_TEXT.replace("b2 = 1", f"b2 = {b2}"))
        assert cli.main([verb, str(f)]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == ("input error: line 6: euler must equal "
                                f"2 - 2*b1 + b2 = {int(b2) + 2}\n")
        assert captured.out == ""

    def test_file_and_builtin_conflict(self, tmp_path, capsys):
        f = tmp_path / "s.scn"
        f.write_text(BUILTIN_TEXT)
        assert cli.main(["verify", str(f), "--builtin", "glued_Z"]) \
            == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            "input error: give a scenario file or --builtin, not both\n")

    def test_drawn_ids_skip_the_ids_a_file_declares(self, tmp_path, capsys):
        # the blow-down's point is dp2 and the blow-up's event ev2; each
        # used to be a second dp1 / ev1, and config_valid failed
        f = tmp_path / "s.scn"
        f.write_text(DRAWN_IDS_TEXT)
        rc = cli.main(["report", str(f), "--format", "structured"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == cli.EXIT_OK
        for line in ("config.points = 2", "local.dp1 = m 2 j1 1 j2 1",
                     "local.dp2 = m 2 j1 1 j2 1",
                     "verdict.config_valid = pass"):
            assert line in lines
        cfg, _ = parse_scenario(DRAWN_IDS_TEXT).built
        assert (cfg.ids("points"), cfg.ids("events")) == (
            ["dp1", "dp2"], ["ev1", "ev2"])

    def test_surface_id_in_use_is_input_error(self, tmp_path, capsys):
        # used to exit 1 with "stage build: surface id 'L' already in use"
        f = tmp_path / "s.scn"
        f.write_text(EXPLICIT_TEXT.split("[script]")[0]
                     + "[surface L]\ngenus = 0\n\n[script]\n"
                     "blow_up through=C id=L\n")
        assert cli.main(["build", str(f)]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            "input error: line 16: surface id 'L' already in use\n")

    @pytest.mark.parametrize("verb", ["build", "verify", "report"])
    def test_blow_down_of_a_sphere_that_meets_itself(self, tmp_path, capsys,
                                                     verb):
        # the move refuses it by its event; it used to remove the sphere
        # and then report the declared surface S as undefined
        text = (EXPLICIT_TEXT.split("[script]")[0]
                + "[surface S]\ngenus = 0\nself = -2\n\n"
                "[event e]\nbetween = S S\n\n[event f]\nbetween = C S\n\n"
                "[script]\nblow_down sphere=S\n")
        f = tmp_path / "s.scn"
        f.write_text(text)
        assert cli.main([verb, str(f)]) == cli.EXIT_INPUT
        assert capsys.readouterr() == ("", (
            f"input error: line {len(text.splitlines())}: "
            "S meets itself at event e\n"))

    @pytest.mark.parametrize("line, name, kwargs, message", [
        ("blow_up through=C,C", "blow_up", {"through": ["C", "C"]},
         "blow_up names surface 'C' twice"),
        ("resolve t1=A t2=A id=N", "resolve_torus_pair",
         {"t1": "A", "t2": "A", "new_id": "N"},
         "resolve_torus_pair names surface 'A' twice"),
        ("blow_up through=C id=", "blow_up",
         {"through": ["C"], "exceptional_id": ""}, "empty surface id"),
        ("rename old=C new=", "rename", {"old": "C", "new": ""},
         "empty surface id"),
        ("resolve t1=A t2=B id=", "resolve_torus_pair",
         {"t1": "A", "t2": "B", "new_id": ""}, "empty surface id"),
        ("blow_down sphere=S point=", "blow_down_minus2",
         {"sphere": "S", "point_id": ""}, "empty point id"),
    ], ids=["blow_up_twice", "resolve_twice", "blow_up_empty",
            "rename_empty", "resolve_empty", "blow_down_empty"])
    def test_script_line_names_a_surface_once_and_no_empty_id(
            self, tmp_path, capsys, line, name, kwargs, message):
        # the move, called itself, refuses with its message, and the CLI
        # prints that message with the line
        head = (EXPLICIT_TEXT.split("[script]")[0]
                + "[surface A]\ngenus = 1\n\n[surface B]\ngenus = 1\n\n"
                + "[surface S]\ngenus = 0\nself = -2\n\n")
        with pytest.raises(ValueError) as info:
            getattr(surgery, name)(parse_scenario(head).config, **kwargs)
        assert str(info.value) == message
        text = head + "[script]\n" + line + "\n"
        f = tmp_path / "s.scn"
        f.write_text(text)
        assert cli.main(["build", str(f)]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: line {len(text.splitlines())}: {message}\n")

    @pytest.mark.parametrize("script, line, pid", [
        ("blow_down sphere=S point=dp1\n", 40, "dp1"),  # declared
        ("blow_down sphere=S\nblow_down sphere=T point=dp2\n", 41, "dp2"),
    ], ids=["declared", "drawn"])
    def test_point_id_in_use_is_input_error(self, tmp_path, capsys, script,
                                            line, pid):
        # used to exit 1 with "stage build: point id '...' already in use";
        # the first blow_down without point= draws dp2, as dp1 is declared
        f = tmp_path / "s.scn"
        f.write_text(DRAWN_IDS_TEXT.split("[script]")[0]
                     + "[surface T]\ngenus = 0\nself = -2\n\n"
                     + "[event ct]\nbetween = C T\n\n[script]\n" + script)
        assert cli.main(["build", str(f)]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: line {line}: point id {pid!r} already in use\n")

    @pytest.mark.parametrize("second, rc", [
        ("discard id=E", cli.EXIT_OK),
        ("blow_up through=C id=E", cli.EXIT_INPUT)])
    def test_script_ids_carry_across_sections(self, tmp_path, capsys,
                                              second, rc):
        # each [script] section used to start again from the declared ids:
        # the discard was refused as "undefined surface 'E'" (exit 2), and
        # the repeated blow-up failed the build stage (exit 1)
        text = (EXPLICIT_TEXT.split("[script]")[0]
                + "[script]\nblow_up through=C id=E\n\n[script]\n"
                + second + "\n")
        f = tmp_path / "s.scn"
        f.write_text(text)
        assert cli.main(["build", str(f)]) == rc
        captured = capsys.readouterr()
        if rc == cli.EXIT_OK:
            assert captured.err == ""
            assert captured.out.endswith(
                "b2 = 2\npoints = 0\nsurface C: genus 1 mult 1 j 0 self 8\n")
        else:
            assert captured.err == (
                f"input error: line {len(text.splitlines())}: "
                "surface id 'E' already in use\n")

    @pytest.mark.parametrize("multiplicity", [3, 1])
    def test_incident_names_each_surface_once(self, tmp_path, capsys,
                                              multiplicity):
        # incident = C C used to stop verify at local_invariants (exit 1)
        # on a surface of multiplicity 3, and to pass every verdict on one
        # of multiplicity 1
        text = FACTOR_TEXT.replace("incident = C", "incident = C C")
        if multiplicity == 1:
            text = text.replace("multiplicity = 3\nj = 1\n", "")
        f = tmp_path / "s.scn"
        f.write_text(text)
        assert cli.main(["verify", str(f)]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"input error: line {len(text.splitlines())}: incident names "
            "surface 'C' twice\n")

    def test_j_is_read_mod_the_multiplicity(self, tmp_path, capsys):
        # j = -1 at multiplicity 3 built, and then verify stopped with
        # "factorize needs n >= 1, got -1"; it is the residue 2
        outputs = []
        for j in (-1, 2):
            f = tmp_path / f"j{j}.scn"
            f.write_text(FACTOR_TEXT.replace("j = 1", f"j = {j}"))
            rc = cli.main(["report", str(f), "--format", "structured"])
            outputs.append((rc, capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == cli.EXIT_OK

    def test_large_prime_factor_is_refused_at_once(self, tmp_path):
        # verify used to trial-divide the order up to its square root; in
        # a subprocess, so that a hang fails the test
        f = tmp_path / "s.scn"
        f.write_text(FACTOR_TEXT.replace("order = 5", f"order = {BIG_PRIME}"))
        src = Path(orbkit.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-m", "orbkit.cli", "verify", str(f)],
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert (run.returncode, run.stdout) == (cli.EXIT_INPUT, "")
        assert run.stderr == (
            f"input error: line 15: {BIG_PRIME} has no prime factor up to "
            f"1000000 and is above 1000000000000, so it cannot be factored\n")

    def test_enumerate(self, capsys):
        for p in ("3", "11"):
            rc = cli.main(["enumerate", "--prime", p])
            out = capsys.readouterr().out
            assert rc == cli.EXIT_OK
            assert "Complete(index=4)" in out
            assert "Z_2 + Z_2" in out
            # the counters follow the result on one line
            lines = out.splitlines()
            assert lines[-1].startswith("cosets defined: ")
            assert ", coincidences: " in lines[-1]

    def test_enumerate_exhaustion(self, capsys):
        rc = cli.main(["enumerate", "--prime", "3", "--coset-bound", "2"])
        assert rc == cli.EXIT_INCONCLUSIVE

    def test_structured_report_is_deterministic(self, capsys):
        cli.main(["report", "--builtin", "glued_Z", "--prime", "3",
                  "--format", "structured"])
        first = capsys.readouterr().out
        cli.main(["report", "--builtin", "glued_Z", "--prime", "3",
                  "--format", "structured"])
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("orbkit-report v1")

    def test_spin_target_flag(self, capsys):
        rc = cli.main(["verify", "--builtin", "glued_Z", "--prime", "3",
                       "--spin-target", "spin"])
        assert rc == cli.EXIT_OK

    def test_report_human_p2(self, capsys):
        # at p=2 the orbifold group has order 8, so the small-index
        # shortcut cannot certify simple connectivity: honest failure
        rc = cli.main(["report", "--builtin", "glued_Z", "--prime", "2"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_FAIL
        assert "config:\n" in out and "\n  b2: 16\n" in out
        assert "\n  pi1_index_divides_4: fail\n" in out
        # every spin entry at p=2 is spin
        assert "nonspin" not in out

    def test_report_human_p3(self, capsys):
        rc = cli.main(["report", "--builtin", "glued_Z", "--prime", "3"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert ("smale_barden:\n  k: 15\n" in out
                and "\n  t_max: 16\n  c_max: 2\n" in out)
        assert "pi1:\n" in out and "\n  simply_connected: True\n" in out

    @pytest.mark.parametrize("verb", ["build", "verify", "report",
                                      "enumerate"])
    @pytest.mark.parametrize("value", ["1", "0", "4", "-3"])
    def test_prime_must_be_prime(self, verb, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([verb, "--prime", value])
        assert exc.value.code == cli.EXIT_INPUT
        assert f"{value} is not a prime >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["build", "verify", "report"])
    @pytest.mark.parametrize("value", ["1", "0", "-1", "4"])
    def test_scenario_p_must_be_prime(self, verb, value, tmp_path, capsys):
        f = tmp_path / "s.scn"
        f.write_text(BUILTIN_TEXT.replace("p = 3", f"p = {value}"))
        assert cli.main([verb, str(f)]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"input error: line 5: {value} is not a prime >= 2\n"

    @pytest.mark.parametrize("verb", ["build", "verify", "report",
                                      "enumerate"])
    @pytest.mark.parametrize("value", ["101", "1009", str(10 ** 30 + 57)])
    def test_prime_above_the_limit(self, verb, value, tmp_path, capsys):
        # U^(p^3) would be spelled with more than 97^3 letters
        message = (f"{value} is above the largest supported prime, "
                   f"{MAX_PRIME}")
        with pytest.raises(SystemExit) as exc:
            cli.main([verb, "--prime", value])
        assert exc.value.code == cli.EXIT_INPUT
        assert message in capsys.readouterr().err
        if verb != "enumerate":
            f = tmp_path / "s.scn"
            f.write_text(BUILTIN_TEXT.replace("p = 3", f"p = {value}"))
            assert cli.main([verb, str(f)]) == cli.EXIT_INPUT
            assert capsys.readouterr().err == \
                f"input error: line 5: {message}\n"

    def test_largest_prime_is_taken(self):
        assert cli.prime(str(MAX_PRIME)) == MAX_PRIME
        text = BUILTIN_TEXT.replace("p = 3", f"p = {MAX_PRIME}")
        assert parse_scenario(text).builtin == ("glued_Z", MAX_PRIME)

    def test_stage_error_without_message_names_its_type(
            self, monkeypatch, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError()
        monkeypatch.setattr(fpgroup, "coset_enumerate", out_of_memory)
        rc = cli.main(["verify", "--builtin", "glued_Z", "--prime", "3"])
        assert rc == cli.EXIT_FAIL
        err = capsys.readouterr().err
        assert err == "error: stage fundamental_group: MemoryError\n"

    @pytest.mark.parametrize("verb, flag, low", [
        ("verify", "--coset-bound", 1), ("report", "--coset-bound", 1),
        ("enumerate", "--coset-bound", 1)])
    def test_bounds_below_their_minimum(self, verb, flag, low, capsys):
        for value in (str(low - 1), "-5"):
            with pytest.raises(SystemExit) as exc:
                cli.main([verb, flag, value])
            assert exc.value.code == cli.EXIT_INPUT
            assert f"{value} is not an integer >= {low}" \
                in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["build", "verify", "report",
                                      "enumerate"])
    def test_no_max_power_flag(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([verb, "--max-power", "8"])
        assert exc.value.code == cli.EXIT_INPUT
        assert "--max-power" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["build", "verify", "report"])
    @pytest.mark.parametrize("args", [
        ["{file}", "--prime", "5"], ["--builtin", "block_Y", "--prime", "3"],
        ["--builtin", "block_W", "--prime", "3"]])
    def test_prime_applies_to_glued_Z_only(self, verb, args, tmp_path,
                                           capsys):
        f = tmp_path / "s.scn"
        f.write_text(BUILTIN_TEXT)
        rc = cli.main([verb, *(a.format(file=f) for a in args)])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_INPUT and captured.out == ""
        assert captured.err == ("input error: --prime applies to "
                                "--builtin glued_Z only\n")

    @pytest.mark.parametrize("verb", ["verify", "report"])
    @pytest.mark.parametrize("args", [
        ["{file}", "--spin-target", "nonspin"],
        ["--builtin", "block_W", "--spin-target", "spin"]])
    def test_spin_target_applies_to_glued_Z_only(self, verb, args, tmp_path,
                                                 capsys):
        f = tmp_path / "s.scn"
        f.write_text(BUILTIN_TEXT)
        rc = cli.main([verb, *(a.format(file=f) for a in args)])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_INPUT and captured.out == ""
        assert captured.err == ("input error: --spin-target "
                                "applies to --builtin glued_Z only\n")

    def test_glued_Z_prime_defaults_to_3(self, capsys):
        cli.main(["report", "--format", "structured"])
        default = capsys.readouterr().out
        cli.main(["report", "--builtin", "glued_Z", "--prime", "3",
                  "--format", "structured"])
        assert capsys.readouterr().out == default
        assert "scenario = glued_Z p=3" in default


def test_no_background_class_without_spin_target_verdict():
    # m = 4, pairing 2: the scaled Chern class 4c + 2 is never primitive
    cfg = OrbifoldConfig(
        (SurfaceData("D", 1, multiplicity=4, local_j=1, qclass=(1,)),),
        b1=0, b2=1, integral_pairing=IntMatrix.from_rows([[2]]))
    rep = run_pipeline(Scenario(config=cfg, seifert=SeifertRequest()))
    assert ("background_class", "inconclusive") in rep.verdicts
    assert "spin_target" not in dict(rep.verdicts)
    assert rep.exit_code() == cli.EXIT_INCONCLUSIVE


def test_one_lattice_per_pipeline_run(monkeypatch):
    # the unknowns of w2 and the one walk for the four assignments share
    # one Lattice, hence one Smith normal form
    snf_calls = []
    snf = seifert.smith_normal_form
    monkeypatch.setattr(seifert, "smith_normal_form",
                        lambda A: snf_calls.append(A) or snf(A))
    rep = run_pipeline(Scenario(builtin=("glued_Z", 3),
                                seifert=SeifertRequest(spin_target="spin")))
    assert len(rep.spin_entries) == 4
    assert len(snf_calls) == 1


@pytest.mark.parametrize("target, walked", [
    ("spin", 35), ("nonspin", 2), ("any", 1)])
def test_one_class_walk_serves_every_assignment(monkeypatch, target,
                                                walked):
    # the four assignments share one walk, which goes as far as the
    # furthest first hit among them (a walk each would go 41, 5 and 4)
    count = Counter()
    graded = seifert._graded_vectors

    def counted(dim, max_l1):
        for c1B in graded(dim, max_l1):
            count["walked"] += 1
            yield c1B

    monkeypatch.setattr(seifert, "_graded_vectors", counted)
    rep = run_pipeline(Scenario(builtin=("glued_Z", 3),
                                seifert=SeifertRequest(spin_target=target)))
    assert len(rep.spin_entries) == 4
    assert dict(rep.verdicts)["h1_zero"] == "pass"
    assert count["walked"] == walked


def test_one_smale_barden_datum_per_spin_type(monkeypatch):
    # H_2(M) does not depend on c1(B), so the four assignments at p = 3,
    # three nonspin and one spin, need two data
    calls = []
    datum = spin.smale_barden_report
    monkeypatch.setattr(spin, "smale_barden_report",
                        lambda *a: calls.append(a[1]) or datum(*a))
    rep = run_pipeline(Scenario(builtin=("glued_Z", 3)))
    assert sorted(e.is_spin for e in rep.spin_entries) == [False] * 3 + [True]
    assert sorted(calls) == [False, True]


def _counted(monkeypatch, names):
    """Counter of the calls to each surgery function of names.  OpRule
    looks each move up by name, so every script line is counted."""
    calls = Counter()
    for name in names:
        fn = getattr(surgery, name)
        monkeypatch.setattr(surgery, name, lambda *a, _n=name, _f=fn, **k:
                            calls.update([_n]) or _f(*a, **k))
    return calls


def test_each_script_move_runs_once_per_command(tmp_path, monkeypatch,
                                                capsys):
    # the parse runs each line's move and the pipeline reads the
    # configuration it built, so no line runs twice
    text = EXPLICIT_TEXT.split("[surface C]")[0].replace(
        "b2 = 1", "b2 = 3").replace("euler = 3", "euler = 5") + """\
[surface C]
genus = 1
self = 9

[surface U1]
genus = 1

[surface U2]
genus = 1

[event u]
between = U1 U2

[script]
blow_up through=C id=E
blow_up through=E id=F
blow_down sphere=E
resolve t1=U1 t2=U2 id=V
rename old=F new=G
discard id=G
"""
    f = tmp_path / "s.scn"
    f.write_text(text)
    calls = _counted(monkeypatch, [rule.move for rule in SCRIPT_OPS.values()])
    assert cli.main(["report", str(f), "--format", "structured"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert {"scenario = explicit", "surgery.steps = 6"} <= set(out)
    assert calls == {"blow_up": 2, "blow_down_minus2": 1,
                     "resolve_torus_pair": 1, "rename": 1, "discard": 1}


def test_a_builtin_is_built_once_per_scenario(monkeypatch):
    # a Scenario keeps what it built, so a second run reads it again
    calls = _counted(monkeypatch, ["build_Z"])
    scn = Scenario(builtin=("glued_Z", 3))
    first, second = run_pipeline(scn), run_pipeline(scn)
    assert calls == {"build_Z": 1}
    assert emit_report(first, "structured") == emit_report(second,
                                                          "structured")


@pytest.mark.parametrize("verb", ["build", "verify", "report"])
def test_a_builder_that_raises_fails_the_build_stage(monkeypatch, capsys,
                                                     verb):
    # every verb reports a builtin's failed build as its stage, not a
    # traceback
    def fail(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(surgery, "build_block_W", fail)
    assert cli.main([verb, "--builtin", "block_W"]) == 1
    assert capsys.readouterr().err == "error: stage build: MemoryError\n"


# each call a stage of `verify --builtin glued_Z --prime 3` makes, at the
# module attribute the pipeline reads, and the stage it belongs to
STAGE_CALLS = [
    ("orbkit.report.assign_local_invariants", "local_invariants"),
    ("orbkit.report.check_compatibility", "local_invariants"),
    ("orbkit.report.check_even_point_bound", "local_invariants"),
    ("orbkit.spin.spin_decision", "seifert"),
    ("orbkit.seifert.h2_of_M", "seifert"),
    ("orbkit.spin.smale_barden_report", "seifert"),
    ("orbkit.spin.gk_check", "seifert"),
    ("orbkit.fpgroup.coset_enumerate", "fundamental_group"),
    ("orbkit.fpgroup.simply_connected_decision", "fundamental_group"),
]


@pytest.mark.parametrize("target, stage", STAGE_CALLS,
                         ids=[t.rsplit(".", 1)[1] for t, _ in STAGE_CALLS])
def test_a_call_that_raises_fails_its_stage(monkeypatch, capsys, target,
                                             stage):
    # six of these used to escape main as a traceback
    def fail(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(target, fail)
    assert cli.main(["verify", "--builtin", "glued_Z", "--prime", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: stage {stage}: boom\n"
    assert captured.out == ""


@pytest.mark.parametrize("name, p, target", [
    ("block_Y", None, "any"), ("block_W", None, "any"),
    *[("glued_Z", p, target) for p in (2, 3, 5) for target in SPIN_TARGETS]])
def test_h2_of_the_total_space_is_computed_once(monkeypatch, name, p,
                                                target):
    # H_2(M) does not depend on c1(B): one group per configuration, built
    # only where the pipeline reports it
    calls = []
    build = AbelianGroup.from_prime_powers.__func__
    monkeypatch.setattr(AbelianGroup, "from_prime_powers", classmethod(
        lambda cls, *a: calls.append(a) or build(cls, *a)))
    seifert_request = SeifertRequest(spin_target=target) if p else None
    rep = run_pipeline(Scenario(builtin=(name, p), seifert=seifert_request))
    # at p = 2 every total space is spin, so no nonspin class is found
    reported = name == "glued_Z" and (p, target) != (2, "nonspin")
    assert (rep.h2 is not None) == reported
    assert len(calls) == reported


@pytest.mark.parametrize("target", SPIN_TARGETS)
def test_spin_target_search_where_h1_cannot_vanish(target):
    # with b1 = 1 every candidate fails H_1 = 0, on which no spin type is
    # decided: each target ends with the verdicts of "any"
    cfg = replace(surgery.build_Z(3), b1=1)
    rep = run_pipeline(Scenario(config=cfg,
                                seifert=SeifertRequest(spin_target=target)))
    assert rep.verdicts == [("config_valid", "pass"),
                            ("local_invariants_compatible", "pass"),
                            ("h1_zero", "fail")]
    assert rep.exit_code() == cli.EXIT_FAIL


SCRIPT_TEXT = """\
scenario v1

[config]
b1 = 0
b2 = 1
euler = 3

[surface C]
genus = 1
self = 9

[surface L]
genus = 0
self = 1

[surface M]
genus = 0
self = 1

[surface T1]
genus = 1

[surface T2]
genus = 1

[point s]
order = 3
exponents = 1 2
incident = C T1

[event e]
between = L M

[event t]
between = T1 T2

[event c]
between = C T1
at = s

[script]
blow_up through=L,M id=E
blow_up through=E id=F
blow_up through=F id=G
rename old=G new=H
blow_down sphere=F point=q
resolve t1=T1 t2=T2 id=S
discard id=C
blow_up through=S
discard id=E1
"""
# valid files whose sections together use every key and script operation
_FUZZ_SEEDS = (
    BUILTIN_TEXT,
    EXPLICIT_TEXT,
    FULL_TEXT,
    SCRIPT_TEXT,
    "scenario v1\n\n[builtin]\nname = block_Y\n",
)
# integers outside the range of every integer key; each factors at once,
# and none is a prime, so no p can make the pi1 relators large
_BAD_INTS = ("-1", "0", "1", "-7", "4", str(2 ** 64), str(-10 ** 30))
# an integer value, or the bit of a name=bit pair
_INT = re.compile(r"(?<![^\s=])-?\d+(?!\S)")


@st.composite
def _mutated_scenarios(draw):
    """A seed file with one to three lines dropped, duplicated, garbled,
    or with the integers of a 'key = value' line put out of range."""
    lines = draw(st.sampled_from(_FUZZ_SEEDS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        keyed = [i for i, line in enumerate(lines)
                 if re.match(r"\w+ = ", line) and _INT.search(line)]
        kind = draw(st.sampled_from(("drop", "duplicate", "garble",
                                     "integer")))
        if kind == "integer" and keyed:
            k = draw(st.sampled_from(keyed))
            lines[k] = _INT.sub(lambda _: draw(st.sampled_from(_BAD_INTS)),
                                lines[k])
        elif kind == "duplicate":
            lines.insert(k, lines[k])
        elif kind == "garble":
            i = draw(st.integers(0, len(lines[k])))
            lines[k] = (lines[k][:i] + draw(st.text("[]=#,/ x0-", max_size=3))
                        + lines[k][i + draw(st.integers(0, 3)):])
        elif len(lines) > 1:
            del lines[k]
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(text=_mutated_scenarios())
def test_mutated_scenarios_exit_with_one_line(text, tmp_path_factory):
    # every outcome is a verdict or a one-line message: no traceback
    f = tmp_path_factory.getbasetemp() / "fuzz.scn"
    f.write_text(text)
    for verb in ("build", "verify", "report"):
        with redirect_stdout(io.StringIO()), \
                redirect_stderr(io.StringIO()) as stderr:
            rc = cli.main([verb, str(f)])
        err = stderr.getvalue()
        assert rc in (cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_INPUT,
                      cli.EXIT_INCONCLUSIVE)
        assert err.count("\n") <= 1 and "Traceback" not in err


# -- one search budget, --format for report only -------------------------


@pytest.mark.parametrize("verb", ["verify", "report"])
def test_no_search_bound_flag(verb, capsys):
    # the background-class search walks the fixed bound seifert.MAX_L1
    for flag in ("--search-bound", "--max-l1"):
        with pytest.raises(SystemExit) as exc:
            cli.main([verb, flag, "4"])
        assert exc.value.code == cli.EXIT_INPUT
        assert flag in capsys.readouterr().err


def test_format_belongs_to_report(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--builtin", "block_Y", "--format", "structured"])
    assert exc.value.code == cli.EXIT_INPUT
    assert "--format" in capsys.readouterr().err
    rc = cli.main(["report", "--builtin", "block_Y", "--format",
                   "structured"])
    assert rc == cli.EXIT_OK
    assert capsys.readouterr().out.startswith(
        "orbkit-report v1\nscenario = block_Y\n")


# -- an exhausted search leaves the pi_1 stage running ------------------


def test_exhausted_search_still_runs_pi1_at_p2(capsys):
    # every total space over glued_Z at p = 2 is spin, so the nonspin
    # search finds nothing; the pi_1 certificate does not depend on c1(B)
    # and fails there as for the other targets
    rc = cli.main(["verify", "--builtin", "glued_Z", "--prime", "2",
                   "--spin-target", "nonspin"])
    assert rc == cli.EXIT_FAIL
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "background_class: inconclusive", "spin_target: inconclusive",
        "pi1_index_divides_4: fail"]


def test_exhausted_search_still_runs_pi1_at_p3(monkeypatch):
    # only c1(B) = 0 is in range, and it is not primitive at p = 3: the
    # certificate passes, and simply_connected, which needs H_1, is absent
    monkeypatch.setattr(seifert, "MAX_L1", 0)
    rep = run_pipeline(Scenario(builtin=("glued_Z", 3),
                                seifert=SeifertRequest(spin_target="spin")))
    assert [v for v in rep.verdicts if v[0] not in (
        "config_valid", "local_invariants_compatible", "even_point_bound")] \
        == [("background_class", "inconclusive"),
            ("spin_target", "inconclusive"), ("pi1_index_divides_4", "pass")]
    assert rep.pi1_status.index == 4 and rep.simply_connected is None
    assert rep.exit_code() == cli.EXIT_INCONCLUSIVE


@pytest.mark.parametrize("target", SPIN_TARGETS)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_larger_search_bound_changes_no_glued_report(p, target,
                                                      monkeypatch):
    # the fixed bound loses no answer that norm 3 would find: p = 2
    # nonspin has no class at any norm, and p = 3 spin needs norm 2
    def structured():
        scn = Scenario(builtin=("glued_Z", p),
                       seifert=SeifertRequest(spin_target=target))
        return emit_report(run_pipeline(scn), format="structured")

    want = structured()
    monkeypatch.setattr(seifert, "MAX_L1", 3)
    assert structured() == want


# -- an invalid configuration stops at config_valid ---------------------

_INVALID_CONFIG_HEAD = "scenario v1\n\n[config]\nb1 = 0\nb2 = 2\neuler = 4\n\n"
# name -> (scenario text, its one violation); both used to fail the
# local_invariants stage with a message that named neither violation
INVALID_CONFIGS = {
    # the exponent 0 is not a unit mod the order 2
    "exponent": (_INVALID_CONFIG_HEAD
                 + "[surface C]\ngenus = 0\nmultiplicity = 3\nj = 1\n\n"
                 "[point x]\norder = 2\nexponents = 0 1\nincident = C\n",
                 "ExponentNotCoprime at x: gcd(0, 2) != 1"),
    # the point lies on isotropy surfaces of multiplicities 4 and 6
    "coprimality": (_INVALID_CONFIG_HEAD
                    + "[surface A]\ngenus = 0\nmultiplicity = 4\nj = 1\n\n"
                    "[surface B]\ngenus = 0\nmultiplicity = 6\nj = 1\n\n"
                    "[point x]\norder = 5\nexponents = 1 1\n"
                    "incident = A B\n",
                    "CoprimalityViolation at x: incident multiplicities "
                    "4, 6"),
}


@pytest.mark.parametrize("name", sorted(INVALID_CONFIGS))
@pytest.mark.parametrize("seifert_section", ["", "\n[seifert]\nc1B = 0 0\n"],
                         ids=["no_seifert", "seifert"])
def test_invalid_config_stops_at_config_valid(name, seifert_section,
                                              tmp_path, capsys):
    # no later stage runs, since each assumes a valid configuration; with
    # a [seifert] section this used to exit 2 for want of a pairing
    text, violation = INVALID_CONFIGS[name]
    f = tmp_path / "s.scn"
    f.write_text(text + seifert_section)
    assert cli.main(["verify", str(f)]) == cli.EXIT_FAIL
    assert capsys.readouterr() == ("config_valid: fail\n", "")
    assert cli.main(["report", str(f), "--format", "structured"]) \
        == cli.EXIT_FAIL
    out, err = capsys.readouterr()
    assert err == ""
    rows = [line for line in out.splitlines()
            if line.startswith(("verdict.", "violation", "local."))]
    assert rows == ["verdict.config_valid = fail", "violations = 1",
                    f"violation = {violation}"]
    assert cli.main(["build", str(f)]) == cli.EXIT_FAIL
    out, err = capsys.readouterr()
    assert err == "" and out.endswith(f"\nviolation = {violation}\n")


# -- every id names one thing -------------------------------------------

SMOOTH_POINT_TEXT = EXPLICIT_TEXT.split("[script]")[0] + """\
[script]
blow_up through=C id=E
blow_up through=E id=F
blow_down sphere=E point={}
"""


@pytest.mark.parametrize("pid", ["q", "smooth"])
def test_a_point_named_smooth_is_a_point(pid):
    # C and F meet once, at the double point: C.F = 1/2 whatever its
    # name (a point named smooth used to read as a smooth crossing, 1)
    cfg, _ = parse_scenario(SMOOTH_POINT_TEXT.format(pid)).built
    assert [e.location for e in cfg.events] == [pid]
    assert cfg.pairing_of("C", "F") == Fraction(1, 2)
    assert validate_config(cfg) == []


@pytest.mark.parametrize("at, pairing", [
    ("", 1), ("at = smooth\n", Fraction(1, 2))], ids=["no_at", "at_smooth"])
def test_event_at_a_point_named_smooth(at, pairing):
    # an [event] without at is smooth; at = smooth names the point
    text = (EXPLICIT_TEXT.split("[surface C]")[0]
            + "[surface A]\ngenus = 0\n\n[surface B]\ngenus = 0\n\n"
            "[point smooth]\norder = 2\nexponents = 1 1\nincident = A B\n\n"
            "[event e]\nbetween = A B\n" + at)
    cfg = parse_scenario(text).config
    assert cfg.pairing_of("A", "B") == pairing
    assert parse_scenario(emit_scenario(parse_scenario(text))) \
        == parse_scenario(text)


def test_at_smooth_names_a_point(tmp_path, capsys):
    text = (EXPLICIT_TEXT.split("[script]")[0]
            + "[surface L]\ngenus = 0\n\n[event e]\nbetween = C L\n"
            "at = smooth\n")
    f = tmp_path / "s.scn"
    f.write_text(text)
    assert cli.main(["build", str(f)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        f"input error: line {len(text.splitlines())}: undefined point "
        "'smooth'\n")


@pytest.mark.parametrize("added, kind, sid", [
    ("[surface C D]\ngenus = 0\n", "surface", "C D"),
    ("[surface A,B]\ngenus = 0\n", "surface", "A,B"),
    ("[point x\ty]\norder = 2\nexponents = 1 1\n", "point", "x\ty"),
    ("[event e,f]\nbetween = C L\n", "event", "e,f"),
    ("[script]\nblow_up through=C id=A,B\n", "surface", "A,B"),
    ("[script]\nresolve t1=C t2=L id=A,B\n", "surface", "A,B"),
    ("[script]\nrename old=L new=A,B\n", "surface", "A,B"),
    ("[script]\nblow_down sphere=L point=x,y\n", "point", "x,y"),
], ids=["header_space", "header_comma", "point_tab", "event_comma",
        "blow_up_id", "resolve_id", "rename_new", "blow_down_point"])
def test_id_that_later_lines_cannot_name(added, kind, sid, tmp_path,
                                         capsys):
    # [surface A,B] could be named by between = C A,B but read as two
    # surfaces by through=A,B; [surface C D] by nothing at all
    text = (EXPLICIT_TEXT.split("[script]")[0]
            + "[surface L]\ngenus = 0\nself = -2\n\n" + added)
    ln = text.splitlines().index(
        next(x for x in added.splitlines() if sid in x)) + 1
    f = tmp_path / "s.scn"
    f.write_text(text)
    assert cli.main(["build", str(f)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        f"input error: line {ln}: {kind} id {sid!r} contains whitespace, "
        "',' or '#'\n")
