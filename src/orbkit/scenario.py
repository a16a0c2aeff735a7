"""Line-oriented scenario files.

A scenario selects either a named builtin configuration or an explicit
orbifold config plus a surgery script, optionally followed by a Seifert
block choosing the background class and spin handling.  The grammar is
strict: unknown sections or keys are parse errors with line numbers.

Format sketch::

    scenario v1

    [builtin]
    name = glued_Z
    p = 3

    [seifert]
    c1B = search            # or whitespace-separated integers
    spin_target = any       # spin | nonspin | any
    spin_unknowns = a1=0 a2=1   # optional, each unknown of w2 once,
                                # 0 or 1; omitted = sweep all

Only glued_Z takes p.  Explicit form replaces [builtin] with [config]
(b1, b2 and euler, which must equal 2 - 2*b1 + b2, the Euler number
OrbifoldConfig derives) / [surface ID] / [point ID] / [event ID]
sections, each ID passing OrbifoldConfig.check_new_id, the one id rule
(model.py): not empty, no whitespace or ',' (later lines split ids
there), no '#' (a comment starts there) and not in use among its kind.
No id is reserved.  An [event] sits at the declared point its key `at`
names, or, without `at`, at a smooth point.  A point's incident
surfaces are declared surfaces, each named once.
An optional [script] section holds operations, each the surgery move
SCRIPT_OPS names.  A line is what its move does: after every section
is read, each line's move runs once, in file order, on the whole
declared config, and a line the move refuses is a ParseError with the
move's own message.  The configuration and SurgeryLog that run builds
are the scenario's `built`, which the build stage reads; a builtin is
built on first use, and Scenario.built is the one place that turns a
scenario into a configuration.  So the moves (surgery.py) are
the only statement of what a line may name, add and drop; a second
[script] section sees what the first added, and a [surface] declared
after a [script] counts from the start.  What a move adds unnamed gets
the first free id of E1, E2, ... (a blow_up's sphere), dp1, dp2, ...
(a blow_down's point) or ev1, ev2, ... (an intersection event), and a
later line may name such a sphere::

    blow_up through=C id=E
    blow_up through=E,C      # adds E1
    blow_down sphere=E point=s1   # without point=, adds dp1
    resolve t1=U1 t2=U2 id=S
    discard id=E1
    rename old=Lp new=A1
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import surgery
from .exact import PrimalityUnknown, factorize
from .model import (
    IntersectionEvent,
    OrbifoldConfig,
    SingularPointData,
    SurfaceData,
)
from .record import record, replace

BUILTINS = ("block_Y", "block_W", "glued_Z")
SPIN_TARGETS = ("spin", "nonspin", "any")
# the largest isotropy prime taken: the largest that the report digests
# pin
MAX_PRIME = 97


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@record(frozen=True)
class ScriptOp:
    op: str
    args: tuple[tuple[str, str], ...]  # (key, raw value) pairs, ordered


@record(frozen=True)
class SeifertRequest:
    c1B: object = "search"  # "search" or tuple of ints
    spin_target: str = "any"
    spin_unknowns: object = None  # None (sweep) or dict name -> 0/1


@record(frozen=True)
class Scenario:
    builtin: object = None  # (name, p or None)
    config: OrbifoldConfig | None = None
    script: tuple[ScriptOp, ...] = ()
    seifert: SeifertRequest | None = None

    @cached_property
    def built(self) -> tuple[OrbifoldConfig, surgery.SurgeryLog]:
        """(configuration, SurgeryLog) of the scenario, built on first
        use: the builtin's builder, or the script's moves run on the
        declared config.  parse_scenario fills it from the run that
        checks each line, so a parsed file runs its moves once.  Every
        reader gets the same two objects: the configuration is frozen,
        and readers do not change the log."""
        log = surgery.SurgeryLog()
        if self.builtin is None:
            cfg = self.config  # a move returns a new config
            for op in self.script:
                cfg = SCRIPT_OPS[op.op].apply(cfg, op.args, log)
            return cfg, log
        name, p = self.builtin
        if name == "block_Y":
            return surgery.build_block_Y(), log
        if name == "block_W":
            return surgery.build_block_W(log=log), log
        return surgery.build_Z(p, log=log), log


@record(frozen=True)
class OpRule:
    """A [script] op: the surgery move it runs and what its keys mean.
    The move alone says what a line may name, add and drop."""

    move: str  # looked up by name, so that a rebound move is the one run
    keywords: dict  # script key -> the move's keyword, in grammar order
    required: tuple[str, ...]  # in grammar order
    listed: str | None = None  # key whose value is ids joined by commas

    def apply(self, cfg: OrbifoldConfig, args, log=None) -> OrbifoldConfig:
        """The move run on cfg with a line's (key, raw value) pairs."""
        kwargs = {self.keywords[key]: raw.split(",") if key == self.listed
                  else raw for key, raw in args}
        return getattr(surgery, self.move)(cfg, log=log, **kwargs)


SCRIPT_OPS = {
    "blow_up": OpRule("blow_up",
                      {"through": "through", "id": "exceptional_id"},
                      ("through",), listed="through"),
    "blow_down": OpRule("blow_down_minus2",
                        {"sphere": "sphere", "point": "point_id"},
                        ("sphere",)),
    "resolve": OpRule("resolve_torus_pair",
                      {"t1": "t1", "t2": "t2", "id": "new_id"},
                      ("t1", "t2", "id")),
    "discard": OpRule("discard", {"id": "surface"}, ("id",)),
    "rename": OpRule("rename", {"old": "old", "new": "new"}, ("old", "new")),
}


def check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime from 2 to MAX_PRIME."""
    if p > MAX_PRIME:  # before factorize, whose trial division is O(sqrt p)
        raise ValueError(f"{p} is above the largest supported prime, "
                         f"{MAX_PRIME}")
    if p < 2 or factorize(p) != [(p, 1)]:
        raise ValueError(f"{p} is not a prime >= 2")


# the most digits an integer of a scenario file may have.  Python turns
# ints of at most 4,300 digits into text and back, and no number a stage
# derives from the file gets there: m <= 97**16 adds 32 digits to
# m*c1B + o, a blow-down keeps denominators at most 2, and n*d at most
# doubles the digits
MAX_DIGITS = 1000


def _parse_int(raw, ln):
    if len(raw.strip().lstrip("+-")) > MAX_DIGITS:
        raise ParseError(ln, f"integer longer than {MAX_DIGITS} digits")
    try:
        return int(raw)
    except ValueError:
        raise ParseError(ln, f"expected integer, got {raw!r}") from None


def _parse_factored(raw, ln):
    """An integer; one >= 1 that factorize cannot factor is refused, so
    that no later stage stalls on it."""
    n = _parse_int(raw, ln)
    try:
        if n >= 1:
            factorize(n)
    except PrimalityUnknown as exc:
        raise ParseError(ln, str(exc)) from None
    return n


def _parse_fraction(raw, ln):
    """a or a/b, each read by _parse_int: the form emit_scenario writes."""
    num, slash, den = raw.partition("/")
    try:
        return Fraction(_parse_int(num, ln),
                        _parse_int(den, ln) if slash else 1)
    except ZeroDivisionError:
        raise ParseError(ln, f"expected rational, got {raw!r}") from None


def _sections(text: str):
    """[(header, line_no, [(line_no, line)])], comments and blanks dropped."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "scenario v1":
        raise ParseError(1, "file must start with 'scenario v1'")
    out = []
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(ln, "unterminated section header")
            out.append((line[1:-1].strip(), ln, []))
        elif not out:
            raise ParseError(ln, "content before any section header")
        else:
            out[-1][2].append((ln, line))
    return out


def _kv(body, ln_sec, allowed, required):
    """{key: (line_no, value)}; required is a tuple in grammar order, so
    a missing key is reported as the first one missing."""
    seen = {}
    for ln, line in body:
        if "=" not in line:
            raise ParseError(ln, f"expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in allowed:
            raise ParseError(ln, f"unknown key {key!r}")
        if key in seen:
            raise ParseError(ln, f"duplicate key {key!r}")
        seen[key] = (ln, value)
    for key in required:
        if key not in seen:
            raise ParseError(ln_sec, f"missing required key {key!r}")
    return seen


def _read(kv, key, parse, default=None):
    """kv's value of key read by parse(raw, line_no), or default."""
    if key not in kv:
        return default
    ln, raw = kv[key]
    return parse(raw, ln)


# sections whose header names the id of what they add to [config] ->
# the config's field of those records
_ID_SECTIONS = {"surface": "surfaces", "point": "points", "event": "events"}


def _check_surfaces(ids, known, ln):
    for sid in ids:
        if sid not in known:
            raise ParseError(ln, f"undefined surface {sid!r}")


def _at(ln, call, *args):
    """call(*args), anything it raises (what the build stage catches)
    made a ParseError at line ln with its message."""
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - a refused line is bad input
        # a KeyError's str is the repr of its message
        raise ParseError(ln, exc.args[0] if isinstance(exc, KeyError)
                         else str(exc)) from None


def _parse_script_line(ln, line):
    """The ScriptOp of one [script] line, its keys checked; its move is
    run by parse_scenario."""
    op, *chunks = line.split()
    if op not in SCRIPT_OPS:
        raise ParseError(ln, f"unknown operation {op!r}")
    rule = SCRIPT_OPS[op]
    args = {}
    for chunk in chunks:
        if "=" not in chunk:
            raise ParseError(ln, f"expected key=value, got {chunk!r}")
        key, value = chunk.split("=", 1)
        if key not in rule.keywords:
            raise ParseError(ln, f"unknown argument {key!r} for {op}")
        if key in args:
            raise ParseError(ln, f"duplicate argument {key!r}")
        args[key] = value
    for key in rule.required:
        if key not in args:
            raise ParseError(ln, f"{op} requires {key}=")
    return ScriptOp(op, tuple(args.items()))


def parse_scenario(text: str) -> Scenario:
    builtin = None
    config = None
    script_lines: list[tuple[int, str]] = []
    seifert = None

    for header, h_ln, body in _sections(text):
        kind, _, sid = header.partition(" ")
        sid = sid.lstrip()
        if (kind in _ID_SECTIONS) != bool(sid):
            raise ParseError(h_ln, f"unknown section [{header}]")
        if kind in _ID_SECTIONS:
            if config is None:
                raise ParseError(h_ln, f"[{kind}] before [config]")
            _at(h_ln, config.check_new_id, _ID_SECTIONS[kind], sid)
        if kind in ("builtin", "config") and (builtin or config):
            raise ParseError(h_ln, "duplicate or conflicting build section")
        if kind == "builtin":
            kv = _kv(body, h_ln, {"name", "p"}, ("name",))
            name = kv["name"][1]
            if name not in BUILTINS:
                raise ParseError(kv["name"][0],
                                 f"unknown builtin {name!r}; "
                                 f"expected one of {', '.join(BUILTINS)}")
            p = _read(kv, "p", _parse_int)
            if p is not None:
                try:
                    check_prime(p)
                except ValueError as exc:
                    raise ParseError(kv["p"][0], str(exc)) from None
            if name == "glued_Z" and p is None:
                raise ParseError(h_ln, "glued_Z requires p")
            if name != "glued_Z" and p is not None:
                raise ParseError(kv["p"][0], f"{name} takes no p")
            builtin = (name, p)
        elif kind == "config":
            kv = _kv(body, h_ln, {"b1", "b2", "euler"},
                     ("b1", "b2", "euler"))
            config = OrbifoldConfig(b1=_read(kv, "b1", _parse_int),
                                    b2=_read(kv, "b2", _parse_int))
            if _read(kv, "euler", _parse_int) != config.euler:
                raise ParseError(kv["euler"][0],
                                 "euler must equal 2 - 2*b1 + b2 = "
                                 f"{config.euler}")
        elif kind == "surface":
            kv = _kv(body, h_ln,
                     {"genus", "multiplicity", "j", "self"}, ("genus",))
            config = replace(config, surfaces=(*config.surfaces, SurfaceData(
                sid, genus=_read(kv, "genus", _parse_int),
                multiplicity=_read(kv, "multiplicity", _parse_factored, 1),
                local_j=_read(kv, "j", _parse_factored, 0),
                self_intersection=_read(kv, "self", _parse_fraction,
                                        Fraction(0)))))
        elif kind == "point":
            kv = _kv(body, h_ln, {"order", "exponents", "incident"},
                     ("order", "exponents"))
            ln_exps, exps = kv["exponents"]
            if len(exps.split()) != 2:
                raise ParseError(ln_exps, "exponents wants two integers")
            ln, incident = kv.get("incident", (h_ln, ""))
            incident = tuple(incident.split())
            _check_surfaces(incident, config.ids("surfaces"), ln)
            for k, surface in enumerate(incident):
                if surface in incident[:k]:
                    raise ParseError(
                        ln, f"incident names surface {surface!r} twice")
            # exponents are read mod the order, which must be >= 1; order
            # 1 parses, and validation reports it as BadOrder
            order = _read(kv, "order", _parse_factored)
            if order < 1:
                raise ParseError(kv["order"][0],
                                 f"order must be >= 1, got {order}")
            config = replace(config, points=(*config.points, SingularPointData(
                sid, order, tuple(_parse_int(x, ln_exps)
                                  for x in exps.split()), incident)))
        elif kind == "event":
            kv = _kv(body, h_ln, {"between", "at"}, ("between",))
            pair = kv["between"][1].split()
            if len(pair) != 2:
                raise ParseError(kv["between"][0],
                                 "between wants two surface ids")
            _check_surfaces(pair, config.ids("surfaces"), kv["between"][0])
            location = kv["at"][1] if "at" in kv else None
            if location is not None and location not in config.ids("points"):
                raise ParseError(kv["at"][0],
                                 f"undefined point {location!r}")
            config = replace(config, events=(*config.events, IntersectionEvent(
                sid, pair[0], pair[1], location)))
        elif kind == "script":
            if config is None:
                raise ParseError(h_ln, "[script] requires [config]")
            script_lines += body
        elif kind == "seifert":
            if seifert is not None:
                raise ParseError(h_ln, "duplicate [seifert] section")
            kv = _kv(body, h_ln, {"c1B", "spin_target", "spin_unknowns"},
                     ())
            ln, c1b = kv.get("c1B", (h_ln, "search"))
            if c1b != "search":
                c1b = tuple(_parse_int(x, ln) for x in c1b.split())
            ln, target = kv.get("spin_target", (h_ln, "any"))
            if target not in SPIN_TARGETS:
                raise ParseError(ln, "spin_target must be one of "
                                 + ", ".join(SPIN_TARGETS))
            unknowns = _read(kv, "spin_unknowns", _parse_bits)
            seifert = SeifertRequest(c1b, target, unknowns)
        else:
            raise ParseError(h_ln, f"unknown section [{header}]")

    if builtin is None and config is None:
        raise ParseError(1, "scenario needs a [builtin] or [config] section")
    # each line's move runs in file order on the whole declared config,
    # so a line the move refuses is bad input; what the moves build, with
    # their log, is the scenario's built
    script, log, cfg = [], surgery.SurgeryLog(), config
    for ln, line in script_lines:
        op = _parse_script_line(ln, line)
        cfg = _at(ln, SCRIPT_OPS[op.op].apply, cfg, op.args, log)
        script.append(op)
    scn = Scenario(builtin, config, tuple(script), seifert)
    if builtin is None:
        scn.__dict__["built"] = (cfg, log)
    return scn


def _parse_bits(raw, ln):
    """{name: bit} of a spin_unknowns value, each name once."""
    bits = {}
    for chunk in raw.split():
        if "=" not in chunk:
            raise ParseError(ln, f"expected name=bit, got {chunk!r}")
        name, bit = chunk.split("=", 1)
        if name in bits:
            raise ParseError(ln, f"duplicate unknown {name!r}")
        bits[name] = _parse_int(bit, ln)
        if bits[name] not in (0, 1):
            raise ParseError(ln, f"{name} must be 0 or 1, got {bits[name]}")
    return bits


def emit_scenario(s: Scenario) -> str:
    """Scenario back to text; emit + parse is the identity on parses."""
    out = ["scenario v1", ""]
    if s.builtin is not None:
        name, p = s.builtin
        out += ["[builtin]", f"name = {name}"]
        if p is not None:
            out.append(f"p = {p}")
        out.append("")
    if s.config is not None:
        cfg = s.config
        out += ["[config]", f"b1 = {cfg.b1}", f"b2 = {cfg.b2}",
                f"euler = {cfg.euler}", ""]
        for surf in cfg.surfaces:
            out += [f"[surface {surf.id}]", f"genus = {surf.genus}"]
            if surf.multiplicity != 1:
                out.append(f"multiplicity = {surf.multiplicity}")
            if surf.local_j:
                out.append(f"j = {surf.local_j}")
            if surf.self_intersection:
                out.append(f"self = {surf.self_intersection}")
            out.append("")
        for pt in cfg.points:
            out += [f"[point {pt.id}]", f"order = {pt.order}",
                    f"exponents = {pt.exponents[0]} {pt.exponents[1]}"]
            if pt.incident:
                out.append("incident = " + " ".join(pt.incident))
            out.append("")
        for ev in cfg.events:
            out += [f"[event {ev.id}]", f"between = {ev.a} {ev.b}"]
            if ev.location is not None:
                out.append(f"at = {ev.location}")
            out.append("")
    if s.script:
        out += ["[script]", *(op.op + "".join(f" {k}={v}" for k, v in op.args)
                              for op in s.script), ""]
    if s.seifert is not None:
        sf = s.seifert
        c1b = sf.c1B if sf.c1B == "search" else " ".join(map(str, sf.c1B))
        out += ["[seifert]", f"c1B = {c1b}", f"spin_target = {sf.spin_target}"]
        if sf.spin_unknowns is not None:
            out.append("spin_unknowns = " + " ".join(
                f"{k}={v}" for k, v in sorted(sf.spin_unknowns.items())))
        out.append("")
    return "\n".join(out)
