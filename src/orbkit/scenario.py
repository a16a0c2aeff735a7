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

Explicit form replaces [builtin] with [config] / [surface ID] /
[point ID] / [event ID] sections and an optional [script] section whose
lines are operations, each the surgery move SCRIPT_OPS names::

    blow_up through=C,L id=E
    blow_down sphere=E point=s1
    resolve t1=U1 t2=U2 id=S
    discard id=Ep
    rename old=Lp new=A1
"""

from __future__ import annotations

from fractions import Fraction

from .exact import factorize
from .model import (
    SMOOTH,
    IntersectionEvent,
    OrbifoldConfig,
    SingularPointData,
    SurfaceData,
)
from .record import field, record

BUILTINS = ("block_Y", "block_W", "glued_Z")
SPIN_TARGETS = ("spin", "nonspin", "any")
# the largest isotropy prime taken: the pi_1 presentation of glued_Z
# spells U^(p^3) letter by letter, 912,673 letters at p = 97
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
    b_residues: str = "auto"
    c1B: object = "search"  # "search" or tuple of ints
    spin_target: str = "any"
    spin_unknowns: object = None  # None (sweep) or dict name -> 0/1


@record(frozen=True)
class Scenario:
    builtin: object = None  # (name, p or None)
    config: OrbifoldConfig | None = None
    script: tuple[ScriptOp, ...] = ()
    seifert: SeifertRequest | None = None


# script op -> (surgery move, {script key: the move's keyword}, required
# keys in grammar order); through= lists surface ids joined by commas
SCRIPT_OPS = {
    "blow_up": ("blow_up", {"through": "through", "id": "exceptional_id"},
                ("through",)),
    "blow_down": ("blow_down_minus2",
                  {"sphere": "sphere", "point": "point_id"}, ("sphere",)),
    "resolve": ("resolve_torus_pair",
                {"t1": "t1", "t2": "t2", "id": "new_id"}, ("t1", "t2", "id")),
    "discard": ("discard", {"id": "surface"}, ("id",)),
    "rename": ("rename", {"old": "old", "new": "new"}, ("old", "new")),
}


def check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime from 2 to MAX_PRIME."""
    if p > MAX_PRIME:  # before factorize, whose trial division is O(sqrt p)
        raise ValueError(f"{p} is above the largest supported prime, "
                         f"{MAX_PRIME}")
    if p < 2 or factorize(p) != [(p, 1)]:
        raise ValueError(f"{p} is not a prime >= 2")


def _parse_int(raw, ln):
    try:
        return int(raw)
    except ValueError:
        raise ParseError(ln, f"expected integer, got {raw!r}") from None


def _parse_fraction(raw, ln):
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ParseError(ln, f"expected rational, got {raw!r}") from None


def _sections(text: str):
    """Yield (header, header_line_no, [(line_no, key_or_raw, value)])."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "scenario v1":
        raise ParseError(1, "file must start with 'scenario v1'")
    header = None
    h_ln = 0
    body: list = []
    out = []
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.lstrip().startswith("["):
            stripped = line.strip()
            if not stripped.endswith("]"):
                raise ParseError(ln, "unterminated section header")
            if header is not None:
                out.append((header, h_ln, body))
            header, h_ln, body = stripped[1:-1].strip(), ln, []
        else:
            if header is None:
                raise ParseError(ln, "content before any section header")
            body.append((ln, line.strip()))
    if header is not None:
        out.append((header, h_ln, body))
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


def parse_scenario(text: str) -> Scenario:
    builtin = None
    config = None
    script: list[ScriptOp] = []
    seifert = None
    config_ln = None

    for header, h_ln, body in _sections(text):
        if header == "builtin":
            if builtin or config:
                raise ParseError(h_ln, "duplicate or conflicting build section")
            kv = _kv(body, h_ln, {"name", "p"}, ("name",))
            name = kv["name"][1]
            if name not in BUILTINS:
                raise ParseError(kv["name"][0],
                                 f"unknown builtin {name!r}; "
                                 f"expected one of {', '.join(BUILTINS)}")
            p = None
            if "p" in kv:
                p = _parse_int(kv["p"][1], kv["p"][0])
                try:
                    check_prime(p)
                except ValueError as exc:
                    raise ParseError(kv["p"][0], str(exc)) from None
            if name == "glued_Z" and p is None:
                raise ParseError(h_ln, "glued_Z requires p")
            builtin = (name, p)
        elif header == "config":
            if builtin or config:
                raise ParseError(h_ln, "duplicate or conflicting build section")
            kv = _kv(body, h_ln, {"b1", "b2", "euler"},
                     ("b1", "b2", "euler"))
            config = OrbifoldConfig(
                b1=_parse_int(kv["b1"][1], kv["b1"][0]),
                b2=_parse_int(kv["b2"][1], kv["b2"][0]),
                euler=_parse_int(kv["euler"][1], kv["euler"][0]))
            config_ln = h_ln
        elif header.startswith("surface "):
            if config is None:
                raise ParseError(h_ln, "[surface] before [config]")
            sid = header.split(None, 1)[1]
            kv = _kv(body, h_ln,
                     {"genus", "multiplicity", "j", "self"}, ("genus",))
            config.surfaces.append(SurfaceData(
                sid,
                genus=_parse_int(kv["genus"][1], kv["genus"][0]),
                multiplicity=_parse_int(*reversed(kv["multiplicity"]))
                if "multiplicity" in kv else 1,
                local_j=_parse_int(*reversed(kv["j"])) if "j" in kv else 0,
                self_intersection=_parse_fraction(*reversed(kv["self"]))
                if "self" in kv else Fraction(0)))
        elif header.startswith("point "):
            if config is None:
                raise ParseError(h_ln, "[point] before [config]")
            pid = header.split(None, 1)[1]
            kv = _kv(body, h_ln, {"order", "exponents", "incident"},
                     ("order", "exponents"))
            exps = kv["exponents"][1].split()
            if len(exps) != 2:
                raise ParseError(kv["exponents"][0],
                                 "exponents wants two integers")
            incident = tuple(kv["incident"][1].split()) \
                if "incident" in kv else ()
            for sid in incident:
                if not config.has_surface(sid):
                    raise ParseError(kv["incident"][0],
                                     f"undefined surface {sid!r}")
            # exponents are read mod the order, which must be >= 1; order
            # 1 parses, and validation reports it as BadOrder
            order = _parse_int(kv["order"][1], kv["order"][0])
            if order < 1:
                raise ParseError(kv["order"][0],
                                 f"order must be >= 1, got {order}")
            config.points.append(SingularPointData(
                pid, order,
                (_parse_int(exps[0], kv["exponents"][0]),
                 _parse_int(exps[1], kv["exponents"][0])), incident))
        elif header.startswith("event "):
            if config is None:
                raise ParseError(h_ln, "[event] before [config]")
            eid = header.split(None, 1)[1]
            kv = _kv(body, h_ln, {"between", "at"}, ("between",))
            pair = kv["between"][1].split()
            if len(pair) != 2:
                raise ParseError(kv["between"][0],
                                 "between wants two surface ids")
            for sid in pair:
                if not config.has_surface(sid):
                    raise ParseError(kv["between"][0],
                                     f"undefined surface {sid!r}")
            location = kv["at"][1] if "at" in kv else SMOOTH
            if location != SMOOTH and all(p.id != location
                                          for p in config.points):
                raise ParseError(kv["at"][0],
                                 f"undefined point {location!r}")
            config.events.append(
                IntersectionEvent(eid, pair[0], pair[1], location))
        elif header == "script":
            if config is None:
                raise ParseError(h_ln, "[script] requires [config]")
            known = {s.id for s in config.surfaces}
            for ln, line in body:
                parts = line.split()
                op = parts[0]
                if op not in SCRIPT_OPS:
                    raise ParseError(ln, f"unknown operation {op!r}")
                _, keywords, required = SCRIPT_OPS[op]
                args = []
                seen = set()
                for chunk in parts[1:]:
                    if "=" not in chunk:
                        raise ParseError(ln, f"expected key=value, "
                                             f"got {chunk!r}")
                    key, value = chunk.split("=", 1)
                    if key not in keywords:
                        raise ParseError(ln, f"unknown argument {key!r} "
                                             f"for {op}")
                    if key in seen:
                        raise ParseError(ln, f"duplicate argument {key!r}")
                    seen.add(key)
                    args.append((key, value))
                for key in required:
                    if key not in seen:
                        raise ParseError(ln, f"{op} requires {key}=")
                argd = dict(args)
                refs = {"blow_up": lambda: argd["through"].split(","),
                        "blow_down": lambda: [argd["sphere"]],
                        "resolve": lambda: [argd["t1"], argd["t2"]],
                        "discard": lambda: [argd["id"]],
                        "rename": lambda: [argd["old"]]}[op]()
                for sid in refs:
                    if sid not in known:
                        raise ParseError(ln, f"undefined surface {sid!r}")
                if op == "blow_up" and "id" in argd:
                    known.add(argd["id"])
                elif op == "resolve":
                    known.add(argd["id"])
                elif op == "rename":
                    known.discard(argd["old"])
                    known.add(argd["new"])
                elif op == "discard":
                    known.discard(argd["id"])
                elif op == "blow_down":
                    known.discard(argd["sphere"])
                script.append(ScriptOp(op, tuple(args)))
        elif header == "seifert":
            if seifert is not None:
                raise ParseError(h_ln, "duplicate [seifert] section")
            kv = _kv(body, h_ln,
                     {"b_residues", "c1B", "spin_target", "spin_unknowns"},
                     ())
            b_res = kv["b_residues"][1] if "b_residues" in kv else "auto"
            if b_res != "auto":
                raise ParseError(kv["b_residues"][0],
                                 "only b_residues = auto is supported")
            c1b = "search"
            if "c1B" in kv and kv["c1B"][1] != "search":
                c1b = tuple(_parse_int(x, kv["c1B"][0])
                            for x in kv["c1B"][1].split())
            target = kv["spin_target"][1] if "spin_target" in kv else "any"
            if target not in SPIN_TARGETS:
                raise ParseError(kv["spin_target"][0],
                                 f"spin_target must be one of "
                                 f"{', '.join(SPIN_TARGETS)}")
            unknowns = None
            if "spin_unknowns" in kv:
                unknowns = {}
                for chunk in kv["spin_unknowns"][1].split():
                    if "=" not in chunk:
                        raise ParseError(kv["spin_unknowns"][0],
                                         f"expected name=bit, got {chunk!r}")
                    name, bit = chunk.split("=", 1)
                    if name in unknowns:
                        raise ParseError(kv["spin_unknowns"][0],
                                         f"duplicate unknown {name!r}")
                    unknowns[name] = _parse_int(bit, kv["spin_unknowns"][0])
                    if unknowns[name] not in (0, 1):
                        raise ParseError(kv["spin_unknowns"][0],
                                         f"{name} must be 0 or 1, got "
                                         f"{unknowns[name]}")
            seifert = SeifertRequest(b_res, c1b, target, unknowns)
        else:
            raise ParseError(h_ln, f"unknown section [{header}]")

    if builtin is None and config is None:
        raise ParseError(1, "scenario needs a [builtin] or [config] section")
    return Scenario(builtin=builtin, config=config,
                    script=tuple(script), seifert=seifert)


def emit_scenario(s: Scenario) -> str:
    """Scenario back to text; emit + parse is the identity on parses."""
    out = ["scenario v1", ""]
    if s.builtin is not None:
        name, p = s.builtin
        out.append("[builtin]")
        out.append(f"name = {name}")
        if p is not None:
            out.append(f"p = {p}")
        out.append("")
    if s.config is not None:
        cfg = s.config
        out += ["[config]", f"b1 = {cfg.b1}", f"b2 = {cfg.b2}",
                f"euler = {cfg.euler}", ""]
        for surf in cfg.surfaces:
            out.append(f"[surface {surf.id}]")
            out.append(f"genus = {surf.genus}")
            if surf.multiplicity != 1:
                out.append(f"multiplicity = {surf.multiplicity}")
            if surf.local_j:
                out.append(f"j = {surf.local_j}")
            if surf.self_intersection:
                out.append(f"self = {surf.self_intersection}")
            out.append("")
        for pt in cfg.points:
            out.append(f"[point {pt.id}]")
            out.append(f"order = {pt.order}")
            out.append(f"exponents = {pt.exponents[0]} {pt.exponents[1]}")
            if pt.incident:
                out.append("incident = " + " ".join(pt.incident))
            out.append("")
        for ev in cfg.events:
            out.append(f"[event {ev.id}]")
            out.append(f"between = {ev.a} {ev.b}")
            if ev.location != SMOOTH:
                out.append(f"at = {ev.location}")
            out.append("")
    if s.script:
        out.append("[script]")
        for op in s.script:
            out.append(op.op + "".join(f" {k}={v}" for k, v in op.args))
        out.append("")
    if s.seifert is not None:
        sf = s.seifert
        out.append("[seifert]")
        out.append(f"b_residues = {sf.b_residues}")
        if sf.c1B == "search":
            out.append("c1B = search")
        else:
            out.append("c1B = " + " ".join(str(x) for x in sf.c1B))
        out.append(f"spin_target = {sf.spin_target}")
        if sf.spin_unknowns is not None:
            out.append("spin_unknowns = " + " ".join(
                f"{k}={v}" for k, v in sorted(sf.spin_unknowns.items())))
        out.append("")
    return "\n".join(out)
