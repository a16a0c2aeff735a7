"""Seeded inputs and expected answers for the benchmark's workloads.

Nothing here imports orbkit.  Every expected answer is worked out from
facts about the shipped configurations stated in this file, or read
from the goldens recorded at the commit that introduced the benchmark,
so a defect in the program cannot also change what it is checked
against.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

WORKLOADS = ("spin_sweep", "pi1_certify", "cli_verify")

GOLDENS = Path(__file__).resolve().parent / "goldens"

# -- spin_sweep ---------------------------------------------------------

# glued_Z: surfaces V1..V16 with multiplicity p^i and local invariant
# j = 1, hence b_i = 1.  The integral basis 2V1, 2V2, V3..V16 pairs
# diagonally against the V's with these signs.
GLUED_Z_DIAG = (1, -1) + (-1,) * 12 + (1, 1)
SPIN_PRIMES = (2, 3)
ASSIGNMENTS = ((0, 0), (0, 1), (1, 0), (1, 1))
SPIN_TRACED_OPS = 96
SPIN_BLOCK = 64  # ops per throughput sample, about a second


def candidate_vectors(dim: int = 16) -> list[tuple[int, ...]]:
    """Background classes with |entry| <= 4 and L1 norm <= 2 (545 at dim 16)."""
    out = [(0,) * dim]
    for i in range(dim):
        for v in (-2, -1, 1, 2):
            out.append(tuple(v if k == i else 0 for k in range(dim)))
    for i in range(dim):
        for j in range(i + 1, dim):
            for a in (-1, 1):
                for b in (-1, 1):
                    out.append(tuple(a if k == i else b if k == j else 0
                                     for k in range(dim)))
    return out


def expected_scaled_chern(p: int, c1B) -> list[int]:
    """m*c1B + sum_i (m/m_i) b_i col_i with m = p^16, m_i = p^i, b_i = 1."""
    m = p ** 16
    return [m * c + p ** (15 - r) * GLUED_Z_DIAG[r] for r, c in enumerate(c1B)]


def expected_spin(p: int, c1B, a1: int, a2: int) -> bool:
    """Spin verdict on glued_Z for one assignment of the unknowns.

    At p = 2 every multiplicity is even, the kernel of the pullback holds
    every surface class and the total space is always spin.  At odd p
    the kernel is spanned by v = c1B + sum_i D_i (mod 2) and w2 of the
    base is (a1, a2, 1, ..., 1), so the class w2 + v lies in the kernel
    exactly when w2 = v, i.e. c1B = (1 - a1, 1 - a2, 0, ..., 0) mod 2.
    """
    if p % 2 == 0:
        return True
    want = (1 - a1, 1 - a2) + (0,) * (len(c1B) - 2)
    return tuple(c % 2 for c in c1B) == want


def _spin_ops(rng: random.Random) -> list[dict]:
    streams = {}
    for p in SPIN_PRIMES:
        cands = candidate_vectors()
        rng.shuffle(cands)
        if p % 2:
            # put one spin witness per assignment first, so that every run
            # sees both verdicts for every assignment
            for k, (a1, a2) in enumerate(ASSIGNMENTS):
                w = next(i for i, c in enumerate(cands)
                         if i >= k and expected_spin(p, c, a1, a2))
                cands.insert(k, cands.pop(w))
        streams[p] = cands
    ops = []
    for pair in zip(*(streams[p] for p in SPIN_PRIMES)):
        for p, c1B in zip(SPIN_PRIMES, pair):
            scaled = expected_scaled_chern(p, c1B)
            ops.append({"p": p, "c1B": list(c1B), "scaled": scaled,
                        "primitive": gcd(*scaled) == 1,
                        "spin": [expected_spin(p, c1B, a1, a2)
                                 for a1, a2 in ASSIGNMENTS]})
    return ops


# -- pi1_certify --------------------------------------------------------

# (prime, max_power): the CLI defaults for p <= 7; p = 11 and 13 at
# max_power 3, since max_power 8 would spell out ~2.1e8 letters.
PI1_OPS = ((2, 8), (3, 8), (5, 8), (7, 8), (11, 3), (13, 3))
COSET_BOUND = 10000
# relator letters an op may need before it is refused (p = 7 needs 6.7e6)
LETTER_CAP = 10_000_000
# passes in the timed cycle, each in its own order, so that which small
# op follows the long p = 7 one changes from pass to pass
PI1_PASSES = 8


def power_relator_letters(p: int, max_power: int) -> int:
    """Letters in the torsion relators g1^p, g2^(p^2), U^(p^i), i = 3..max."""
    return p + p ** 2 + sum(p ** i for i in range(3, max_power + 1))


def _pi1_ops(rng: random.Random) -> list[dict]:
    ops = []
    for p, max_power in PI1_OPS:
        letters = power_relator_letters(p, max_power)
        if letters > LETTER_CAP:
            raise ValueError(f"pi1 op p={p} max_power={max_power} needs "
                             f"{letters} relator letters (cap {LETTER_CAP})")
        # the orbifold group has order 8 at p = 2 and 4 at odd p; its
        # abelianization is Z_2 + Z_2 for every p
        ops.append({"p": p, "max_power": max_power,
                    "coset_bound": COSET_BOUND,
                    "index": 8 if p == 2 else 4,
                    "abelian": [0, [2, 2]]})
    passes = []
    for _ in range(PI1_PASSES):
        rng.shuffle(ops)
        passes += ops
    return passes


# -- cli_verify ---------------------------------------------------------

SCENARIOS_PER_RUN = 9


def builtin_commands() -> list[tuple[str, list[str], int]]:
    """(golden name, argv, expected exit) for the builtin commands.

    verify/report of glued_Z at p = 2 exit 1 by design: the orbifold
    group has order 8 there, so the index-divides-4 certificate fails.
    """
    inputs = [("block_Y", ["--builtin", "block_Y"], 0),
              ("block_W", ["--builtin", "block_W"], 0),
              ("glued_Z_p2", ["--builtin", "glued_Z", "--prime", "2"], 1),
              ("glued_Z_p3", ["--builtin", "glued_Z", "--prime", "3"], 0)]
    out = []
    for name, args, code in inputs:
        out.append((f"build_{name}", ["build", *args], 0))
        out.append((f"verify_{name}", ["verify", *args], code))
        out.append((f"report_{name}",
                    ["report", *args, "--format", "structured"], code))
    for target in ("spin", "nonspin"):
        args = ["--builtin", "glued_Z", "--prime", "3",
                "--spin-target", target]
        out.append((f"verify_glued_Z_p3_{target}", ["verify", *args], 0))
        out.append((f"report_glued_Z_p3_{target}",
                    ["report", *args, "--format", "structured"], 0))
    return out


# the enumerate command is checked by its verdict lines, not byte for
# byte: its relator count is an implementation detail
ENUMERATE = (["enumerate", "--prime", "3"], 0,
             ["abelianization: Z_2 + Z_2",
              "coset enumeration: Complete(index=4)"])


class ScriptedConfig:
    """The benchmark's own bookkeeping of a configuration under surgery.

    Blow-up adds a (-1)-sphere, lowers each surface it passes through by
    one and raises euler and b2 by one; blowing down a (-2)-sphere adds
    an order-2 point on its neighbours, raises each neighbour by 1/2 and
    lowers euler and b2 by one; rename and discard change no number.
    """

    def __init__(self):
        self.euler, self.b1, self.b2 = 3, 0, 1
        # the projective plane with a cubic C and two lines L, Lp
        self.surfaces = [["C", 1, Fraction(9)], ["L", 0, Fraction(1)],
                         ["Lp", 0, Fraction(1)]]
        self.events = ([["C", "L", None] for _ in range(3)]
                       + [["C", "Lp", None] for _ in range(3)]
                       + [["L", "Lp", None]])
        self.points: list[list] = []  # [point id, incident surface ids]
        self.log: list[tuple[str, tuple, tuple]] = []
        self.script: list[str] = []
        self._fresh = 0
        self.header = self._config_text()

    def _config_text(self) -> list[str]:
        out = ["scenario v1", "", "[config]", f"b1 = {self.b1}",
               f"b2 = {self.b2}", f"euler = {self.euler}", ""]
        for sid, genus, sq in self.surfaces:
            out += [f"[surface {sid}]", f"genus = {genus}", f"self = {sq}", ""]
        for k, (a, b, _) in enumerate(self.events):
            out += [f"[event e{k}]", f"between = {a} {b}", ""]
        return out

    def fresh(self, prefix: str) -> str:
        self._fresh += 1
        return f"{prefix}{self._fresh}"

    def surface(self, sid):
        return next(s for s in self.surfaces if s[0] == sid)

    def _record(self, op, line, before):
        self.script.append(line)
        self.log.append((op, before, self.numbers()))

    def numbers(self):
        return (self.euler, self.b1, self.b2)

    def blow_up(self, through: list[str]) -> str:
        before = self.numbers()
        if len(through) == 2:
            a, b = through
            ev = next(e for e in self.events
                      if {e[0], e[1]} == {a, b} and e[2] is None)
            self.events.remove(ev)
        eid = self.fresh("E")
        for sid in through:
            self.surface(sid)[2] -= 1
            self.events.append([sid, eid, None])
        self.surfaces.append([eid, 0, Fraction(-1)])
        self.euler += 1
        self.b2 += 1
        self._record("blow_up", f"blow_up through={','.join(through)} "
                                f"id={eid}", before)
        return eid

    def neighbours(self, sid):
        return [e[1] if e[0] == sid else e[0] for e in self.events
                if sid in e[:2]]

    def blow_down(self, sid: str) -> None:
        before = self.numbers()
        near = self.neighbours(sid)
        pid = self.fresh("q")
        self.surfaces.remove(self.surface(sid))
        self.events = [e for e in self.events if sid not in e[:2]]
        for n in near:
            self.surface(n)[2] += Fraction(1, 2)
        if len(near) == 2:
            self.events.append([near[0], near[1], pid])
        self.points.append([pid, near])
        self.euler -= 1
        self.b2 -= 1
        self._record("blow_down_minus2",
                     f"blow_down sphere={sid} point={pid}", before)

    def rename(self, old: str) -> None:
        before = self.numbers()
        new = self.fresh("R")
        self.surface(old)[0] = new
        for e in self.events:
            e[0] = new if e[0] == old else e[0]
            e[1] = new if e[1] == old else e[1]
        for pt in self.points:
            pt[1] = [new if s == old else s for s in pt[1]]
        self._record("rename", f"rename old={old} new={new}", before)

    def discard(self, sid: str) -> None:
        before = self.numbers()
        self.surfaces.remove(self.surface(sid))
        self.events = [e for e in self.events if sid not in e[:2]]
        for pt in self.points:
            pt[1] = [s for s in pt[1] if s != sid]
        self._record("discard", f"discard id={sid}", before)

    # -- expected CLI output --------------------------------------------

    def text(self) -> str:
        return "\n".join(self.header + ["[script]"] + self.script) + "\n"

    def build_output(self) -> str:
        lines = [f"euler = {self.euler}", f"b1 = {self.b1}",
                 f"b2 = {self.b2}", f"points = {len(self.points)}"]
        lines += [f"surface {sid}: genus {g} mult 1 j 0 self {sq}"
                  for sid, g, sq in self.surfaces]
        return "\n".join(lines) + "\n"

    def verify_output(self) -> str:
        return "config_valid: pass\nlocal_invariants_compatible: pass\n"

    def report_output(self) -> str:
        lines = ["orbkit-report v1", "scenario = explicit",
                 f"config.euler = {self.euler}", f"config.b1 = {self.b1}",
                 f"config.b2 = {self.b2}",
                 f"config.points = {len(self.points)}"]
        lines += [f"surface.{sid} = genus {g} mult 1 j 0 self {sq}"
                  for sid, g, sq in self.surfaces]
        # an order-2 point on surfaces of multiplicity 1 keeps (2, 1, 1)
        lines += [f"local.{pid} = m 2 j1 1 j2 1" for pid, _ in sorted(self.points)]
        lines += ["verdict.config_valid = pass",
                  "verdict.local_invariants_compatible = pass",
                  "violations = 0", f"surgery.steps = {len(self.log)}"]
        lines += [f"surgery.step = {op} {before} -> {after}"
                  for op, before, after in self.log]
        return "\n".join(lines) + "\n"


def scripted_config(rng: random.Random) -> ScriptedConfig:
    """A seeded surgery script: blow-up chains, (-2) blow-downs, renames
    and discards on the projective plane with a cubic and two lines."""
    cfg = ScriptedConfig()
    for _ in range(rng.randint(4, 7)):
        move = rng.choice(("chain", "chain", "pair", "single", "rename",
                           "discard"))
        live = [s[0] for s in cfg.surfaces]
        if move == "chain":
            # blowing up a point of a fresh (-1)-sphere makes it a
            # (-2)-sphere meeting two surfaces once each
            first = cfg.blow_up([rng.choice(live)])
            cfg.blow_up([first])
            if rng.random() < 0.75:
                cfg.blow_down(first)
        elif move == "pair":
            pairs = sorted({tuple(sorted(e[:2])) for e in cfg.events
                            if e[2] is None})
            if pairs:
                cfg.blow_up(list(rng.choice(pairs)))
        elif move == "single":
            cfg.blow_up([rng.choice(live)])
        elif move == "rename":
            cfg.rename(rng.choice(live))
        elif len(live) > 3:
            cfg.discard(rng.choice([s for s in live if s[0] in "ER"]
                                   or live))
    return cfg


def _cli_ops(rng: random.Random, scenario_dir: Path) -> list[dict]:
    ops = []
    for name, argv, code in builtin_commands():
        ops.append({"argv": argv, "exit": code,
                    "stdout": (GOLDENS / f"{name}.out").read_text(
                        encoding="utf-8")})
    argv, code, lines = ENUMERATE
    ops.append({"argv": argv, "exit": code, "lines": lines})
    scenario_dir.mkdir(parents=True, exist_ok=True)
    for k in range(SCENARIOS_PER_RUN):
        cfg = scripted_config(rng)
        path = scenario_dir / f"scenario{k}.scn"
        path.write_text(cfg.text(), encoding="utf-8")
        rel = path.as_posix()
        # the file's text rides along so the input digest covers it
        ops.append({"argv": ["build", rel], "exit": 0,
                    "stdout": cfg.build_output(), "scenario": cfg.text()})
        ops.append({"argv": ["verify", rel], "exit": 0,
                    "stdout": cfg.verify_output()})
        ops.append({"argv": ["report", rel, "--format", "structured"],
                    "exit": 0, "stdout": cfg.report_output()})
    rng.shuffle(ops)
    return ops


# -- all workloads ------------------------------------------------------


def make_inputs(workload: str, seed: int, out_dir: Path) -> dict:
    """Inputs for one run: the timed op cycle, the fixed traced op list,
    the ops per block (a whole pass where ops differ in cost; a timed run
    stops only between blocks) and a digest of everything generated."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "spin_sweep":
        ops = _spin_ops(rng)
        inputs = {"ops": ops, "traced": ops[:SPIN_TRACED_OPS],
                  "block": SPIN_BLOCK}
    elif workload == "pi1_certify":
        ops = _pi1_ops(rng)
        inputs = {"ops": ops, "traced": ops[:len(PI1_OPS)],
                  "block": len(PI1_OPS)}
    elif workload == "cli_verify":
        ops = _cli_ops(rng, out_dir / "scenarios")
        inputs = {"ops": ops, "traced": ops, "block": len(ops)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    inputs["workload"] = workload
    inputs["seed"] = seed
    blob = json.dumps(inputs, sort_keys=True).encode()
    inputs["digest"] = hashlib.sha256(blob).hexdigest()
    return inputs
