"""Output checker: every command's exit code and stdout against closed forms,
the brute-force oracle, certificate checks on the vertex sets, and pinned
per-command digests for the default seed.
"""

from __future__ import annotations

import hashlib

from quasitoric.positivity import BRUTE_FORCE_MAX_FACETS, brute_force_decide

# keys each subcommand must print; values are compared where a fact is known
REQUIRED = {
    "validate": ("valid", "dim", "facets", "vertices", "f_vector", "h_vector"),
    "decide": ("decision",),
    "invariants": ("euler", "chern_top"),
    "report": ("dim", "facets", "vertices", "f_vector", "h_vector", "decision",
               "positive_count", "euler", "chern_top"),
}
SURFACE_KEYS = ("signature", "todd", "almost_complex_4d")


def _key_value(line: str) -> tuple[str, str]:
    if " = " in line:
        key, value = line.split(" = ", 1)
        return key, value
    if line in ("SAT", "UNSAT"):
        return "decision", line
    key, _, value = line.partition(" ")
    return key, value


def parse_output(text: str):
    """Output lines as {key: value} plus the list of fixed-point signs.

    Returns None when a key repeats, which no correct output does.
    """
    facts: dict[str, str] = {}
    signs = []
    for line in text.splitlines():
        if line.startswith("vertex ") and " : " in line:
            signs.append(line.rsplit(" : ", 1)[1])
            continue
        key, value = _key_value(line)
        if key in facts:
            return None
        facts[key] = value
    return facts, signs


def digest(rc: int, out: str) -> str:
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()[:16]


def add_oracle(commands) -> None:
    """Add the brute-force decision, count and certificate to every pair with
    few facets that some report prints; elsewhere the decision has a closed
    form."""
    done = set()
    for cmd in commands:
        item = cmd.item
        if (cmd.argv[0] != "report" or id(item) in done
                or item.pair.polytope.num_facets > BRUTE_FORCE_MAX_FACETS):
            continue
        done.add(id(item))
        brute = brute_force_decide(item.pair)
        decision = "SAT" if brute.satisfiable else "UNSAT"
        if item.facts.get("decision", {decision}) != {decision}:
            raise AssertionError(f"{item.label}: closed form and oracle disagree")
        item.facts["decision"] = {decision}
        item.facts["positive_count"] = {str(brute.count)}
        if brute.satisfiable:
            item.known_positive, item.known_exact = brute.certificate, True


def _mask(omni) -> int:
    """An omniorientation as a GF(2) vector: bit 0 for the global sign, bit
    1 + j for facet j, set where the sign is -1."""
    signs = (omni.global_sign, *omni.facet_signs)
    return sum(1 << i for i, s in enumerate(signs) if s == -1)


def _certificate_checked(item, key: str) -> bool:
    return key == "witness" or (key == "omniorientation" and item.known_positive is not None)


def _certificate_problem(item, key: str, value: str) -> str | None:
    """Check a certificate line against the pair's vertex sets alone.

    An omniorientation is positive iff, as a GF(2) vector, it differs from a
    known positive one by a solution of x0 + sum_{j in v} x_j = 0 for every
    vertex v. Where the known one is positive only up to its global sign
    (toric pairs), the difference may instead give 1 on every vertex. A
    witness must list distinct vertices, an even number of them, meeting
    every facet an even number of times.
    """
    poly = item.pair.polytope
    tokens = value.split()
    if key == "omniorientation":
        if len(tokens) != poly.num_facets + 1 or any(t not in ("+1", "-1") for t in tokens):
            return "malformed omniorientation"
        diff = sum(1 << i for i, t in enumerate(tokens) if t == "-1") ^ _mask(item.known_positive)
        rows = {((diff & 1) + sum((diff >> (1 + j)) & 1 for j in v)) % 2 for v in poly.vertices}
        if rows == {0} or (not item.known_exact and rows == {1}):
            return None
        return "omniorientation is not positive"
    if not all(t.isdigit() for t in tokens):
        return "malformed witness"
    witness = [int(t) for t in tokens]
    if len(set(witness)) != len(witness) or len(witness) % 2 or any(
            w >= poly.num_vertices for w in witness):
        return "witness is not an even set of vertices"
    hits = [0] * poly.num_facets
    for w in witness:
        for j in poly.vertices[w]:
            hits[j] += 1
    if any(h % 2 for h in hits):
        return "witness meets a facet an odd number of times"
    return None


def problems(cmd, rc, out: str) -> list[str]:
    """What is wrong with one command's result; empty when it is correct."""
    sub = cmd.argv[0]
    item = cmd.item
    facts = item.facts
    parsed = parse_output(out)
    if parsed is None:
        return ["a key is printed twice"]
    got, signs = parsed
    found = []
    required = REQUIRED[sub]
    if "signature" in facts and sub in ("invariants", "report"):
        required += SURFACE_KEYS
    for key in required:
        if key not in got:
            found.append(f"missing {key}")
        elif key in facts and got[key] not in facts[key]:
            found.append(f"{key} = {got[key]!r}, expected one of {sorted(facts[key])}")
    decision = got.get("decision")
    if decision is not None:
        want_rc = 0 if decision == "SAT" else 1
        cert = "omniorientation" if decision == "SAT" else "witness"
        if sub in ("decide", "report"):
            if cert not in got:
                found.append(f"{decision} without its certificate line")
            elif _certificate_checked(item, cert):
                problem = _certificate_problem(item, cert, got[cert])
                if problem:
                    found.append(problem)
    else:
        want_rc = 0
    if rc != want_rc:
        found.append(f"exit code {rc}, expected {want_rc}")
    if sub == "report":
        if len(signs) != int(next(iter(facts["vertices"]))):
            found.append(f"{len(signs)} sign lines")
        if item.uniform_signs and len(set(signs)) != 1:
            found.append("fixed-point signs differ")
    return found


def corruptions_caught(cmd, rc, out: str) -> bool:
    """True if altering any one checked line of a correct output is reported
    as a problem by the checks above alone, and at least one line is checked.
    A value gets a digit appended; an omniorientation gets its last sign
    flipped."""
    lines = out.splitlines(keepends=True)
    tried = 0
    for i, line in enumerate(lines):
        key = _key_value(line.rstrip("\n"))[0]
        if key not in cmd.item.facts and not _certificate_checked(cmd.item, key):
            continue
        if key == "omniorientation":
            head, last = line.rstrip("\n").rsplit(" ", 1)
            changed = f"{head} {'-1' if last == '+1' else '+1'}\n"
        else:
            changed = line.rstrip("\n") + "9\n"
        tried += 1
        if not problems(cmd, rc, "".join(lines[:i] + [changed] + lines[i + 1:])):
            return False
    return tried > 0
