"""Certificates, their checker, and the line-record serialization.

Every pipeline run ends in exactly one certificate: a Hamilton cycle, a
toughness-violating cutset, an induced forbidden-pattern witness, or an
oracle-limit marker.  The checker revalidates each kind from scratch
against the input graph, so a certificate never has to be trusted.  The
certificate types are ``NamedTuple``s and ``RunConfig`` a plain class, so
importing them generates no code.

Records are single lines of whitespace-separated tokens: a record name,
``key=value`` fields (rationals as ``num/den``), and, after a ``--``
separator, a vertex list as space-separated ids.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .graph import MAX_VERTICES, Graph, bits, mask_of
from .hamilton import DEFAULT_ORACLE_CAP, CycleCert
from .metrics import ToughnessWitness
from .recognition import InducedWitness, induces_pattern

FORBIDDEN_PATTERN = "2p2+p1"


class RunConfig:
    """Knobs for one pipeline run; defaults mirror the proven regime."""

    __slots__ = ("t", "cap_oracle")

    def __init__(self, t=Fraction(11), cap_oracle: int = DEFAULT_ORACLE_CAP):
        self.t = Fraction(t)
        if self.t <= 0:
            raise ValueError("t must be positive")
        if cap_oracle < 1:
            raise ValueError("the oracle cap must be positive")
        self.cap_oracle = cap_oracle    # Hamilton-cycle backtracking


class HamiltonCycle(NamedTuple):
    cycle: CycleCert


class ForbiddenWitness(NamedTuple):
    witness: InducedWitness


class OracleLimit(NamedTuple):
    stage: str


Certificate = HamiltonCycle | ToughnessWitness | ForbiddenWitness | OracleLimit


# the record kind of each certificate type: the kind= field of its cert record
# and its column in a survey line
KINDS = {HamiltonCycle: "hamilton-cycle", ToughnessWitness: "toughness-witness",
         ForbiddenWitness: "forbidden-witness", OracleLimit: "oracle-limit"}
_TYPES = {kind: cls for cls, kind in KINDS.items()}  # and back, for reading records


def certificate_kind(cert: Certificate) -> str:
    try:
        return KINDS[type(cert)]
    except KeyError:
        raise TypeError(f"not a certificate: {cert!r}") from None


def check_certificate(g: Graph, cert: Certificate, cfg: RunConfig) -> tuple[bool, str]:
    """Revalidate a certificate against the graph; returns (ok, reason)."""
    if isinstance(cert, HamiltonCycle):
        order = cert.cycle.order
        if len(order) != g.n or set(order) != set(range(g.n)):
            return False, f"cycle is not a permutation of 0..{g.n - 1}"
        if g.n < 3:
            return False, "cycles need at least three vertices"
        for i, u in enumerate(order):
            v = order[(i + 1) % len(order)]
            if not g.has_edge(u, v):
                return False, f"edge {u}-{v} missing from the graph"
        return True, "hamilton cycle verified"
    if isinstance(cert, ToughnessWitness):
        if cert.cutset & ~g.full:
            return False, "cutset has out-of-range vertices"
        c = g.component_count(cert.cutset)
        if c != cert.component_count:
            return False, f"component count is {c}, certificate says {cert.component_count}"
        if c < 2:
            return False, "removal leaves the graph connected"
        ratio = Fraction(cert.cutset.bit_count(), c)
        if ratio >= cfg.t:
            return False, f"ratio {ratio} is not below t={cfg.t}"
        return True, f"toughness violated at ratio {ratio}"
    if isinstance(cert, ForbiddenWitness):
        w = cert.witness
        if w.pattern != FORBIDDEN_PATTERN:
            return False, f"witness pattern {w.pattern} is not {FORBIDDEN_PATTERN}"
        if any(not 0 <= v < g.n for v in w.vertices):
            return False, "witness has out-of-range vertices"
        if not induces_pattern(g, w.vertices, FORBIDDEN_PATTERN):
            return False, f"vertices {w.vertices} do not induce {FORBIDDEN_PATTERN}"
        return True, "forbidden induced pattern verified"
    if isinstance(cert, OracleLimit):
        return False, f"inconclusive: oracle limit at {cert.stage}"
    return False, f"unknown certificate {cert!r}"


# --- line records ------------------------------------------------------------

def fmt_q(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_q(s: str) -> Fraction:
    if "/" in s:
        num, den = s.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def record_line(name: str, fields=(), ids=None) -> str:
    parts = [name]
    for key, value in fields:
        if isinstance(value, (Fraction,)):
            value = fmt_q(value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        text = str(value)
        if " " in text:
            raise ValueError(f"record field {key} contains a space: {text!r}")
        parts.append(f"{key}={text}")
    if ids is not None:
        parts.append("--")
        parts.extend(str(v) for v in ids)
    return " ".join(parts)


def parse_record(line: str):
    """(name, fields dict, ids tuple or None)."""
    tokens = line.split()
    if not tokens:
        raise ValueError("empty record")
    name = tokens[0]
    fields: dict[str, str] = {}
    ids = None
    rest = tokens[1:]
    if "--" in rest:
        cut = rest.index("--")
        ids = tuple(int(tok) for tok in rest[cut + 1:])
        rest = rest[:cut]
    for tok in rest:
        if "=" not in tok:
            raise ValueError(f"malformed field {tok!r} in record {line!r}")
        key, value = tok.split("=", 1)
        fields[key] = value
    return name, fields, ids


def certificate_to_record(cert: Certificate) -> str:
    fields = [("kind", certificate_kind(cert))]
    if isinstance(cert, HamiltonCycle):
        return record_line("cert", fields, ids=cert.cycle.order)
    if isinstance(cert, ToughnessWitness):
        fields += [("components", cert.component_count),
                   ("ratio", Fraction(cert.cutset.bit_count(), cert.component_count))]
        return record_line("cert", fields, ids=bits(cert.cutset))
    if isinstance(cert, ForbiddenWitness):
        fields.append(("pattern", cert.witness.pattern))
        return record_line("cert", fields, ids=cert.witness.vertices)
    return record_line("cert", fields + [("stage", cert.stage)])


def certificate_from_record(line: str) -> Certificate:
    name, fields, ids = parse_record(line)
    if name != "cert":
        raise ValueError(f"not a certificate record: {line!r}")
    kind = fields.get("kind")
    cls = _TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown certificate kind {kind!r}")
    if cls is HamiltonCycle:
        return HamiltonCycle(CycleCert(ids or ()))
    if cls is ToughnessWitness:
        if not all(0 <= v < MAX_VERTICES for v in ids or ()):
            raise ValueError("toughness witness names a vertex id out of range")
        return ToughnessWitness(mask_of(ids or ()), int(fields["components"]))
    if cls is ForbiddenWitness:
        return ForbiddenWitness(InducedWitness(ids or (), fields["pattern"]))
    return OracleLimit(fields["stage"])


class Trace:
    """Accumulates the structured per-stage records of one pipeline run."""

    def __init__(self):
        self.lines: list[str] = []

    def add(self, name: str, ids=None, **fields):
        self.lines.append(record_line(name, sorted(fields.items()), ids=ids))
