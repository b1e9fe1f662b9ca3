"""Certificates, their checker, and the line-record serialization.

Every pipeline run ends in exactly one certificate, its producer's own
record: a Hamilton cycle (``CycleCert``), a toughness-violating cutset
(``ToughnessWitness``), an induced forbidden-pattern witness
(``InducedWitness``) or an oracle-limit marker.  The checker revalidates
each kind, told apart by exact type, from scratch against the input graph,
so a certificate never has to be trusted.  The certificate types are
``NamedTuple``s and ``RunConfig`` a plain class, so importing them
generates no code.

Records are single lines of whitespace-separated tokens: a record name,
``key=value`` fields, each formatted by its exact type (``bool`` as
``true``/``false``, ``Fraction`` as ``num/den``, anything else as its
``str``, which must hold no whitespace), and, after a ``--`` separator, a
vertex list as space-separated ids.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .graph import MAX_VERTICES, Graph, bits, mask_of
from .hamilton import DEFAULT_ORACLE_CAP, CycleCert
from .metrics import ToughnessWitness
from .recognition import FORBIDDEN_PATTERN, InducedWitness, induces_pattern

_SPACE = re.compile(r"\s")  # any whitespace: parse_record splits on each


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


class OracleLimit(NamedTuple):
    stage: str


Certificate = CycleCert | ToughnessWitness | InducedWitness | OracleLimit


# the record kind of each certificate type: the kind= field of its cert record
# and its column in a survey line
KINDS = {CycleCert: "hamilton-cycle", ToughnessWitness: "toughness-witness",
         InducedWitness: "forbidden-witness", OracleLimit: "oracle-limit"}
_TYPES = {kind: cls for cls, kind in KINDS.items()}  # and back, for reading records


def certificate_kind(cert: Certificate) -> str:
    try:
        return KINDS[type(cert)]
    except KeyError:
        raise TypeError(f"not a certificate: {cert!r}") from None


def check_certificate(g: Graph, cert: Certificate, cfg: RunConfig) -> tuple[bool, str]:
    """Revalidate a certificate against the graph; returns (ok, reason)."""
    kind = type(cert)
    if kind is CycleCert:
        order = cert.order
        if len(order) != g.n or set(order) != set(range(g.n)):
            return False, f"cycle is not a permutation of 0..{g.n - 1}"
        if g.n < 3:
            return False, "cycles need at least three vertices"
        for u, v in zip(order, order[1:] + order[:1]):  # ids are 0..n-1 here
            if not g.adj[u] >> v & 1:
                return False, f"edge {u}-{v} missing from the graph"
        return True, "hamilton cycle verified"
    if kind is ToughnessWitness:
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
    if kind is InducedWitness:
        if cert.pattern != FORBIDDEN_PATTERN:
            return False, f"witness pattern {cert.pattern} is not {FORBIDDEN_PATTERN}"
        if any(not 0 <= v < g.n for v in cert.vertices):
            return False, "witness has out-of-range vertices"
        if not induces_pattern(g, cert.vertices):
            return False, f"vertices {cert.vertices} do not induce {FORBIDDEN_PATTERN}"
        return True, "forbidden induced pattern verified"
    if kind is OracleLimit:
        return False, f"inconclusive: oracle limit at {cert.stage}"
    return False, f"unknown certificate {cert!r}"


# --- line records ------------------------------------------------------------

def fmt_q(x) -> str:
    f = x if type(x) is Fraction else Fraction(x)
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
        kind = type(value)
        if kind is int:
            text = str(value)
        elif kind is bool:
            text = "true" if value else "false"
        elif kind is Fraction:
            text = f"{value.numerator}/{value.denominator}"
        else:
            text = str(value)
            if _SPACE.search(text):
                raise ValueError(f"record field {key} contains whitespace: {text!r}")
        parts.append(f"{key}={text}")
    if ids is not None:
        parts.append("--")
        parts.extend(map(str, ids))
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
    if isinstance(cert, CycleCert):
        return record_line("cert", fields, ids=cert.order)
    if isinstance(cert, ToughnessWitness):
        fields += [("components", cert.component_count),
                   ("ratio", Fraction(cert.cutset.bit_count(), cert.component_count))]
        return record_line("cert", fields, ids=bits(cert.cutset))
    if isinstance(cert, InducedWitness):
        return record_line("cert", fields + [("pattern", cert.pattern)], ids=cert.vertices)
    return record_line("cert", fields + [("stage", cert.stage)])


def certificate_from_record(line: str) -> Certificate:
    name, fields, ids = parse_record(line)
    if name != "cert":
        raise ValueError(f"not a certificate record: {line!r}")
    kind = fields.get("kind")
    cls = _TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown certificate kind {kind!r}")
    if cls is CycleCert:
        return CycleCert(ids or ())
    if cls is ToughnessWitness:
        if not all(0 <= v < MAX_VERTICES for v in ids or ()):
            raise ValueError("toughness witness names a vertex id out of range")
        return ToughnessWitness(mask_of(ids or ()), int(fields["components"]))
    if cls is InducedWitness:
        return InducedWitness(ids or (), fields["pattern"])
    return OracleLimit(fields["stage"])


class Trace:
    """Accumulates the structured per-stage records of one pipeline run."""

    def __init__(self):
        self.lines: list[str] = []

    def add(self, name: str, ids=None, **fields):
        self.lines.append(record_line(name, sorted(fields.items()), ids=ids))
