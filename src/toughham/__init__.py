"""Certifying Hamilton-cycle toolkit for tough pattern-free graphs."""

from .certificates import Certificate, OracleLimit, RunConfig, check_certificate
from .graph import Graph
from .hamilton import CycleCert, PathCert
from .metrics import ScatteringSet, ToughnessWitness
from .pipeline import Decomposition, PathCover, run_theorem
from .recognition import InducedWitness, Multipartition

__all__ = [
    "Certificate", "CycleCert", "Decomposition", "Graph", "InducedWitness",
    "Multipartition", "OracleLimit", "PathCert", "PathCover", "RunConfig",
    "ScatteringSet", "ToughnessWitness", "check_certificate", "run_theorem",
]
