"""Shared fixtures: small configs, tiny kernels, scaled-down graphs."""

from __future__ import annotations

import os
import random
import subprocess

import pytest

from repro.config import SimConfig
from repro.isa import Assembler, GuestMemory
from repro.workloads.base import BuiltWorkload
from repro.workloads.graphs import GRAPH_INPUTS, GraphSpec, _csr_cache


@pytest.fixture(autouse=True, scope="session")
def _isolated_jobs_cache(tmp_path_factory):
    """Point the repro.jobs result cache at a session-scratch directory.

    Keeps test runs from reading or polluting the user's real cache while
    still exercising (and benefiting from) caching within the session.
    """
    import repro.jobs as jobs
    cache_dir = str(tmp_path_factory.mktemp("repro-cache"))
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    jobs.set_context(None)
    yield cache_dir
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old
    jobs.set_context(None)


@pytest.fixture(scope="session")
def tls_cert(tmp_path_factory):
    """Self-signed server certificate + key via the openssl CLI."""
    cert_dir = tmp_path_factory.mktemp("tls")
    cert, key = str(cert_dir / "serve.crt"), str(cert_dir / "serve.key")
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes",
         "-keyout", key, "-out", cert, "-days", "2",
         "-subj", "/CN=repro-serve-test"],
        check=True, capture_output=True)
    return cert, key


@pytest.fixture
def config():
    """Paper configuration with a small instruction budget."""
    return SimConfig(max_instructions=5_000)


@pytest.fixture
def guest_memory():
    return GuestMemory(16 * 1024 * 1024)


def build_chain_workload(n=4096, levels=2, seed=7, memory_bytes=64 * 1024 * 1024):
    """The canonical indirect-chain kernel (paper Fig 1 shape):

        for i in range(n): C[B[A[i]]] += 1   (depth = ``levels``)

    Returns a BuiltWorkload whose metadata carries the array bases.
    """
    mem = GuestMemory(memory_bytes)
    rnd = random.Random(seed)
    arrays = []
    for level in range(levels + 1):
        if level == 0:
            values = [rnd.randrange(n) for _ in range(n)]
        elif level < levels:
            values = [rnd.randrange(n) for _ in range(n)]
        else:
            values = [0] * n
        arrays.append(mem.alloc_array(values, f"array{level}"))

    a = Assembler("chain")
    a.alias("rI", 1)
    a.alias("rN", 2)
    a.alias("rT", 3)
    a.alias("rC", 4)
    bases = []
    for level in range(levels + 1):
        bases.append(a.alias(f"rA{level}", 5 + level))
    for level, base in enumerate(arrays):
        a.li(f"rA{level}", base)
    a.li("rI", 0)
    a.li("rN", n)
    a.label("loop")
    a.loadx("rT", "rA0", "rI")            # striding load
    for level in range(1, levels):
        a.loadx("rT", f"rA{level}", "rT")  # dependent chain
    a.loadx("rC", f"rA{levels}", "rT")
    a.addi("rC", "rC", 1)
    a.storex("rC", f"rA{levels}", "rT")
    a.addi("rI", "rI", 1)
    a.cmplt("rC", "rI", "rN")
    a.bnz("rC", "loop")
    a.halt()
    return BuiltWorkload("chain", a.build(), mem,
                         metadata={"arrays": arrays, "n": n})


@pytest.fixture
def chain_workload():
    return build_chain_workload()


@pytest.fixture
def tiny_graph(monkeypatch):
    """Register a small test graph input and return its name."""
    name = "TESTG"
    spec = GraphSpec(name, "rmat", 9, 8)
    monkeypatch.setitem(GRAPH_INPUTS, name, spec)
    yield name
    _csr_cache.pop((spec, 12345), None)


@pytest.fixture
def tiny_uniform_graph(monkeypatch):
    name = "TESTU"
    spec = GraphSpec(name, "uniform", 9, 8)
    monkeypatch.setitem(GRAPH_INPUTS, name, spec)
    yield name
    _csr_cache.pop((spec, 12345), None)
