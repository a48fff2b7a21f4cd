"""What each process imports.

The cluster coordinator only decodes and routes requests, so importing
it, or running ``python -m repro cluster``, must not load numpy or any
solver; neither tier loads the stdlib HTTP stack, as both frame HTTP
themselves; and the ``repro``, ``repro.engine`` and ``repro.serve``
packages, which resolve their public names on first access, must still
hand out the same objects their submodules define.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Modules only the workers (and the CLI's solving commands) may load.
SOLVER_MODULES = (
    "numpy",
    "repro.minimize",
    "repro.kernels",
    "repro.delta",
    "repro.engine.scheduler",
)


def _imported(*args: str) -> set[str]:
    """Every module a fresh ``python -X importtime *args`` imports."""
    run = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
        check=True,
    )
    return {
        line.rsplit("|", 1)[1].strip()
        for line in run.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "args, entry",
    [
        (("-c", "import repro.cluster.coordinator"), "repro.cluster.coordinator"),
        (("-m", "repro", "cluster", "--help"), "repro.cli"),
    ],
    ids=["import-coordinator", "cluster-help"],
)
def test_the_coordinator_loads_no_solver(args, entry):
    imported = _imported(*args)
    assert entry in imported
    assert not {
        name
        for name in imported
        for solver in SOLVER_MODULES
        if name == solver or name.startswith(solver + ".")
    }


# The stdlib HTTP stack both tiers frame the wire without.
HTTP_STACK = ("http.server", "http.client", "email.parser", "ssl")


def test_the_tiers_load_no_stdlib_http_stack():
    imported = _imported(
        "-c", "import repro.cli, repro.serve.server, repro.cluster.coordinator"
    )
    assert "repro.serve.tier" in imported
    assert not imported & set(HTTP_STACK)


# Where each package's public names are defined (the modules the
# packages imported them from when they imported everything up front).
SOURCES = {
    "repro": {
        "repro.boolfunc": (
            "BoolFunc", "MultiBoolFunc", "parse_pla", "parse_pla_file", "write_pla",
        ),
        "repro.budget": ("Budget", "CancelToken"),
        "repro.core": (
            "CexExpression", "ExorFactor", "Pseudocube", "SppForm", "cex_of",
            "cex_union", "structure_of", "sub_pseudocubes",
        ),
        "repro.core.parse": ("parse_cex", "parse_spp"),
        "repro.export": ("spp_to_blif", "spp_to_verilog"),
        "repro.minimize": (
            "Cube", "generate_eppp", "generate_eppp_naive", "minimize_aox",
            "minimize_sp", "minimize_spp", "minimize_spp_bounded",
            "minimize_spp_k", "prime_implicants",
        ),
        "repro.minimize.multi": ("minimize_spp_multi",),
        "repro.serialize": ("dumps as dump_json", "loads as load_json"),
        "repro.trie": ("PartitionTrie",),
        "repro.verify": ("assert_equivalent", "verify_form"),
    },
    "repro.engine": {
        "repro.engine.batch": (
            "SOURCE_CACHE", "SOURCE_CANCELLED", "SOURCE_COMPUTED", "SOURCE_FAILED",
            "SOURCE_MANIFEST", "SOURCE_QUARANTINED", "BatchResult", "JobOutcome",
            "Manifest",
        ),
        "repro.engine.cache": ("CacheStats", "ResultCache"),
        "repro.engine.job": ("Job", "job_from_dict", "job_to_dict"),
        "repro.engine.ladder": ("Rung", "execute_rung", "ladder_for"),
        "repro.engine.lockfile": ("FileLock", "LockTimeout"),
        "repro.engine.scheduler": ("DeadlineExceeded", "parallel_map", "run_batch"),
    },
    "repro.serve": {
        "repro.serve.admission": ("AdmissionQueue",),
        "repro.serve.breaker": ("RungBreaker",),
        "repro.serve.server": ("VERIFIED_HEADER", "MinimizeService", "ServeConfig"),
        "repro.serve.shadow": ("ShadowVerifier",),
        "repro.serve.watchdog": ("MemoryWatchdog",),
    },
}


def _expected(package: str) -> dict[str, object]:
    expected = {}
    for module, entries in SOURCES[package].items():
        source = importlib.import_module(module)
        for entry in entries:
            attr, _, name = entry.partition(" as ")
            expected[name or attr] = getattr(source, attr)
    return expected


@pytest.mark.parametrize("package", sorted(SOURCES))
class TestLazyPackages:
    def test_importing_the_package_imports_none_of_its_exports(self, package):
        imported = _imported("-c", f"import {package}")
        assert {name for name in imported if name.startswith("repro")} <= {
            "repro", "repro._lazy", package,
        }

    def test_every_export_is_its_defining_modules_object(self, package):
        module = importlib.import_module(package)
        expected = _expected(package)
        assert sorted(expected) == sorted(module.__all__)
        for name in module.__all__:
            assert getattr(module, name) is expected[name], name

    def test_every_export_is_listed_by_dir(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_an_unknown_name_is_an_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert not hasattr(module, "no_such_name")
