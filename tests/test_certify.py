"""Tests for the engine-independent witness certificate subsystem.

The contract under test: every nonempty verdict can export a persisted
certificate that a validator re-checks *without the engine* -- guards
replayed along the run, the witness database's theory membership
re-derived from logic primitives, the accepting evidence re-verified --
and corrupted certificates are rejected, not silently accepted.
"""

import copy
import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from repro import AllDatabasesTheory, EmptinessSolver, HomTheory, clique_template
from repro.certify import (
    CERTIFICATE_FORMAT,
    CertificateError,
    build_certificate,
    decode_certificate,
    encode_certificate,
    render_certificate,
    validate_certificate,
    validate_encoded,
)
from repro.library import triangle_system
from repro.relational.csp import GRAPH_SCHEMA
from repro.service.jobs import execute_job
from repro.workloads import generate_jobs

CERTIFY_SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "repro" / "certify").glob("*.py"))


def _triangle():
    system = triangle_system()
    theory = AllDatabasesTheory(GRAPH_SCHEMA)
    result = EmptinessSolver(theory).check(system)
    assert result.nonempty
    return system, theory, result


def _hom_triangle():
    system = triangle_system()
    theory = HomTheory(clique_template(3))
    result = EmptinessSolver(theory).check(system)
    assert result.nonempty
    return system, theory, result


class TestFormat:
    def test_build_encode_decode_round_trip(self):
        system, theory, result = _triangle()
        certificate = build_certificate(system, theory, result)
        assert certificate["format"] == CERTIFICATE_FORMAT
        decoded = decode_certificate(encode_certificate(certificate))
        assert decoded == certificate
        assert render_certificate(decoded) == render_certificate(certificate)

    def test_canonical_rendering_is_deterministic(self):
        # Same witness -> byte-identical canonical text, independent of
        # dict construction order: the CLI/HTTP agreement guarantee.
        system, theory, result = _triangle()
        a = render_certificate(build_certificate(system, theory, result))
        b = render_certificate(
            dict(reversed(list(build_certificate(system, theory, result).items())))
        )
        assert a == b

    def test_empty_result_refused(self):
        system, theory, result = _triangle()
        empty = dataclasses.replace(result, nonempty=False, run=None)
        with pytest.raises(CertificateError, match="nonempty"):
            build_certificate(system, theory, empty)

    def test_decode_rejects_garbage(self):
        for bad in ("", "not-base64!!", "aGVsbG8="):  # empty, bad b64, not zlib
            with pytest.raises(CertificateError):
                decode_certificate(bad)


class TestSeededWorkloads:
    def test_every_nonempty_verdict_validates_engine_free(self):
        """The acceptance bar: the full seeded workload suite, all five
        theory families, every nonempty verdict re-checked by the
        engine-independent validator."""
        kinds = {}
        for job in generate_jobs(40, seed=7):
            result = execute_job(dataclasses.replace(job, certificate=True))
            assert result.ok, result.error
            if result.nonempty:
                assert result.certificate, job.label
                report = validate_encoded(result.certificate)
                assert report["format"] == CERTIFICATE_FORMAT
                kinds[report["theory_kind"]] = kinds.get(report["theory_kind"], 0) + 1
            else:
                # Empty verdicts have no witness, hence no certificate.
                assert result.certificate is None
        assert set(kinds) == {"all_databases", "hom", "word_run", "tree_run", "data_valued"}

    def test_uncertified_job_carries_no_certificate(self):
        job = generate_jobs(1, seed=7)[0]
        result = execute_job(job)
        assert result.certificate is None


class TestCorruption:
    """Hand-corrupted certificates must be rejected (>= 3 distinct attacks)."""

    def test_unknown_state_in_run_rejected(self):
        system, theory, result = _triangle()
        corrupt = copy.deepcopy(build_certificate(system, theory, result))
        corrupt["steps"][0][0] = "no-such-state"
        with pytest.raises(CertificateError):
            validate_certificate(corrupt)

    def test_guard_violation_rejected(self):
        # Drop every edge from the witness database: the run's guards can
        # no longer hold over it.
        system, theory, result = _triangle()
        corrupt = copy.deepcopy(build_certificate(system, theory, result))
        corrupt["database"]["relations"]["E"] = []
        with pytest.raises(CertificateError):
            validate_certificate(corrupt)

    def test_transition_index_out_of_range_rejected(self):
        system, theory, result = _triangle()
        corrupt = copy.deepcopy(build_certificate(system, theory, result))
        corrupt["transitions"][0] = 10_000
        with pytest.raises(CertificateError):
            validate_certificate(corrupt)

    def test_hom_evidence_tampering_rejected(self):
        # Strip the colouring of one element: the homomorphism evidence no
        # longer covers the witness domain.
        system, theory, result = _hom_triangle()
        certificate = build_certificate(system, theory, result)
        colour = next(
            name
            for name in certificate["database"]["relations"]
            if name.startswith("hom_color_") and certificate["database"]["relations"][name]
        )
        corrupt = copy.deepcopy(certificate)
        corrupt["database"]["relations"][colour] = []
        with pytest.raises(CertificateError):
            validate_certificate(corrupt)

    def test_unsupported_format_version_rejected(self):
        system, theory, result = _triangle()
        corrupt = copy.deepcopy(build_certificate(system, theory, result))
        corrupt["format"] = CERTIFICATE_FORMAT + 1
        with pytest.raises(CertificateError):
            validate_certificate(corrupt)


class TestEngineIndependence:
    def test_no_engine_imports_in_source(self):
        """Static guarantee: no import statement in repro/certify names the
        engine, the plan layer, or the perf caches (docstrings may)."""
        assert CERTIFY_SOURCES, "certify package sources not found"
        for source in CERTIFY_SOURCES:
            for line in source.read_text().splitlines():
                stripped = line.strip()
                if not stripped.startswith(("import ", "from ")):
                    continue
                for forbidden in ("fraisse.engine", "fraisse.plans", "repro.perf"):
                    assert forbidden not in stripped, (
                        f"{source.name} imports {forbidden}: {stripped}"
                    )

    def test_import_does_not_load_engine(self):
        """Dynamic guarantee: (re-)importing the validator pulls in neither
        the engine nor the plan compiler.

        The ``repro`` package root imports the engine for its public API,
        so the check purges those modules after the parent import and
        asserts the certify package does not bring them back.
        """
        code = (
            "import sys\n"
            "import repro  # the package root legitimately loads the engine\n"
            "for name in [n for n in sys.modules if 'fraisse' in n or 'certify' in n]:\n"
            "    del sys.modules[name]\n"
            "import repro.certify\n"
            "from repro.certify import validate_certificate\n"
            "assert 'repro.fraisse.engine' not in sys.modules, 'engine imported'\n"
            "assert 'repro.fraisse.plans' not in sys.modules, 'plans imported'\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        )
