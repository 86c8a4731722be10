"""The protocol × backend matrix: one spec, every engine, same batches.

The specification/execution split's core contract: a registered
:class:`~repro.protocols.spec.ProtocolSpec` must produce byte-identical
batch sequences on every backend that declares support for it, and a
backend that does *not* declare support must refuse to lower the spec
(no silent wrong answers).  The randomized sweep drives the live
scheduler — so stateful backends (incremental view maintenance) are
exercised through the observe hooks exactly as in production — over the
same 50-workload distribution as the plan-compilation equivalence test,
rotating specs so every supported (spec, backend) pairing is driven
several times.
"""

import random

import pytest

from repro.backends import (
    BACKEND_REGISTRY,
    BackendError,
    build_protocol,
    supported_backends,
)
from repro.bench.incremental_ablation import drive_steps
from repro.protocols.spec import SPEC_REGISTRY, spec_names

from tests.conftest import random_scheduling_instance

ALL_SPECS = spec_names()
ALL_BACKENDS = sorted(BACKEND_REGISTRY)


class TestDeclaredSupportIsExact:
    """The skip list is exactly what the backends declare."""

    @pytest.mark.parametrize("spec_name", ALL_SPECS)
    def test_every_backend_either_lowers_or_refuses(self, spec_name):
        spec = SPEC_REGISTRY[spec_name]
        declared = set(supported_backends(spec))
        actually_lowered = set()
        for backend_name in ALL_BACKENDS:
            try:
                build_protocol(spec_name, backend_name)
            except BackendError:
                continue
            actually_lowered.add(backend_name)
        assert actually_lowered == declared, (
            f"{spec_name}: declared support {sorted(declared)} != "
            f"lowerable {sorted(actually_lowered)}"
        )

    def test_static_prediction_matches_dynamic_support_exactly(self):
        # The analyzer's schema-only lowerability mirror replaces the
        # old hand-maintained skip-list pin: for EVERY spec × backend
        # pair, the static prediction must equal the backend's live
        # supports() answer — which for compiled-delta trial-lowers the
        # plan.  A new spec landing in the wrong bucket (silently
        # skipped, or silently accepted with an unmaintainable plan)
        # fails here by name, and so does any drift between the mirror
        # in repro.analysis.lowerability and the real lowering.
        from repro.analysis import explain_refusal, predicted_backend_matrix

        matrix = predicted_backend_matrix()
        assert sorted(matrix) == sorted(ALL_SPECS)
        for spec_name, row in matrix.items():
            assert sorted(row) == ALL_BACKENDS
            spec = SPEC_REGISTRY[spec_name]
            declared = set(supported_backends(spec))
            for backend_name, predicted in row.items():
                actual = backend_name in declared
                assert predicted == actual, (
                    f"{spec_name} × {backend_name}: static analysis "
                    f"predicts {predicted}, backend declares {actual}"
                )
        # Every compiled-delta refusal of a spec that *has* a relalg or
        # sql dialect comes with an operator-path diagnosis.
        for spec_name, row in matrix.items():
            spec = SPEC_REGISTRY[spec_name]
            if row["compiled-delta"] or not (
                {"relalg", "sql"} & spec.dialects()
            ):
                continue
            assert explain_refusal(spec), (
                f"{spec_name}: refused without a diagnosis"
            )

    def test_matrix_is_wide(self):
        # The refactor's acceptance floor: >= 8 specs, and the flagship
        # specs run on >= 4 backends each.
        assert len(ALL_SPECS) >= 8
        wide = [
            name
            for name in ALL_SPECS
            if len(supported_backends(SPEC_REGISTRY[name])) >= 4
        ]
        assert len(wide) >= 6, f"only {wide} run on >= 4 backends"

    def test_unknown_backend_error_names_choices(self):
        with pytest.raises(BackendError, match="valid backends"):
            build_protocol("ss2pl", "no-such-backend")

    def test_unknown_spec_error_names_choices(self):
        with pytest.raises(KeyError, match="registered"):
            build_protocol("no-such-spec", "compiled")


class TestMatrixEquivalence:
    """Byte-identical batch sequences across the full matrix."""

    def test_fifty_random_workloads_sweep_matrix(self):
        """Fifty random workloads, rotating specs, plus one large-history
        workload on every spec: three readers hold 1,200 read locks for
        the whole run while short transactions commit and are pruned on
        every step, so deletes hit a deep history and its indexes."""
        rng = random.Random(2026)
        workloads = []
        for trial in range(50):
            kwargs = dict(
                clients=rng.randrange(3, 10),
                steps=rng.randrange(4, 9),
                ops_per_txn=rng.randrange(2, 6),
                table_rows=rng.choice([4, 10, 50]),
                seed=rng.randrange(10_000),
            )
            workloads.append((ALL_SPECS[trial % len(ALL_SPECS)], kwargs))
        large_history = dict(
            clients=8, steps=12, ops_per_txn=2, table_rows=50, seed=5,
            readers=3, reads_per_reader=400,
        )
        workloads.extend((spec, large_history) for spec in ALL_SPECS)
        for trial, (spec_name, kwargs) in enumerate(workloads):
            backends = supported_backends(SPEC_REGISTRY[spec_name])
            assert backends, f"{spec_name} runs nowhere"
            reference = None
            reference_backend = None
            for backend_name in backends:
                protocol = build_protocol(spec_name, backend_name)
                result = drive_steps(protocol, **kwargs)
                if kwargs is large_history and backend_name == "compiled-delta":
                    # Deletes journal exactly the removed rows: the delta
                    # plan keeps up, with no rebuild after the cold one.
                    assert protocol.maintenance_stats()["rebuilds"] == 1
                if reference is None:
                    reference = result.batches
                    reference_backend = backend_name
                else:
                    assert result.batches == reference, (
                        f"trial {trial}: {spec_name} on {backend_name} "
                        f"diverged from {reference_backend} ({kwargs})"
                    )

    @pytest.mark.parametrize("spec_name", ALL_SPECS)
    def test_one_shot_agreement_per_spec(self, spec_name):
        """Static (requests, history) instances: every backend's
        qualified id set matches, with stateful evaluators resynced the
        documented way."""
        backends = supported_backends(SPEC_REGISTRY[spec_name])
        rng = random.Random(hash(spec_name) % 100_000)
        for __ in range(10):
            requests, history = random_scheduling_instance(
                rng,
                pending=rng.randint(1, 20),
                history_transactions=rng.randint(1, 12),
                objects=rng.randint(4, 30),
                pending_ops_per_txn=rng.choice([1, 2, 3]),
            )
            reference = None
            for backend_name in backends:
                protocol = build_protocol(spec_name, backend_name)
                evaluator = getattr(protocol, "_evaluator", None)
                if hasattr(evaluator, "resync"):
                    evaluator.resync(history)
                ids = [
                    r.id
                    for r in protocol.schedule(requests, history).qualified
                ]
                if reference is None:
                    reference = ids
                else:
                    assert ids == reference, (
                        f"{spec_name} on {backend_name}: {ids} != {reference}"
                    )
