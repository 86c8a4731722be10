"""The benchmark's traffic mixes and their seeded transaction profiles.

Every workload serves the ``ss2pl`` spec on ``compiled-delta`` with the
``repro serve`` defaults.  What varies is the traffic, chosen so that
each workload stresses a different layer (the reasons are recorded in
``README.md`` next to this file).  The program only ever sees the
generated profiles; the seed never reaches it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

from repro.workload.generator import StatementProfile, TransactionFactory
from repro.workload.spec import PAPER_WORKLOAD, WorkloadSpec

PROTOCOL = "ss2pl"
BACKEND = "compiled-delta"
#: ``repro serve``'s defaults.
TRIGGER = "hybrid:0.005,16"
SESSIONS = 8
PIPELINE = 8
#: Transactions generated per seed.  Sessions walk the list with a
#: stride of ``SESSIONS`` and wrap around, so a long run repeats the
#: same seeded mix instead of drawing new inputs while measuring.
PROFILE_POOL = 4096


@dataclass(frozen=True)
class Workload:
    """One traffic mix (see README.md for why each exists)."""

    name: str
    spec: WorkloadSpec
    shards: Optional[int] = None
    #: Long-running reader transactions loaded before measuring.
    readers: int = 0
    #: Read locks each reader holds for the whole measured window.
    reads_per_reader: int = 0

    @property
    def reader_objects_start(self) -> int:
        """Readers lock objects above the table, which no short
        transaction ever touches."""
        return self.spec.table_rows


HOTSPOT_SPEC = WorkloadSpec(
    reads_per_txn=4, writes_per_txn=4, table_rows=2_000, zipf_theta=0.9
)
UNIFORM_SMALL_SPEC = WorkloadSpec(
    reads_per_txn=4, writes_per_txn=4, table_rows=100_000
)

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("hotspot", HOTSPOT_SPEC),
        Workload("paper", PAPER_WORKLOAD),
        Workload(
            "deep-history",
            UNIFORM_SMALL_SPEC,
            readers=2,
            reads_per_reader=5_000,
        ),
        Workload("sharded", HOTSPOT_SPEC, shards=4),
    )
}


def generate_profiles(
    workload: Workload, seed: int, count: int = PROFILE_POOL
) -> list[list[StatementProfile]]:
    """``count`` transaction profiles, fully determined by the seed."""
    factory = TransactionFactory(workload.spec, random.Random(seed))
    return [factory.next_profile() for __ in range(count)]


def profiles_digest(profiles: list[list[StatementProfile]]) -> str:
    """SHA-256 over every statement of every profile, in order."""
    digest = hashlib.sha256()
    for profile in profiles:
        for statement in profile:
            digest.update(f"{statement.operation.value}{statement.obj},".encode())
        digest.update(b";")
    return digest.hexdigest()
