"""Tests for the exercise kernel (repro.exercise), all without a server:
the report base through a fake subclass, the one virtual clock, and the
typed error handling of the client-side sweeps through stub sessions."""

import json
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import pytest

from repro.downloader.session import RateLimitedError, TransientNetworkError
from repro.exercise import (
    ExerciseReport,
    Invariant,
    VirtualClock,
    availability_sweep,
    blob_error,
    phase_totals,
    pull_phase,
    seeded_hub,
)
from repro.ha.churn import VIRTUAL_EPOCH_START
from repro.registry.errors import BlobNotFoundError, ManifestNotFoundError
from repro.util.digest import sha256_bytes


class TestVirtualClock:
    def test_sleep_advances(self):
        clock = VirtualClock()
        clock.sleep(0.5)
        clock.sleep(0.25)
        assert clock.now() == 0.75

    def test_negative_sleep_ignored(self):
        clock = VirtualClock()
        clock.sleep(-1.0)
        assert clock.now() == 0.0
        assert clock.advance(-1.0) == 0.0  # monotonic whichever way it is moved

    def test_starts_in_the_future_and_advances(self):
        clock = VirtualClock(start=VIRTUAL_EPOCH_START)
        assert clock.now() > time.time()  # materialization stamps stay older
        t0 = clock.now()
        assert clock.advance(60.0) == t0 + 60.0
        assert clock.now() == t0 + 60.0


@dataclass
class FakeReport(ExerciseReport):
    VOLATILE = ("duration_s", "port")

    seed: int
    label: str
    counts: dict = field(default_factory=dict)
    ratio: float = 0.0
    duration_s: float = 0.0
    port: int = 0

    def computed(self) -> dict:
        return {"total": sum(self.counts.values()), "ratio": round(self.ratio, 2)}

    def lines(self) -> list[str]:
        return [f"fake exercise: seed={self.seed} ({self.label})", "invariants:"]


def _fake(**overrides) -> FakeReport:
    report = FakeReport(7, "smoke", counts={"a": 1, "b": 2}, ratio=0.123456,
                        duration_s=1.5, port=40123)
    report.invariants = [
        Invariant("first_thing", True, "held"),
        Invariant("second_thing", overrides.get("second_ok", True), "2 of 2"),
    ]
    return report


class TestExerciseReport:
    def test_subclass_fields_stay_positional_and_invariants_keyword_only(self):
        report = FakeReport(7, "smoke")
        assert (report.seed, report.label, report.invariants) == (7, "smoke", [])
        keyword = FakeReport(7, "smoke", invariants=[Invariant("x", True, "d")])
        assert [inv.name for inv in keyword.invariants] == ["x"]
        with pytest.raises(TypeError):
            FakeReport(7, "smoke", {}, 0.0, 0.0, 0, [Invariant("x", True, "d")])

    def test_ok_is_the_conjunction_and_vacuously_true(self):
        assert FakeReport(7, "smoke").ok
        assert _fake().ok
        assert not _fake(second_ok=False).ok

    def test_to_dict_is_fields_plus_computed_hook(self):
        doc = _fake().to_dict()
        assert set(doc) == {
            "seed", "label", "counts", "ratio", "duration_s", "port",
            "invariants", "ok", "total",
        }
        assert doc["total"] == 3  # a derived key
        assert doc["ratio"] == 0.12  # a computed key replaces the raw field
        assert doc["ok"] is True
        assert doc["invariants"] == [
            {"name": "first_thing", "ok": True, "detail": "held"},
            {"name": "second_thing", "ok": True, "detail": "2 of 2"},
        ]

    def test_seeded_core_drops_exactly_volatile(self):
        report = _fake()
        full, core = report.to_dict(), report.seeded_core()
        assert set(full) - set(core) == {"duration_s", "port"}
        assert all(core[key] == full[key] for key in core)
        assert ExerciseReport().seeded_core() == ExerciseReport().to_dict()

    def test_render_is_own_lines_then_the_shared_tail(self):
        assert _fake().render().split("\n") == [
            "fake exercise: seed=7 (smoke)",
            "invariants:",
            "  [ok ] first_thing: held",
            "  [ok ] second_thing: 2 of 2",
            "verdict: all invariants hold",
        ]
        failed = _fake(second_ok=False).render().split("\n")
        assert failed[3] == "  [FAIL] second_thing: 2 of 2"
        assert failed[-1] == "verdict: INVARIANT VIOLATED"

    def test_to_json_round_trips_sorted(self):
        report = _fake()
        text = report.to_json()
        assert json.loads(text) == report.to_dict()
        assert text == json.dumps(report.to_dict(), indent=2, sort_keys=True)


class StubSession:
    """Serves ``blobs`` and ``manifests``; raises whatever is stored as an
    exception instead of returning it."""

    def __init__(self, blobs=None, manifests=None):
        self.blobs = blobs or {}
        self.manifests = manifests or {}

    def get_blob(self, digest):
        value = self.blobs[digest]
        if isinstance(value, Exception):
            raise value
        return value

    def get_manifest(self, repo, tag):
        value = self.manifests[repo, tag]
        if isinstance(value, Exception):
            raise value
        return SimpleNamespace(layer_digests=value)


GOOD = b"good bytes"
GOOD_DIGEST = sha256_bytes(GOOD)
ROTTED_DIGEST = sha256_bytes(b"what was pushed")
GONE_DIGEST = sha256_bytes(b"gone")
FLAKY_DIGEST = sha256_bytes(b"flaky")


@pytest.fixture
def session():
    return StubSession(
        blobs={
            GOOD_DIGEST: GOOD,
            ROTTED_DIGEST: b"what came back",
            GONE_DIGEST: BlobNotFoundError(GONE_DIGEST),
            FLAKY_DIGEST: TransientNetworkError("connection reset"),
        },
        manifests={
            ("lib/ok", "latest"): [GOOD_DIGEST, GONE_DIGEST],
            ("lib/gone", "v1"): ManifestNotFoundError("lib/gone:v1"),
        },
    )


class TestBlobError:
    def test_none_for_a_verified_blob(self, session):
        assert blob_error(session, GOOD_DIGEST) is None

    def test_registry_and_network_errors_are_reported_by_type(self, session):
        assert blob_error(session, GONE_DIGEST).startswith("BlobNotFoundError")
        assert blob_error(session, FLAKY_DIGEST).startswith("TransientNetworkError")
        assert "hash" in blob_error(session, ROTTED_DIGEST)

    def test_a_programming_error_propagates(self, session):
        with pytest.raises(KeyError):
            blob_error(session, "sha256:never-stubbed")


class TestAvailabilitySweep:
    def test_counts_typed_failures_and_bad_hashes_as_unreadable(self, session):
        result = availability_sweep(
            session,
            blobs=[GOOD_DIGEST, ROTTED_DIGEST, FLAKY_DIGEST],
            tags=[("lib/ok", "latest"), ("lib/gone", "v1")],
        )
        # 2 manifests + the 2 layers of the readable one + 3 listed blobs;
        # unreadable: lib/gone, the gone layer, the rotted and the flaky blob
        assert result == {"checked": 7, "unreadable": 4}

    def test_empty_sweep(self, session):
        assert availability_sweep(session) == {"checked": 0, "unreadable": 0}

    def test_a_programming_error_propagates(self, session):
        with pytest.raises(KeyError):
            availability_sweep(session, blobs=["sha256:never-stubbed"])
        with pytest.raises(KeyError):
            availability_sweep(session, tags=[("never", "stubbed")])
        session.get_blob = lambda digest: 1 / 0
        with pytest.raises(ZeroDivisionError):
            availability_sweep(session, blobs=[GOOD_DIGEST])


class TestPullPhase:
    def test_counts_and_totals(self, session, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda seconds: None)
        session.blobs["sha256:shed"] = RateLimitedError(retry_after_s=0.01)
        ops = [
            SimpleNamespace(kind="manifest", repo="lib/ok", tag="latest"),
            SimpleNamespace(kind="blob", digest=GOOD_DIGEST),
            SimpleNamespace(kind="blob", digest=ROTTED_DIGEST),
            SimpleNamespace(kind="blob", digest=GONE_DIGEST),
            SimpleNamespace(kind="blob", digest="sha256:shed"),
        ]
        counts = pull_phase(session, ops, max_attempts=2)
        assert counts == {
            "attempted": 5, "succeeded": 3, "failed": 2, "corrupt": 1, "retries": 4,
        }
        totals = phase_totals({"A": counts, "B": counts})
        assert totals == {key: 2 * value for key, value in counts.items()}


class TestSeededHub:
    def test_builds_lazily_and_once(self):
        hub = seeded_hub("tiny", 5)
        assert hub.config.seed == 5
        assert "dataset" not in vars(hub) and "_materialized" not in vars(hub)
        assert hub.dataset is hub.dataset
        assert "_materialized" not in vars(hub)  # reading the dataset built no tarball
        assert hub.registry is hub.registry
        # failures=False: everything pulls
        assert not hub.truth.auth_repos and not hub.truth.no_latest_repos

    def test_failures_carry_the_presets_shares(self):
        hub = seeded_hub("tiny", 5, failures=True)
        assert hub.truth.auth_repos or hub.truth.no_latest_repos
