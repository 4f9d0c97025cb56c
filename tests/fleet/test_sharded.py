"""Sharded fleet engine: determinism, ownership, merge semantics.

The sharding contract has two halves: (1) ``jobs=N`` output is
byte-identical to ``jobs=1`` (slot-indexed collection, enumeration-order
merge — the repro.sweep pattern), and (2) a sharded run is equivalent to
what the ingress function says: every connection lands on the instance
the *global* ECMP/ring pick chooses, the arrival spine hands each shard
exactly the arrivals the old per-shard replay kept, and the merged
counters are pure sums/maxes of the per-shard docs.
"""

import hashlib
import json

import pytest

from repro.fleet import build_fleet, fleet_spec
from repro.fleet.sharded import (ShardIngress, fleet_arrivals, merge_shards,
                                 run_shard, run_sharded_fleet)
from repro.kernel.hash import FourTuple
from repro.kernel.tcp import Connection
from repro.sim.engine import Environment
from repro.sim.rng import RngRegistry
from repro.workloads import arrivals


def _replayed_shard(seed, n_instances, shard_index, duration, conn_rate,
                    ingress):
    """Reference: every shard replays the whole stream in its own engine.

    A copy of the per-shard arrival process the spine replaced: draw gap,
    port pick, 4-tuple and connection seed for every fleet-wide arrival,
    keep the owned ones at ``env.now``, count the rest as foreign.
    """
    env = Environment()
    registry = RngRegistry(seed)
    owner = ShardIngress(ingress, registry.stream("hash").randrange(2 ** 32),
                         n_instances, shard_index).owner
    rng = registry.stream("traffic")
    window = max(0.1, duration - 0.3)
    owned, foreign = [], [0]

    def arrivals():
        while True:
            gap = rng.expovariate(conn_rate)
            if env.now + gap > window:
                return
            yield gap
            rng.random()
            src_ip = 0x0A000000 + rng.randrange(65536)
            src_port = rng.randrange(1024, 65535)
            conn_seed = rng.getrandbits(64)
            four_tuple = FourTuple(src_ip, src_port, 0xC0A80001, 443)
            if owner(four_tuple) != shard_index:
                foreign[0] += 1
                continue
            owned.append((env.now, four_tuple, conn_seed))

    env.process(arrivals())
    env.run(until=duration)
    return owned, foreign[0]


def _doc(**kw):
    defaults = dict(n_instances=4, duration=0.9, conn_rate=120.0, jobs=1)
    defaults.update(kw)
    return run_sharded_fleet(**defaults)


def _canonical(doc):
    # ``latencies`` is the shard's ``array('d')``; list it for JSON.
    return json.dumps(doc, sort_keys=True, default=list)


def _payload(shard_index, **kw):
    """A 4-shard ``run_shard`` payload carrying its slice of the spine."""
    slices, total = fleet_arrivals(31, 4, 0.9, 120.0, "ecmp")
    payload = {"shard_index": shard_index, "n_instances": 4, "n_workers": 2,
               "policy": "stateless", "ingress": "ecmp", "seed": 31,
               "duration": 0.9, "conn_rate": 120.0, "churn_at": 0.6,
               "churn_k": 2, "arrivals": slices[shard_index],
               "total_arrivals": total}
    payload.update(kw)
    return payload


class TestByteIdentity:
    def test_jobs_4_identical_to_jobs_1(self):
        serial = _doc(jobs=1, check=True)
        fanned = _doc(jobs=4, check=True)
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(fanned, sort_keys=True))

    def test_shard_doc_is_rerun_stable(self):
        # run_shard must be a pure function of its payload even when the
        # calling process has already simulated other shards: connection
        # ids run on across shards, and no doc field may depend on them.
        first = run_shard(_payload(1))
        run_shard(_payload(0))  # pollute the process
        again = run_shard(_payload(1))
        assert _canonical(first) == _canonical(again)

    @pytest.mark.pin
    @pytest.mark.parametrize("check", [False, True],
                             ids=["unchecked", "checked"])
    def test_shard_doc_is_pinned(self, check, pin):
        doc = run_shard(_payload(1, check=check))
        pin(f"shard_doc/{'checked' if check else 'unchecked'}",
            hashlib.sha256(_canonical(doc).encode()).hexdigest())


class TestCheckedShards:
    def test_check_arms_live_oracles(self, monkeypatch):
        # ``--check`` promises live differential oracles on the sharded
        # path too: a reference that disagrees must stop the run.
        from repro.check import oracles
        from repro.check.oracles import OracleMismatch

        monkeypatch.setattr(oracles, "ref_cascade", lambda *args: [-1])
        with pytest.raises(OracleMismatch, match="cascade"):
            _doc(jobs=1, check=True)


class TestArrivalSpine:
    @pytest.mark.parametrize("ingress", ["ecmp", "ring"])
    @pytest.mark.parametrize("n_instances", [1, 4, 16])
    @pytest.mark.parametrize("seed", [7, 31, 101])
    def test_spine_matches_per_shard_replay(self, seed, n_instances,
                                            ingress):
        slices, total = fleet_arrivals(seed, n_instances, 0.9, 120.0,
                                       ingress)
        assert len(slices) == n_instances
        for shard_index in range(n_instances):
            owned, foreign = _replayed_shard(seed, n_instances, shard_index,
                                             0.9, 120.0, ingress)
            # Exact equality, times included: 0.0 + t == t, so scheduling
            # every owned arrival at set-up fires it at the replay's time.
            assert slices[shard_index] == owned
            assert total - len(slices[shard_index]) == foreign
        assert total > 0
        # The slices partition the spine: every arrival in exactly one.
        merged = sorted((a for s in slices for a in s), key=lambda a: a[0])
        assert merged == list(arrivals(fleet_spec(0.9, 120.0), seed))

    def test_run_shard_opens_exactly_its_slice(self):
        payload = _payload(2, check=True)
        doc = run_shard(payload)
        assert doc["opened"] == len(payload["arrivals"]) > 0
        assert doc["foreign"] == (payload["total_arrivals"]
                                  - len(payload["arrivals"]))


class TestOwnership:
    def test_shards_partition_the_arrival_stream(self):
        # Across all shards, every arrival is simulated exactly once:
        # owned counts sum to the per-shard arrival total, which is
        # identical in every shard.
        docs = [run_shard(_payload(i, churn_at=None)) for i in range(4)]
        totals = {doc["opened"] + doc["foreign"] for doc in docs}
        assert len(totals) == 1  # same arrival stream everywhere
        arrivals = totals.pop()
        assert sum(doc["opened"] for doc in docs) == arrivals
        assert arrivals > 0

    def test_shard_is_that_instance_of_the_whole_fleet(self):
        # build_fleet(shard=i) builds instance i exactly as the whole
        # fleet does, behind the global pick: a flow another instance
        # owns is refused.
        args = (fleet_spec(0.9, 120.0), "hermes", 31)
        options = dict(n_instances=4, n_workers=2, policy="stateless",
                       ingress="ecmp")
        whole = build_fleet(*args, **options).server
        flows = [FourTuple(0x0A000000 + i, 2000 + i, 0xC0A80001, 443)
                 for i in range(32)]
        owners = [whole.instances.index(
            whole.ingress.pick(flow, whole.instances)) for flow in flows]
        assert set(owners) == {0, 1, 2, 3}
        for index, expected in enumerate(whole.instances):
            shard = build_fleet(*args, shard=index, **options).server
            (instance,) = shard.instances
            assert instance.name == expected.name == f"lb{index}"
            assert instance.stack.hash_seed == expected.stack.hash_seed
            assert instance.ports == expected.ports
            foreign = flows[next(n for n, owner in enumerate(owners)
                                 if owner != index)]
            with pytest.raises(AssertionError, match="owned by instance"):
                shard.connect(Connection(foreign, created_time=0.0))
            owned = flows[owners.index(index)]
            assert shard.connect(Connection(owned, created_time=0.0))

    def test_shard_ingress_rejects_foreign_flow(self):
        ingress = ShardIngress("ecmp", 0x5eed, 4, shard_index=0)
        four_tuple = FourTuple(0x0A000001, 2000, 0xC0A80001, 443)
        owner = ingress.owner(four_tuple)
        if owner == 0:
            assert ingress.pick(four_tuple, ["local"]) == "local"
        else:
            with pytest.raises(AssertionError):
                ingress.pick(four_tuple, ["local"])

    def test_ring_ingress_supported(self):
        doc = _doc(ingress="ring", duration=0.8)
        assert doc["ingress"] == "ring"
        assert doc["completed"] > 0


class TestRefusals:
    def test_ring_bounded_refused(self):
        with pytest.raises(ValueError, match="ring_bounded"):
            _doc(ingress="ring_bounded")

    def test_jobs_zero_refused(self):
        with pytest.raises(ValueError, match="jobs"):
            _doc(jobs=0)

    @pytest.mark.parametrize("conn_rate", [0.0, -5.0, float("nan"),
                                           float("inf")])
    def test_rate_that_cannot_be_honoured_refused(self, conn_rate):
        # A zero rate used to kill the arrival process silently (an
        # all-zero fleet); a negative one would never end the spine.
        with pytest.raises(ValueError, match="conn_rate"):
            _doc(conn_rate=conn_rate)

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("inf")])
    def test_duration_that_cannot_be_honoured_refused(self, duration):
        with pytest.raises(ValueError, match="duration"):
            _doc(duration=duration)

    @pytest.mark.parametrize("churn_k", [0, 8])
    def test_churn_that_cannot_be_honoured_refused_before_any_shard(
            self, churn_k, monkeypatch):
        def no_shard(payload):
            raise AssertionError("a shard ran")

        monkeypatch.setattr("repro.fleet.sharded.run_shard", no_shard)
        with pytest.raises(ValueError, match="churn size"):
            _doc(churn_k=churn_k)


class TestMergeSemantics:
    def test_counters_sum_and_elapsed_maxes(self):
        shards = [
            {"shard_index": 0, "latencies": [0.001, 0.003], "completed": 2,
             "failed": 0, "accepted": 1, "refused": 0, "elapsed": 1.0,
             "backend_version": 1, "churn_events": 1, "broken_backend": 1,
             "broken": 1, "opened": 1, "conn_refused": 0, "conn_reset": 0,
             "requests_sent": 2, "foreign": 3, "pcc_violations": 0,
             "passes": {"pcc": 5}, "steps": 10},
            {"shard_index": 1, "latencies": [0.002], "completed": 1,
             "failed": 1, "accepted": 1, "refused": 1, "elapsed": 1.5,
             "backend_version": 1, "churn_events": 1, "broken_backend": 0,
             "broken": 0, "opened": 1, "conn_refused": 1, "conn_reset": 0,
             "requests_sent": 1, "foreign": 3, "pcc_violations": 2,
             "passes": {"pcc": 7, "clock": 1}, "steps": 5},
        ]
        merged = merge_shards(shards)
        assert merged["completed"] == 3
        assert merged["failed"] == 1
        assert merged["pcc_violations"] == 2
        assert merged["passes"] == {"clock": 1, "pcc": 12}
        assert merged["steps"] == 15
        assert merged["churn_events"] == 1
        assert merged["throughput_rps"] == pytest.approx(3 / 1.5)
        # Pooled percentile over all samples, not a mean of per-shard p99s.
        assert merged["p99_ms"] == pytest.approx(3.0, rel=0.05)
        assert merged["sharded"] is True

    def test_backend_version_divergence_fails_loudly(self):
        base = {"latencies": [], "completed": 0, "failed": 0, "accepted": 0,
                "refused": 0, "elapsed": 1.0, "churn_events": 0,
                "broken_backend": 0, "broken": 0, "opened": 0,
                "conn_refused": 0, "conn_reset": 0, "requests_sent": 0,
                "foreign": 0, "pcc_violations": 0, "passes": {}, "steps": 0}
        with pytest.raises(AssertionError, match="backend version"):
            merge_shards([dict(base, shard_index=0, backend_version=1),
                          dict(base, shard_index=1, backend_version=2)])

    def test_negative_churn_is_no_churn(self):
        # As in fleet_faults and `repro fleet --churn-at -1`.
        assert _doc(churn_at=-1.0) == _doc(churn_at=None)

    def test_churn_applies_in_every_shard(self):
        doc = _doc(churn_at=0.5, churn_k=2, check=True)
        assert doc["backend_version"] == 1
        assert doc["churn_events"] == 1
        assert doc["pcc_violations"] == 0


class TestScale:
    def test_16_instances_sharded(self):
        # The fleet_scale acceptance shape: 16 shards, churn armed,
        # PCC monitored, byte-identical across worker counts.
        serial = run_sharded_fleet(n_instances=16, duration=0.8,
                                   conn_rate=150.0, jobs=1, check=True)
        fanned = run_sharded_fleet(n_instances=16, duration=0.8,
                                   conn_rate=150.0, jobs=4, check=True)
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(fanned, sort_keys=True))
        assert serial["instances"] == 16
        assert serial["completed"] > 0
        assert serial["pcc_violations"] == 0
