"""The resilience matrix: determinism, bit-identity, and the paper's
direction (HERMES degrades less and recovers faster than EXCLUSIVE)."""

import pytest

from repro.faults import (RESILIENCE_MODES, SCENARIOS, FaultInjector,
                          FaultPlan, ResilienceMatrix, render_matrix,
                          run_resilience_cell, run_resilience_matrix)
from repro.lb import LBServer, NotificationMode
from repro.sim import Environment, RngRegistry
from repro.workloads import FixedFactory, TrafficGenerator, WorkloadSpec


def run_device(seed: int, empty_injector: bool):
    """One short run; optionally with an armed empty injector.

    Mirrors the construction order of ``run_resilience_cell`` so stream
    derivation is identical either way.
    """
    env = Environment()
    registry = RngRegistry(seed)
    server = LBServer(env, n_workers=4, ports=[443],
                      mode=NotificationMode.HERMES,
                      hash_seed=registry.stream("hash").randrange(2 ** 32))
    server.start()
    spec = WorkloadSpec(name="ident", conn_rate=200.0, duration=1.0,
                        factory=FixedFactory((300e-6,)), ports=(443,),
                        requests_per_conn=5, request_gap_mean=0.05,
                        reconnect_on_reset=True)
    gen = TrafficGenerator(env, server, registry.stream("traffic"), spec)
    if empty_injector:
        FaultInjector(env, server, FaultPlan(),
                      registry=registry.fork("faults")).arm()
    gen.start()
    env.run(until=1.5)
    metrics = server.metrics
    return (metrics.summary(),
            tuple(metrics.request_latencies.values),
            tuple(len(w.conns) for w in server.workers))


class TestDeterminism:
    def test_empty_plan_is_bit_identical_to_no_injector(self):
        assert run_device(13, empty_injector=True) \
            == run_device(13, empty_injector=False)

    def test_same_plan_and_seed_reproduce_identical_cells(self):
        def cell():
            return run_resilience_cell(
                "worker_hang", NotificationMode.HERMES, seed=3,
                n_workers=4, duration=2.0, settle=1.0)

        assert cell().to_dict() == cell().to_dict()

    def test_matrix_json_is_byte_stable(self):
        def matrix() -> str:
            return run_resilience_matrix(
                seed=5, n_workers=4, scenarios=["worker_hang"],
                modes=(NotificationMode.EXCLUSIVE,
                       NotificationMode.HERMES)).to_json(indent=2)

        assert matrix() == matrix()


class TestCellShape:
    def test_cell_fields_are_sane(self):
        cell = run_resilience_cell("worker_hang", NotificationMode.HERMES,
                                   seed=3, n_workers=4, duration=2.0,
                                   settle=1.0)
        assert cell.scenario == "worker_hang"
        assert cell.mode == "hermes"
        assert cell.faults_fired == 2  # the scenario's hang train
        assert cell.completed > 0
        assert 0.0 <= cell.blast_radius <= 1.0
        assert cell.recovery_time >= 0.0
        assert cell.hung_requests >= 0

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            run_resilience_cell("meteor_strike", NotificationMode.HERMES)

    def test_matrix_lookup_and_render(self):
        matrix = run_resilience_matrix(
            seed=5, n_workers=4, scenarios=["slow_worker"],
            modes=(NotificationMode.HERMES,))
        assert isinstance(matrix, ResilienceMatrix)
        cell = matrix.cell("slow_worker", "hermes")
        assert cell.scenario == "slow_worker"
        with pytest.raises(KeyError):
            matrix.cell("slow_worker", "exclusive")
        table = render_matrix(matrix)
        for header in ("Scenario", "Mode", "Blast", "Recovery(s)"):
            assert header in table

    def test_all_named_scenarios_run(self):
        # Every scenario plan builds and arms against a HERMES device.
        for name in SCENARIOS:
            plan = SCENARIOS[name]()
            assert not plan.empty
        assert set(SCENARIOS) == {"worker_hang", "worker_crash",
                                  "slow_worker", "nic_loss"}
        assert RESILIENCE_MODES == (
            NotificationMode.EXCLUSIVE, NotificationMode.REUSEPORT,
            NotificationMode.HERMES, NotificationMode.PREQUAL,
            NotificationMode.SPLICE)


class TestBlastStats:
    """Unit coverage of the affected-connections accounting: spliced
    flows are kernel-forwarded, so wakeup-centric faults do not put them
    at risk — they leave ``conns_at_risk`` but stay in ``total_conns``."""

    @staticmethod
    def _fake_conn(tenant_id=0, spliced=False):
        from types import SimpleNamespace
        return SimpleNamespace(tenant_id=tenant_id,
                               splice=object() if spliced else None)

    def _stats(self, victim_conns, other_conns):
        from types import SimpleNamespace
        victim = SimpleNamespace(conns=dict(enumerate(victim_conns)))
        other = SimpleNamespace(conns=dict(enumerate(other_conns)))
        server = SimpleNamespace(workers=[victim, other], tracer=None)
        injector = FaultInjector(Environment(), server, FaultPlan())
        return injector._blast_stats(victim)

    def test_spliced_conns_excluded_from_risk_but_counted(self):
        stats = self._stats(
            victim_conns=[self._fake_conn(), self._fake_conn(spliced=True),
                          self._fake_conn(spliced=True)],
            other_conns=[self._fake_conn()])
        assert stats["conns_at_risk"] == 1
        assert stats["total_conns"] == 4

    def test_probe_conns_are_infrastructure(self):
        stats = self._stats(
            victim_conns=[self._fake_conn(), self._fake_conn(tenant_id=-1)],
            other_conns=[self._fake_conn(tenant_id=-2)])
        assert stats["conns_at_risk"] == 1
        assert stats["total_conns"] == 1


class TestBlastRegression:
    """Pins the seed-7 blast numbers so the spliced-flow exclusion in
    ``FaultInjector._blast_stats`` cannot silently shift the headline
    hermes-vs-exclusive story (modes without a splice path must be
    byte-for-byte unaffected by the accounting change)."""

    @pytest.mark.pin
    def test_hang_blast_values_pinned(self, pin):
        for mode in (NotificationMode.EXCLUSIVE, NotificationMode.HERMES):
            cell = run_resilience_cell("worker_hang", mode, seed=7)
            pin(f"blast/worker_hang/{mode.value}", cell.blast_radius)

    @pytest.mark.pin
    def test_crash_blast_values_pinned(self, pin):
        for mode in (NotificationMode.EXCLUSIVE, NotificationMode.HERMES):
            cell = run_resilience_cell("worker_crash", mode, seed=7)
            pin(f"blast/worker_crash/{mode.value}", cell.blast_radius)

    def test_splice_showdown(self):
        # The modeled asymmetry: every at-risk connection on the hung
        # worker had already spliced, so the kernel keeps forwarding and
        # the blast radius is zero; detection still costs failures on a
        # crash, just fewer than a wakeup-dependent architecture.
        hang = run_resilience_cell("worker_hang",
                                   NotificationMode.SPLICE, seed=7)
        crash = run_resilience_cell("worker_crash",
                                    NotificationMode.SPLICE, seed=7)
        assert hang.blast_radius == 0.0
        assert hang.hung_requests == 30
        assert crash.failed == 28
        hermes_hang = run_resilience_cell("worker_hang",
                                          NotificationMode.HERMES, seed=7)
        assert hang.hung_requests < hermes_hang.hung_requests


class TestPaperDirection:
    """The matrix must reproduce the paper's failure story: EXCLUSIVE
    concentrates connections on the LIFO winner, so the busiest worker's
    hang or crash degrades most of the device; HERMES spreads them."""

    def test_hang_blast_and_hung_requests_favor_hermes(self):
        exclusive = run_resilience_cell("worker_hang",
                                        NotificationMode.EXCLUSIVE, seed=7)
        hermes = run_resilience_cell("worker_hang",
                                     NotificationMode.HERMES, seed=7)
        assert hermes.blast_radius < exclusive.blast_radius
        assert hermes.hung_requests < exclusive.hung_requests
        assert hermes.recovery_time <= exclusive.recovery_time

    def test_crash_blast_and_recovery_favor_hermes(self):
        exclusive = run_resilience_cell("worker_crash",
                                        NotificationMode.EXCLUSIVE, seed=7)
        hermes = run_resilience_cell("worker_crash",
                                     NotificationMode.HERMES, seed=7)
        assert hermes.blast_radius < exclusive.blast_radius
        assert hermes.recovery_time <= exclusive.recovery_time
        assert hermes.failed < exclusive.failed
