"""Tests for App. C case 2: the phased overload ladder and the sandbox."""

from repro.experiments import appc
from repro.lb import LBServer


def ladder():
    steps = appc.run_phased_scaling()
    labels = [label for label, _, _ in steps]
    capacities = [capacity for _, capacity, _ in steps]
    devices = [count for _, _, count in steps]
    return labels, capacities, devices


class TestEscalation:
    def test_phases_grow_capacity_monotonically(self):
        labels, capacities, _ = ladder()
        assert labels == ["initial", "phase1", "phase2", "phase3"]
        assert capacities == sorted(capacities)
        assert capacities[-1] > capacities[0]

    def test_phase1_uses_existing_groups(self):
        _, capacities, devices = ladder()
        assert capacities[1] > capacities[0]
        assert devices[1] == devices[0]  # nothing provisioned

    def test_phase2_adds_vms(self):
        _, capacities, devices = ladder()
        assert devices[2] == devices[1] + 1
        assert capacities[2] > capacities[1]

    def test_phase3_new_group(self):
        _, capacities, devices = ladder()
        assert devices[3] == devices[2] + 1
        assert capacities[3] > capacities[2]


class TestSandbox:
    def test_migration_isolates_new_connections(self, monkeypatch):
        built = []

        class Capturing(LBServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(appc, "LBServer", Capturing)
        appc.run_sandbox_isolation(seed=91)
        shared, sandbox = built
        served = {device.name: set(device.metrics.tenant_latencies)
                  for device in built}
        # The sandbox serves only the abuser (tenant 0); the shared device
        # served both before the migration.
        assert served == {shared.name: {0, 1}, sandbox.name: {0}}
