"""FaultSpec/FaultPlan: validation, trains, serialization round-trips."""

import pytest

from repro.faults import FaultKind, FaultPlan, FaultSpec


class TestFaultSpecValidation:
    def test_accepts_string_kind(self):
        spec = FaultSpec(kind="worker_hang", at=1.0, duration=0.2)
        assert spec.kind is FaultKind.WORKER_HANG

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="fault time"):
            FaultSpec(kind=FaultKind.WORKER_HANG, at=-0.1)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            FaultSpec(kind=FaultKind.WORKER_HANG, at=0.0, duration=-1.0)

    def test_train_needs_period(self):
        with pytest.raises(ValueError, match="period"):
            FaultSpec(kind=FaultKind.WORKER_HANG, at=0.0, duration=0.1,
                      count=3)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            FaultSpec(kind=FaultKind.WORKER_HANG, at=0.0, target="loudest")

    @pytest.mark.parametrize("kind", [FaultKind.WST_TORN_BURST,
                                      FaultKind.NIC_LOSS])
    def test_probability_kinds_bound_magnitude(self, kind):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind=kind, at=0.0, duration=0.1, magnitude=1.5)
        # In-range magnitudes pass.
        FaultSpec(kind=kind, at=0.0, duration=0.1, magnitude=0.5)

    def test_restart_requires_crash_kind(self):
        with pytest.raises(ValueError, match="restart_after"):
            FaultSpec(kind=FaultKind.WORKER_HANG, at=0.0, duration=0.1,
                      restart_after=1.0)

    def test_restart_requires_detection_first(self):
        with pytest.raises(ValueError, match="detect_delay"):
            FaultSpec(kind=FaultKind.WORKER_CRASH, at=0.0, restart_after=1.0)
        with pytest.raises(ValueError, match="restart_after"):
            FaultSpec(kind=FaultKind.WORKER_CRASH, at=0.0, detect_delay=0.5,
                      restart_after=0.2)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["at", "duration", "period", "jitter",
                                      "magnitude", "detect_delay",
                                      "restart_after"])
    def test_non_finite_field_rejected(self, name, value):
        # NaN passes every ``x < 0`` check: a NaN hang duration never
        # cleared and a NaN detect_delay crashed the engine mid-run.
        fields = dict(kind=FaultKind.WORKER_CRASH, at=0.5,
                      detect_delay=0.1, restart_after=0.2)
        fields[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            FaultSpec(**fields)

    def test_needs_rng_only_for_random_draws(self):
        assert not FaultSpec(kind=FaultKind.WORKER_HANG, at=0.0,
                             target="busiest").needs_rng
        assert FaultSpec(kind=FaultKind.WORKER_HANG, at=0.0,
                         target="random").needs_rng
        assert FaultSpec(kind=FaultKind.WORKER_HANG, at=0.0,
                         jitter=0.01).needs_rng


class TestFireTimes:
    def test_single_occurrence(self):
        spec = FaultSpec(kind=FaultKind.WORKER_HANG, at=1.5, duration=0.1)
        assert spec.fire_times() == (1.5,)

    def test_train_spacing(self):
        spec = FaultSpec(kind=FaultKind.WORKER_HANG, at=1.0, duration=0.1,
                         count=3, period=0.5)
        assert spec.fire_times() == (1.0, 1.5, 2.0)


class TestPlanSerialization:
    def plan(self) -> FaultPlan:
        return FaultPlan(faults=(
            FaultSpec(kind=FaultKind.WORKER_HANG, at=1.0, duration=0.4,
                      target="busiest", count=2, period=0.8),
            FaultSpec(kind=FaultKind.WORKER_CRASH, at=2.0, target=3,
                      detect_delay=0.2, restart_after=0.7),
            FaultSpec(kind=FaultKind.NIC_LOSS, at=0.5, duration=0.3,
                      magnitude=0.25, jitter=0.05),
        ), seed=99)

    def test_json_round_trip_is_identity(self):
        plan = self.plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_json_is_canonical(self):
        plan = self.plan()
        assert plan.to_json() == FaultPlan.from_json(plan.to_json()).to_json()

    def test_file_round_trip(self, tmp_path):
        plan = self.plan()
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_json_nan_rejected(self):
        text = ('{"faults": [{"kind": "worker_hang", "at": 0.5, '
                '"duration": NaN}], "seed": 1}')
        with pytest.raises(ValueError, match="duration must be finite"):
            FaultPlan.from_json(text)

    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.empty
        assert len(plan) == 0
        assert list(plan) == []
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_iteration_preserves_order(self):
        plan = self.plan()
        assert [s.kind for s in plan] == [FaultKind.WORKER_HANG,
                                         FaultKind.WORKER_CRASH,
                                         FaultKind.NIC_LOSS]


class TestKindApplicability:
    """Kind-inapplicable fields are rejected, not silently ignored —
    one behaviour per serialized plan (the fuzzer's canonicality rule)."""

    def test_detect_delay_rejected_on_non_crash_kinds(self):
        with pytest.raises(ValueError, match="detect_delay"):
            FaultSpec(kind=FaultKind.WORKER_HANG, at=1.0, duration=0.1,
                      detect_delay=0.005)

    def test_detect_delay_allowed_on_crash_kinds(self):
        FaultSpec(kind=FaultKind.WORKER_CRASH, at=1.0, detect_delay=0.005)
        FaultSpec(kind=FaultKind.INSTANCE_CRASH, at=1.0, target=0,
                  detect_delay=0.005)

    def test_server_id_rejected_on_worker_scoped_kinds(self):
        # No kind takes a server_id: a plan naming one is refused.
        with pytest.raises(ValueError, match="server_id"):
            FaultSpec.from_dict({"kind": "worker_crash", "at": 1.0,
                                 "detect_delay": 0.005, "server_id": 2})

    @pytest.mark.parametrize("kind", [FaultKind.BACKEND_CHURN,
                                      FaultKind.NIC_LOSS,
                                      FaultKind.BITMAP_SYNC_LOSS])
    def test_target_rejected_on_untargeted_kinds(self, kind):
        kwargs = {"magnitude": 0.5} if kind is FaultKind.NIC_LOSS else {}
        with pytest.raises(ValueError, match="target"):
            FaultSpec(kind=kind, at=1.0, target=0, **kwargs)

    def test_target_allowed_on_instance_kinds(self):
        FaultSpec(kind=FaultKind.INSTANCE_DRAIN, at=1.0, duration=0.2,
                  target="busiest")

    def test_valid_plan_serialization_byte_unchanged(self):
        # The stricter validation must not alter how valid plans
        # serialize: same fields, same canonical JSON.
        plan = FaultPlan(faults=(
            FaultSpec(kind=FaultKind.WORKER_CRASH, at=2.5,
                      target="busiest", detect_delay=0.005),
        ), seed=7)
        assert plan.to_json() == (
            '{"faults": [{"at": 2.5, "count": 1, "detect_delay": 0.005, '
            '"duration": 0.0, "jitter": 0.0, "kind": "worker_crash", '
            '"magnitude": 1.0, "period": 0.0, "restart_after": null, '
            '"target": "busiest"}], "seed": 7}')
