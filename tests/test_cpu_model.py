"""Tests for the processor-sharing CPU model."""

from __future__ import annotations

import pytest

from repro.common.errors import SDVMError
from repro.sim.engine import Simulator
from repro.site.kernel import CpuModel


@pytest.fixture
def cpu(sim):
    return CpuModel(sim, speed=1.0)


class TestSingleJob:
    def test_completes_after_cost(self, sim, cpu):
        done = []
        cpu.run(2.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(2.0)]

    def test_zero_cost_fires_immediately(self, sim, cpu):
        done = []
        cpu.run(0.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [0.0]

    def test_negative_rejected(self, cpu):
        with pytest.raises(SDVMError):
            cpu.run(-1.0, lambda: None)

    def test_busy_accounting(self, sim, cpu):
        cpu.run(3.0, lambda: None, overhead=False)
        sim.run()
        assert cpu.busy_total == pytest.approx(3.0)
        assert cpu.overhead_total == pytest.approx(0.0)

    def test_overhead_accounting(self, sim, cpu):
        cpu.charge(1.0, overhead=True)
        sim.run()
        assert cpu.overhead_total == pytest.approx(1.0)


class TestSharing:
    def test_two_equal_jobs_share(self, sim, cpu):
        """Two 1-second jobs admitted together both finish at t=2."""
        done = []
        cpu.run(1.0, lambda: done.append(("a", sim.now)))
        cpu.run(1.0, lambda: done.append(("b", sim.now)))
        sim.run()
        assert done[0][1] == pytest.approx(2.0)
        assert done[1][1] == pytest.approx(2.0)
        # admission order breaks the tie
        assert [name for name, _t in done] == ["a", "b"]

    def test_short_job_not_stuck_behind_long(self, sim, cpu):
        """A tiny job alongside a huge one finishes in ~2x its own time —
        the property that keeps critical-path microthreads responsive."""
        done = []
        cpu.run(100.0, lambda: done.append(("long", sim.now)))
        cpu.run(0.001, lambda: done.append(("short", sim.now)))
        sim.run()
        assert done[0][0] == "short"
        assert done[0][1] == pytest.approx(0.002, rel=1e-6)
        assert done[1][1] == pytest.approx(100.001, rel=1e-6)

    def test_staggered_admission(self, sim, cpu):
        """Job B admitted halfway through A: A has 0.5 left, shares with B
        (1.0): A finishes at 1.5, B at 2.0."""
        done = []
        cpu.run(1.0, lambda: done.append(("a", sim.now)))
        sim.schedule(0.5, lambda: cpu.run(
            1.0, lambda: done.append(("b", sim.now))))
        sim.run()
        assert dict(done)["a"] == pytest.approx(1.5)
        assert dict(done)["b"] == pytest.approx(2.0)

    def test_throughput_conserved(self, sim, cpu):
        """N jobs of total work W all complete by exactly W."""
        done = []
        for i in range(10):
            cpu.run(0.5, lambda i=i: done.append(sim.now))
        sim.run()
        assert max(done) == pytest.approx(5.0)
        assert cpu.busy_total == pytest.approx(5.0)

    def test_utilization(self, sim, cpu):
        cpu.run(1.0, lambda: None)
        sim.run(until=4.0)
        assert cpu.utilization() == pytest.approx(0.25)

    def test_active_jobs(self, sim, cpu):
        cpu.run(1.0, lambda: None)
        cpu.run(1.0, lambda: None)
        assert cpu.active_jobs == 2
        sim.run()
        assert cpu.active_jobs == 0

    def test_stale_wakeup_rearms_without_advancing(self, sim, cpu):
        """Admitting work pushes the completion later; the armed event is
        left in place and its stale fire must not change accounting."""
        done = []
        cpu.run(1.0, lambda: done.append(("a", sim.now)))
        # admitted just before the original t=1.0 target: the old event
        # fires stale at 1.0 and must re-arm, not complete anything
        sim.schedule(0.9, lambda: cpu.run(
            1.0, lambda: done.append(("b", sim.now))))
        sim.run()
        # a: 0.9 done at admission, 0.1 left shared with b -> +0.2 -> 1.1
        # b: then runs alone 0.9 -> 2.0
        assert dict(done)["a"] == pytest.approx(1.1)
        assert dict(done)["b"] == pytest.approx(2.0)
        assert cpu.busy_total == pytest.approx(2.0)
        assert cpu.active_jobs == 0

    def test_many_admissions_single_event_churn(self, sim, cpu):
        """A burst of admissions while one event is armed still completes
        every job at the processor-sharing times."""
        done = []
        for i in range(8):
            sim.schedule(i * 0.01, lambda i=i: cpu.run(
                0.5, lambda i=i: done.append(i)))
        sim.run()
        assert sorted(done) == list(range(8))
        assert cpu.busy_total == pytest.approx(8 * 0.5)
        # total elapsed = total work (one CPU, always busy)
        assert sim.now == pytest.approx(0.07 + 0.5 * 8 - 0.07)

    def test_determinism(self):
        def run_once():
            sim = Simulator(seed=1)
            cpu = CpuModel(sim, 1.0)
            done = []
            for i in range(20):
                sim.schedule(i * 0.1, lambda i=i: cpu.run(
                    0.3 + (i % 3) * 0.2, lambda i=i: done.append(
                        (i, round(sim.now, 12)))))
            sim.run()
            return done

        assert run_once() == run_once()


class _ReferenceCpuModel:
    """Brute-force per-job-decay processor sharing — the oracle.

    This is the pre-optimization CpuModel: every ``_advance`` walks the
    whole job list subtracting the shared slice from each job's stored
    remaining time (O(jobs) per event).  The production model replaced
    the walk with batched virtual-service accounting; this copy stays
    behind as the semantic reference the property test below pins the
    O(1) model against.
    """

    def __init__(self, sim) -> None:
        self._sim = sim
        self.slowdown = 1.0
        self._jobs: list = []  # [remaining, seq, fn, args, overhead]
        self._seq = 0
        self._last_update = 0.0
        self._completion_event = None
        self._target_time = None
        self.busy_total = 0.0
        self.overhead_total = 0.0

    def _advance(self) -> None:
        now = self._sim.now
        dt = now - self._last_update
        self._last_update = now
        n = len(self._jobs)
        if n == 0 or dt <= 0.0:
            return
        share = dt / n
        self.busy_total += dt
        for job in self._jobs:
            job[0] -= share
            if job[4]:
                self.overhead_total += share

    def _reschedule(self) -> None:
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self._jobs:
            self._target_time = None
            return
        shortest = min(job[0] for job in self._jobs)
        if shortest < 0.0:
            shortest = 0.0
        target = self._sim.now + shortest * len(self._jobs)
        self._target_time = target
        self._completion_event = self._sim.schedule_at(
            target, self._complete)

    def _complete(self) -> None:
        self._completion_event = None
        if self._target_time is None:
            return
        self._advance()
        finished = [job for job in self._jobs if job[0] <= 1e-12]
        if finished:
            finished.sort(key=lambda job: job[1])
            self._jobs = [job for job in self._jobs if job[0] > 1e-12]
            for job in finished:
                if job[2] is not None:
                    job[2](*job[3])
        self._reschedule()

    def run(self, seconds, fn, *args, overhead=True):
        seconds *= self.slowdown
        if seconds == 0.0:
            if fn is not None:
                self._sim.schedule(0.0, fn, *args)
            return
        self._advance()
        self._jobs.append([seconds, self._seq, fn, args, overhead])
        self._seq += 1
        self._reschedule()

    def charge(self, seconds, overhead=True):
        self.run(seconds, None, overhead=overhead)


def _random_script(seed: int, nops: int = 60):
    """A randomized admission script: (time, duration, overhead, slowdown).

    Mixes long and short jobs, zero-cost posts, overhead/compute flags,
    and occasional mid-run slowdown changes — the full surface of the
    model's public API.  Most admissions are callback-less ``charge``s,
    as in a run (69 % of the admissions on ``treesum_s256``): a charge
    shows only in when the other jobs finish and in the totals.
    """
    import random as _random

    rng = _random.Random(seed)
    script = []
    t = 0.0
    for _ in range(nops):
        t += rng.expovariate(10.0)
        kind = rng.random()
        if kind < 0.08:
            script.append(("slowdown", t, rng.choice([1.0, 2.0, 5.0])))
        elif kind < 0.16:
            script.append(("admit", t, 0.0, True))
        elif kind < 0.72:
            duration = rng.choice([rng.uniform(1e-6, 1e-4),
                                   rng.uniform(1e-4, 1e-2)])
            script.append(("charge", t, duration, rng.random() < 0.8))
        else:
            duration = rng.choice([rng.uniform(1e-5, 1e-3),
                                   rng.uniform(1e-3, 0.2),
                                   rng.uniform(0.2, 2.0)])
            script.append(("admit", t, duration, rng.random() < 0.5))
    return script


def _play(model_factory, script):
    """Run a script against a fresh sim + model; return the evidence."""
    sim = Simulator(seed=0)
    model = model_factory(sim)
    completions = []

    def admit(label, duration, overhead):
        model.run(duration, lambda: completions.append((label, sim.now)),
                  overhead=overhead)

    label = 0
    for op in script:
        if op[0] == "slowdown":
            _, t, factor = op
            sim.schedule_at(t, lambda f=factor: setattr(
                model, "slowdown", f))
        elif op[0] == "charge":
            _, t, duration, overhead = op
            sim.schedule_at(t, lambda d=duration, o=overhead: model.charge(
                d, overhead=o))
        else:
            _, t, duration, overhead = op
            sim.schedule_at(t, admit, label, duration, overhead)
            label += 1
    sim.run()
    return completions, model.busy_total, model.overhead_total


class TestVirtualServiceEquivalence:
    """Pin the O(1) virtual-service model to the brute-force oracle."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_model(self, seed):
        script = _random_script(seed)
        assert any(op[0] == "charge" for op in script)
        got, got_busy, got_overhead = _play(
            lambda sim: CpuModel(sim, 1.0), script)
        want, want_busy, want_overhead = _play(_ReferenceCpuModel, script)

        assert len(got) == len(want)
        # identical completion ORDER — the semantics schedulers observe
        assert [label for label, _t in got] == [label for label, _t in want]
        # completion times match to float-accumulation noise; the two
        # models intentionally differ in float trajectory
        for (_la, ta), (_lb, tb) in zip(got, want):
            assert ta == pytest.approx(tb, rel=1e-9, abs=1e-9)
        assert got_busy == pytest.approx(want_busy, rel=1e-9, abs=1e-9)
        assert got_overhead == pytest.approx(want_overhead,
                                             rel=1e-9, abs=1e-9)

    def test_long_run_float_error_bounded(self):
        """The service counter re-zeroes at idle, so a long run of many
        busy periods stays accurate to the end."""
        sim = Simulator(seed=0)
        cpu = CpuModel(sim, 1.0)
        done = []
        # 200 well-separated busy periods: counter resets between each
        for i in range(200):
            sim.schedule_at(i * 10.0, lambda: cpu.run(
                1.0, lambda: done.append(sim.now)))
        sim.run()
        assert len(done) == 200
        for i, t in enumerate(done):
            assert t == pytest.approx(i * 10.0 + 1.0, abs=1e-9)
        assert cpu.busy_total == pytest.approx(200.0, rel=1e-12)
