"""The site manager — local lifecycle, performance data, status queries (§4).

"In contrast to the cluster manager, the site manager focuses on the local
site.  It offers the functionality to start and end the local site, and to
sign on to an existing SDVM cluster.  It also collects performance data
about the local site."
"""

from __future__ import annotations

from repro.common.ids import ManagerId
from repro.messages import MsgType, SDMessage, make_reply
from repro.site.manager_base import Manager


class SiteManager(Manager):
    manager_id = ManagerId.SITE

    def __init__(self, site) -> None:  # noqa: ANN001
        super().__init__(site)
        # --- power management (§2.2 organic-computing proposal) ---------
        self._last_active = 0.0
        self._sleep_timer = None
        self._sleep_started = 0.0
        #: accumulated seconds spent in the sleep state
        self.sleep_seconds = 0.0

    # ------------------------------------------------------------------
    # power management: sleep when out of work, wake on traffic

    def on_start(self) -> None:
        self._last_active = self.kernel.now
        if self.config.power.enabled:
            self._schedule_sleep_check()

    def note_activity(self) -> None:
        """Called when work arrives/executes; resets the idle clock."""
        self._last_active = self.kernel.now
        if self.site.sleeping:
            self.wake()

    def wake(self) -> None:
        if not self.site.sleeping:
            return
        self.site.sleeping = False
        self.sleep_seconds += self.kernel.now - self._sleep_started
        self.stats.inc("wakeups")
        tr = self.tracer
        if tr is not None:
            tr.emit(self.kernel.now, self.local_id, "site_wake")
        self.site.scheduling_manager.kick()
        self.site.processing_manager.kick()

    def _schedule_sleep_check(self) -> None:
        self._sleep_timer = self.kernel.call_later(
            self.config.power.sleep_after / 2, self._sleep_check)

    def _sleep_check(self) -> None:
        self._sleep_timer = None
        if not self.site.running:
            return
        power = self.config.power
        idle_for = self.kernel.now - self._last_active
        if (not self.site.sleeping
                and self.current_load() == 0
                and idle_for >= power.sleep_after):
            self.site.sleeping = True
            self._sleep_started = self.kernel.now
            self.stats.inc("sleeps")
            tr = self.tracer
            if tr is not None:
                tr.emit(self.kernel.now, self.local_id, "site_sleep")
            self.log("out of work for %.3fs; entering sleep state",
                     idle_for)
        self._schedule_sleep_check()

    def energy_report(self) -> dict:
        """Per-site energy consumption under the configured wattages."""
        power = self.config.power
        now = self.kernel.now
        cpu = getattr(self.kernel, "cpu", None)
        busy = cpu.busy_total if cpu is not None else 0.0
        sleep = self.sleep_seconds
        if self.site.sleeping:
            sleep += now - self._sleep_started
        idle = max(0.0, now - busy - sleep)
        joules = (busy * power.busy_watts + idle * power.idle_watts
                  + sleep * power.sleep_watts)
        return {"busy_s": busy, "idle_s": idle, "sleep_s": sleep,
                "joules": joules}

    # ------------------------------------------------------------------
    def current_load(self) -> int:
        """The load figure advertised to other sites: queued + running
        frames (the envelope's ``src_load``)."""
        return (self.site.scheduling_manager.queue_depth()
                + self.site.processing_manager.current_load())

    def full_status(self) -> dict:
        """Status of all local managers ("query the status of the local
        site, i.e. all local managers")."""
        return {
            "site_id": self.local_id,
            "physical": self.kernel.local_physical(),
            "platform": self.site.site_config.platform,
            "speed": self.site.site_config.speed,
            "load": self.current_load(),
            "managers": {
                mgr.manager_id.name.lower(): mgr.status()
                for mgr in self.site.managers.values()
            },
        }

    # ------------------------------------------------------------------
    # orderly departure (§3.4): announce, drain, relocate, forward, stop.
    #
    # "The sign off process is a bit more difficult, as every site owns a
    # part of the global memory.  All microframes and the local part of the
    # global memory have to be relocated to other sites before shutdown to
    # avoid damaging the data coherency."

    #: wait after draining so in-flight messages land before the export
    SETTLE_DELAY = 2e-3
    #: zombie window during which stragglers are forwarded to the heir
    FORWARD_GRACE = 0.05

    def sign_off(self) -> bool:
        """Leave the cluster without disturbing running programs.

        Returns False when this is the last site (nothing to relocate to —
        the caller should just stop the cluster).
        """
        if self.site.leaving:
            return True
        heir = self.site.cluster_manager.choose_heir()
        if heir is None:
            return False
        self.log("signing off; heir is site %d", heir)
        self.site.leaving = True
        tr = self.tracer
        if tr is not None:
            tr.emit(self.kernel.now, self.local_id, "sign_off", heir)
        # 1) announce, so peers route new traffic to the heir
        self.site.cluster_manager.broadcast_sign_off(heir)
        # 2) stop taking new work (pause refuses help + PM intake) and
        #    let in-flight executions drain
        self.site.paused = True
        self.stats.inc("sign_offs")
        self._drain_then_export(heir)
        return True

    def _drain_then_export(self, heir: int) -> None:
        if not self.site.running:
            return
        if self.site.processing_manager.in_flight > 0:
            self.kernel.call_later(1e-3, self._drain_then_export, heir)
            return
        self.kernel.call_later(self.SETTLE_DELAY, self._export_and_stop,
                               heir)

    def _export_and_stop(self, heir: int) -> None:
        if not self.site.running:
            return
        if self.site.processing_manager.in_flight > 0:
            # a straggler arrived during the settle window; drain again
            self._drain_then_export(heir)
            return
        self.log("relocating state to heir %d", heir)
        self.site.attraction_memory.send_state_to_heir(heir)
        # 3) zombie window: forward anything that still arrives
        self.site.forward_to = heir
        self.kernel.call_later(self.FORWARD_GRACE, self._final_stop)

    def _final_stop(self) -> None:
        self.site.stop()

    def on_stop(self) -> None:
        if self._sleep_timer is not None:
            self.kernel.cancel(self._sleep_timer)
            self._sleep_timer = None

    # ------------------------------------------------------------------
    def handle(self, msg: SDMessage) -> None:
        if msg.type == MsgType.STATUS_REPLY:
            # unsolicited/late status reply: its envelope's load figures
            # were applied before dispatch, and there is nothing else to do
            return
        if msg.type == MsgType.STATUS_QUERY:
            self.site.message_manager.send(make_reply(
                msg, MsgType.STATUS_REPLY,
                {"load": self.current_load(),
                 "site_id": self.local_id,
                 "queue_depth": self.site.scheduling_manager.queue_depth()}))
        elif msg.type == MsgType.SHUTDOWN:
            self.sign_off()
        else:
            super().handle(msg)
