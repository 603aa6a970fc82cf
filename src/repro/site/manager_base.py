"""Base class all SDVM managers derive from."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.ids import ManagerId
from repro.common.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.site.daemon import SDVMSite


class Manager:
    """One functional module of the site daemon (paper Fig. 3).

    Managers hold per-site state, react to :class:`~repro.messages.SDMessage` deliveries,
    and talk to sibling managers through direct references on
    ``self.site`` — exactly the paper's structure where only *inter-site*
    communication goes through the message manager.  A message reaches
    the method its type names (:data:`repro.messages.HANDLER_OF`):
    ``_on_help_request`` on the manager that owns HELP_REQUEST.  A type
    whose owner has no such method is dropped by the site.

    A fact a manager records goes through :meth:`note`: one name, both the
    counter every run keeps and, when tracing is on, the journal event
    (:data:`repro.trace.tracer.EVENT_FIELDS`).  A plain ``stats.inc`` is
    for a fact the journal has no kind for.
    """

    manager_id: ManagerId

    def __init__(self, site: "SDVMSite") -> None:
        self.site = site
        self.kernel = site.kernel
        self.stats = StatSet()
        #: structured tracer, or None when tracing is off (see :meth:`note`)
        self.tracer = site.tracer
        #: cost model, bound once — a site's config is fixed at construction,
        #: and ``self.cost.x`` sits on per-message hot paths where a property
        #: indirection is measurable
        self.cost = site.config.cost

    # convenient shortcuts -------------------------------------------------
    @property
    def config(self):  # noqa: ANN201 — SDVMConfig
        return self.site.config

    @property
    def local_id(self) -> int:
        return self.site.site_id

    @property
    def log(self):  # noqa: ANN201
        return self.site.log

    def note(self, kind: str, *fields: object) -> None:
        """Count one ``kind`` fact and, when tracing, journal it with
        ``fields`` (the schema's positional fields of ``kind``)."""
        self.stats.inc(kind)
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(self.kernel.now, self.site.site_id, kind, *fields)

    # lifecycle ------------------------------------------------------------
    def on_start(self) -> None:
        """Called once the site has a logical id and is part of a cluster."""

    def on_stop(self) -> None:
        """Called during orderly shutdown."""
