"""Experiment service: submit campaigns over HTTP, serve results from the store.

Two layers with one seam:

* :mod:`repro.service.jobs` — :class:`ExperimentService`, which validates
  submission payloads, runs each as a background job through the ordinary
  :class:`~repro.api.campaign.CampaignRunner`, and exposes observable
  :class:`Job` state.  No HTTP anywhere.
* :mod:`repro.service.server` — the HTTP front end (``repro serve``), one
  stdlib :mod:`asyncio` event loop for every connection: ``POST
  /experiments``, ``GET /experiments/<id>`` (optionally a streaming NDJSON
  watch), ``GET /experiments/<id>/result``.

Attach a :class:`~repro.store.store.ResultStore` and a re-submitted
completed campaign is answered from the store index without executing a
single spec — the whole point of content-addressed results.

Typical in-process use (what the tests do)::

    from repro.service import ExperimentService, make_server, serve_forever

    service = ExperimentService(store=store, parallel=False)
    server = make_server("127.0.0.1", 0, service)   # port 0 = pick free
    serve_forever(server, ready_line=False, in_thread=True)
    ...
    server.shutdown(); service.close()
"""

from .jobs import ExperimentService, Job, JobError
from .server import ServiceServer, make_server, serve_forever

__all__ = [
    "ExperimentService",
    "Job",
    "JobError",
    "ServiceServer",
    "make_server",
    "serve_forever",
]
