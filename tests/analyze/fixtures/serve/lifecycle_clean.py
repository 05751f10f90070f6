"""OBS001/OBS002 fixture: the serve-tier lifecycle vocabulary.

Every cancellation and chaos name introduced for job lifecycle
resilience is registered — emitting any of them, by
literal or by constant, must produce no findings.
"""
from repro import obs
from repro.obs import names as obs_names
from repro.obs.names import EVT_JOB_CANCELLED, MET_CANCEL_LATENCY_S
from repro.obs.trace import span

_OBS = obs.scope("fixture.lifecycle")


def cancel_event_by_constant(job_id, reason):
    _OBS.warning(EVT_JOB_CANCELLED, job_id=job_id, reason=reason)


def net_fault_by_literal(tenant, fate):
    _OBS.warning("net_fault_injected", tenant=tenant, fate=fate)


def terminal_counters():
    _OBS.counter(obs_names.MET_JOBS_CANCELLED).inc()
    _OBS.counter(obs_names.MET_JOBS_DEADLINE_EXCEEDED).inc()
    _OBS.counter(obs_names.MET_NET_FAULTS).inc()


def cancel_latency():
    _OBS.histogram(MET_CANCEL_LATENCY_S).observe(0.01)


def watchdog_span(job_id):
    with span(obs_names.SPAN_WATCHDOG, job_id=job_id):
        pass
