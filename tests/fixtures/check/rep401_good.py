"""Good: registry constant, registered literal, and a factory."""
from repro.obs import active_metrics, names


def publish(codec: str) -> None:
    active_metrics().counter(names.FAULTS_INJECTED_BITS).inc()
    active_metrics().counter("faults.injected_events").inc()
    active_metrics().counter(names.ecc_metric(codec, "clean")).inc()


def publish_profile() -> None:
    active_metrics().histogram(names.PROFILE_BURST_LENGTH).add("4-7")
    active_metrics().counter("profile.fast_path.instructions").inc()


def publish_serve() -> None:
    active_metrics().counter(names.SERVE_JOBS_RECOVERED).inc()
    active_metrics().counter("serve.deadline_kills").inc()
