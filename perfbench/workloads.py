"""The three benchmark workloads.

Each workload is driven only through the program's public entry
points (``run_campaign``, ``repro.cli.run``, ``ServerThread`` and
``ServeClient``) and exposes the same surface to ``run.py``:

``setup()``          imports and one-off preparation (timed as setup_s)
``prepare()``        the part of setup that is not an import; the traced
                     run repeats it under the tracer
``run_pass()``       one round of work, returned as a list of :class:`Pass`
``measure(seconds)`` passes until ``seconds`` have elapsed, sampling the
                     machine's speed with ``probe`` as they run
``factors(passes)``  the speed scale factor of each pass
``latencies(passes, factors)`` the scaled latency of each job
``check(passes)``    output checks; returns ``(failed, errors)``
``close()``          stop whatever ``setup``/``prepare`` started

Passes are timed with ``probe.clock``, which leaves out the time the
probe spends sampling.  Module functions are always called through
their module (``campaign.run_campaign``), so the traced run's wrappers
are seen.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import GAP_SAMPLES, SpeedProbe
from traffic import FFT_POINTS, Traffic

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Pass:
    """Measured outcome of one pass of a workload."""

    wall_s: float
    latencies: list = field(default_factory=list)
    output: object = None
    attempted: int = 0
    jobs: int = 0
    #: ``probe.clock`` seconds at the start and end of each job.
    job_spans: list = field(default_factory=list)
    #: Passes of one group do the same work (one scheme's campaign
    #: point); ``run.py`` averages within each group.
    group: str = ""
    #: ``probe.clock`` seconds at the start and end of the pass.
    start: float = 0.0
    end: float = 0.0


class _TaskClock:
    """``run_campaign`` progress observer timing each seeded run.

    The executor calls ``on_task`` as each run lands; runs execute
    serially, so the time between two calls is one run's latency.
    """

    def __init__(self, clock) -> None:
        self.latencies: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self._clock = clock
        self._last = clock()

    def on_start(self, total: int, resumed: int, workers: int) -> None:
        self._last = self._clock()

    def on_task(self, key: str, seconds) -> None:
        now = self._clock()
        self.latencies.append(now - self._last)
        self.spans.append((self._last, now))
        self._last = now

    def on_quarantine(self, key: str) -> None:
        self._last = self._clock()


#: Rounds of work a single-threaded run measures at least, however
#: long they take: 120 seeded runs of ``campaign-stress`` (so that ten
#: or more latencies lie beyond p90), two reports.  No more, so that a
#: run on a slow machine stays short.
MIN_ROUNDS = 2
#: Seconds between two speed samples during single-threaded passes.
SAMPLE_INTERVAL_S = 0.1


def _measure_passes(workload, seconds: float) -> list:
    """Rounds of passes: at least ``MIN_ROUNDS``, and more until the
    next round would end after ``seconds``.  A timer samples the
    machine's speed throughout."""
    passes, rounds, last = [], 0, 0.0
    start = time.perf_counter()
    with workload.probe.sampling(SAMPLE_INTERVAL_S):
        while rounds < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
            round_ = workload.run_pass()
            passes.extend(round_)
            rounds += 1
            last = sum(p.wall_s for p in round_)
    return passes


#: Speed samples a seeded run of ``campaign-stress`` is scaled by.
JOB_SAMPLES = 5


def _factors_per_pass(workload, passes: list) -> list:
    """Each pass scaled by the timer samples taken during it."""
    return [workload.probe.factor(p.start, p.end) for p in passes]


def _latencies_per_pass(workload, passes: list, factors: list) -> list:
    """Each latency scaled by its pass's factor."""
    return [lat * f for p, f in zip(passes, factors) for lat in p.latencies]


class CampaignStress:
    """The paper's failure-rate experiment under fault traffic."""

    name = "campaign-stress"
    root_names = ("bench.setup", "bench.pass")

    vdd = 0.40

    def __init__(self, seed: int, runs: int = 20, fft_points: int = 64) -> None:
        self.seed = seed
        self.probe = SpeedProbe()
        self.runs = runs
        self.fft_points = fft_points
        self.seed_base = 100 + 1000 * seed

    @property
    def sizes(self) -> dict:
        return {
            "schemes": ["none", "SECDED", "OCEAN"], "runs": self.runs,
            "fft_points": self.fft_points, "vdd": self.vdd,
            "seed_base": self.seed_base,
            "access_law": "ACCESS_CELL_BASED_40NM", "processes": 1,
        }

    def setup(self) -> None:
        from repro.analysis import campaign
        from repro.core.access import ACCESS_CELL_BASED_40NM
        from repro.mitigation import NoMitigationRunner, OceanRunner, SecdedRunner
        from repro.workloads import fft

        self._campaign = campaign
        self._fft = fft
        self._access = ACCESS_CELL_BASED_40NM
        self._runners = (NoMitigationRunner, SecdedRunner, OceanRunner)
        self.prepare()

    def prepare(self) -> None:
        self.program = self._fft.build_fft_program(self.fft_points)
        self.golden = self.program.expected_output(
            list(self.program.data_words[: self.fft_points])
        )

    def _campaign_point(self, runner_cls, **options):
        return self._campaign.run_campaign(
            runner_cls, self.program.workload, self.golden, self._access,
            vdd=self.vdd, runs=self.runs, seed_base=self.seed_base, **options,
        )

    def run_pass(self) -> list:
        """One campaign: a pass per scheme's campaign point."""
        passes = []
        for runner_cls in self._runners:
            clock = _TaskClock(self.probe.clock)
            start = self.probe.clock()
            result = self._campaign_point(runner_cls, progress=clock)
            end = self.probe.clock()
            passes.append(Pass(
                wall_s=end - start, latencies=clock.latencies,
                output={runner_cls.name: result}, attempted=self.runs,
                jobs=len(clock.latencies), group=runner_cls.name,
                start=start, end=end, job_spans=clock.spans,
            ))
        return passes

    def measure(self, seconds: float) -> list:
        return _measure_passes(self, seconds)

    factors = _factors_per_pass

    def latencies(self, passes: list, factors: list) -> list:
        """Each seeded run scaled by the ``JOB_SAMPLES`` samples nearest
        to it: the machine's speed flips within a pass, and a seeded run
        is short enough to fall on one side of a flip."""
        return [
            lat * self.probe.factor(start, end, at_least=JOB_SAMPLES)
            for p in passes for lat, (start, end) in zip(p.latencies, p.job_spans)
        ]

    def expected(self) -> dict:
        """Reference results: the stored ones for seed 0, otherwise a
        fast-lane run of the same campaign (bit-exact with the default
        engine, and a different code path)."""
        from repro.store.pipeline import encode_campaign_result

        reference = REFERENCE_DIR / f"campaign-stress-seed{self.seed}.json"
        if reference.exists() and self.runs == 20 and self.fft_points == 64:
            import json

            return json.loads(reference.read_text(encoding="utf-8"))
        return {
            runner_cls.name: encode_campaign_result(
                self._campaign_point(runner_cls, fast_lane=True)
            )
            for runner_cls in self._runners
        }

    def check(self, passes: list) -> tuple[int, list]:
        from repro.store.pipeline import encode_campaign_result

        expected = self.expected()
        failed, errors = 0, []
        for index, measured in enumerate(passes):
            for scheme, result in measured.output.items():
                bad = result.quarantined
                if encode_campaign_result(result) != expected[scheme]:
                    errors.append(f"pass {index}: {scheme} result differs from reference")
                    bad = self.runs
                failed += bad
        return failed, errors

    def close(self) -> None:
        pass


class ExhibitReport:
    """The full paper report at the paper's FFT size, via the CLI."""

    name = "exhibit-report"
    root_names = ("bench.setup", "bench.pass")

    def __init__(self, seed: int, fft_points: int = 1024) -> None:
        self.seed = seed  # unused: the report has no generated inputs
        self.probe = SpeedProbe()
        self.fft_points = fft_points
        self.argv = ["report", "--fft", str(fft_points)]

    @property
    def sizes(self) -> dict:
        return {"argv": self.argv}

    def setup(self) -> None:
        from repro import cli

        self._cli = cli

    def prepare(self) -> None:
        pass

    def run_pass(self) -> list:
        start = self.probe.clock()
        text = self._cli.run(list(self.argv))
        end = self.probe.clock()
        return [Pass(wall_s=end - start, latencies=[end - start], output=text,
                     attempted=1, jobs=1, start=start, end=end)]

    def measure(self, seconds: float) -> list:
        return _measure_passes(self, seconds)

    factors = _factors_per_pass
    latencies = _latencies_per_pass

    def check(self, passes: list) -> tuple[int, list]:
        reference = REFERENCE_DIR / f"exhibit-report-fft{self.fft_points}.txt"
        expected = reference.read_text(encoding="utf-8")
        failed, errors = 0, []
        for index, measured in enumerate(passes):
            if measured.output != expected:
                failed += 1
                errors.append(f"pass {index}: report differs from {reference.name}")
        return failed, errors

    def close(self) -> None:
        pass


class ServeMixed:
    """Closed-loop clients against an in-process campaign server."""

    name = "serve-mixed"
    root_names = ("bench.setup", "bench.client")

    #: Closed-loop clients, and server workers: one per core of a
    #: two-core machine.
    clients = 2
    #: Requests of one pass: a window of consecutive requests that the
    #: clients serve closed-loop before the probe samples the idle
    #: machine's speed.
    window = 20
    #: Requests a run makes at least, however long they take, so that
    #: ten or more latencies lie beyond p90.
    min_jobs = 400
    #: ``ServeClient.wait`` poll interval, the resolution of a latency.
    poll_s = 0.02
    job_deadline_s = 120.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.probe = SpeedProbe()
        self.workdir = workdir
        self.traffic = Traffic(seed, clients=self.clients)
        self._handle = None
        self._servers = 0
        self._grid_jobs: dict = {}
        self._grid_entries: dict = {}
        self._lock = threading.Lock()

    @property
    def sizes(self) -> dict:
        return {
            "clients": self.clients, "server_workers": self.clients,
            "window": self.window, "min_jobs": self.min_jobs,
            "poll_s": self.poll_s,
            "mix": "blocks of every (kind, scheme) pair once",
            "campaign_seed": self.traffic.campaign_seed,
            "fft_points": FFT_POINTS, "loop": "closed",
        }

    def setup(self) -> None:
        from repro import serve, store
        from repro.analysis import campaign
        from repro.core.access import ACCESS_CELL_BASED_40NM_TYPICAL
        from repro.mitigation import NoMitigationRunner, OceanRunner, SecdedRunner
        from repro.store import pipeline
        from repro.workloads import fft

        self._serve = serve
        self._store = store
        self._campaign = campaign
        self._pipeline = pipeline
        self._fft = fft
        self._access = ACCESS_CELL_BASED_40NM_TYPICAL
        self._runners = {
            "none": NoMitigationRunner, "secded": SecdedRunner, "ocean": OceanRunner,
        }
        self.prepare()

    def prepare(self) -> None:
        """Build the oracle's FFT program and start a fresh store and server."""
        self.close()
        self._grid_jobs.clear()
        self._grid_entries.clear()
        self.program = self._fft.build_fft_program(FFT_POINTS)
        self.golden = self.program.expected_output(
            list(self.program.data_words[:FFT_POINTS])
        )
        self._servers += 1
        path = self.workdir / f"store-{self._servers}" / "results.sqlite"
        handle = self._serve.ServerThread(self._store.ResultStore(path), workers=self.clients)
        self._handle = handle.__enter__()

    def close(self) -> None:
        if self._handle is not None:
            handle, self._handle = self._handle, None
            handle.__exit__(None, None, None)

    # -- traced-run hooks ------------------------------------------------
    @staticmethod
    def _spec_key(scheme: str, vdds, runs: int, seed: int) -> tuple:
        return (scheme.lower(), tuple(float(v) for v in vdds), int(runs), int(seed))

    def grid_job(self, args, kwargs):
        """Job id of a ``scheme_failure_grid`` call; logs its start."""
        key = self._spec_key(
            args[0].name, args[4], kwargs.get("runs", 20), kwargs.get("seed_base", 100)
        )
        with self._lock:
            self._grid_entries.setdefault(key, self.probe.clock())
            return self._grid_jobs.get(key)

    # -- measurement ---------------------------------------------------------
    def measure(self, seconds: float, max_jobs: int | None = None, tracer=None) -> list:
        """Serve windows of requests: at least ``min_jobs`` requests and
        more until the next window would end after ``seconds``, or
        exactly ``max_jobs`` requests.  Between two windows, with the
        server idle, the probe samples the machine's speed.
        """
        windows: list = []
        issued, last = 0, 0.0
        start = time.perf_counter()
        self.probe.sample(GAP_SAMPLES)
        while True:
            if max_jobs is not None:
                size = min(self.window, max_jobs - issued)
                if size <= 0:
                    break
            elif issued >= self.min_jobs and time.perf_counter() - start + last > seconds:
                break
            else:
                size = self.window
            windows.append(self._serve_window(range(issued, issued + size), tracer))
            issued += size
            last = windows[-1].wall_s
            self.probe.sample(GAP_SAMPLES)
        return windows

    def factors(self, passes: list) -> list:
        """One factor for the whole run, from every gap's samples.

        A window's own two gaps are too few samples to scale it by:
        per-window factors made the run's figures less steady, not more.
        """
        factor = self.probe.factor(passes[0].start, passes[-1].end)
        return [factor] * len(passes)

    latencies = _latencies_per_pass

    def _serve_window(self, indices: range, tracer) -> Pass:
        """Requests ``indices`` through the closed-loop clients.

        A request that raises is recorded as failed and the client goes
        on, so every request issued is counted in ``attempted``.
        """
        url = self._handle.url
        records: list = []
        pending = iter(indices)

        def client_loop() -> None:
            client = self._serve.ServeClient(url, timeout_s=60.0)
            while True:
                with self._lock:
                    index = next(pending, None)
                if index is None:
                    return
                kind, spec = self.traffic[index]
                job = f"req-{index:04d}"
                key = self._spec_key(spec["scheme"], spec["vdds"], spec["runs"], spec["seed"])
                with self._lock:
                    self._grid_jobs.setdefault(key, job)
                began = self.probe.clock()
                record = {"index": index, "kind": kind, "spec": spec, "key": key,
                          "began": began}
                try:
                    if tracer is None:
                        self._request(client, spec, record)
                    else:
                        with tracer.span("bench.client", job=job):
                            self._request(client, spec, record)
                except Exception as exc:  # noqa: BLE001 - counted as a failed request
                    record["error"] = f"{type(exc).__name__}: {exc}"
                record["ended"] = self.probe.clock()
                with self._lock:
                    records.append(record)

        threads = [
            threading.Thread(target=client_loop, name=f"bench-client-{n}")
            for n in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records.sort(key=lambda record: record["index"])
        latencies = [r["ended"] - r["began"] for r in records if "error" not in r]
        start = min(r["began"] for r in records)
        end = max(r["ended"] for r in records)
        return Pass(
            wall_s=end - start, latencies=latencies, output=records,
            attempted=len(records), jobs=len(latencies), start=start, end=end,
        )

    def _request(self, client, spec: dict, record: dict) -> None:
        submitted = client.submit(spec)
        record["deduplicated"] = bool(submitted.get("deduplicated"))
        body = client.wait(
            submitted["job"], poll_s=self.poll_s, deadline_s=self.job_deadline_s
        )
        record["results"] = body.get("results")

    def queue_waits(self, records: list) -> list:
        """Submit call to grid entry, per job the server executed.

        Timed from the call, not its return: with a free worker the
        grid is usually entered before the submit response is read.
        """
        waits = []
        for record in records:
            entered = self._grid_entries.get(record["key"])
            if record.get("deduplicated") is False and entered is not None:
                waits.append(entered - record["began"])
        return waits

    def check(self, passes: list) -> tuple[int, list]:
        """Every served point equals a direct fast-lane ``run_campaign``."""
        oracle: dict = {}
        failed, errors = 0, []
        for measured in passes:
            for record in measured.output:
                problem = record.get("error") or self._wrong_point(record, oracle)
                if problem:
                    failed += 1
                    errors.append(f"request {record['index']}: {problem}")
        return failed, errors

    def _wrong_point(self, record: dict, oracle: dict) -> str | None:
        spec, results = record["spec"], record.get("results")
        if not results or len(results) != len(spec["vdds"]):
            return "missing or short result"
        for vdd, served in zip(spec["vdds"], results):
            key = (spec["scheme"], vdd, spec["runs"], spec["seed"])
            if key not in oracle:
                oracle[key] = self._pipeline.encode_campaign_result(
                    self._campaign.run_campaign(
                        self._runners[spec["scheme"]], self.program.workload,
                        self.golden, self._access, vdd=vdd, runs=spec["runs"],
                        seed_base=spec["seed"], macro_style="cell-based",
                        fast_lane=True,
                    )
                )
            if served.get("quarantined"):
                return f"quarantined runs at {vdd} V"
            if served != oracle[key]:
                return f"served result at {vdd} V differs from a direct run"
        return None


def make(name: str, seed: int, workdir: Path):
    if name == CampaignStress.name:
        return CampaignStress(seed)
    if name == ExhibitReport.name:
        return ExhibitReport(seed)
    if name == ServeMixed.name:
        return ServeMixed(seed, workdir)
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = (CampaignStress.name, ExhibitReport.name, ServeMixed.name)
