"""One workload in one fresh interpreter: set up, then run timed episodes.

Started by ``run.py``; prints one JSON object as its last stdout line.

- ``setup_s`` runs from just after the first calibration probe, before
  ``import repro``, until the first timed iteration is ready: imports,
  server gang-launch, SWIM convergence, client connect, pipeline
  deploy and input generation.
- The timed phase is made of whole *episodes*: a fresh experiment at the
  same seed runs the workload's fixed iteration schedule. Episodes
  repeat until ``--seconds`` of timed work is done, so the distribution
  of iteration times does not depend on how fast the host is. Episode
  set-up after the first is not timed.
- Every host time is *calibrated*: a fixed pure-Python probe runs after
  each timed operation (outside it), and the operation's time is scaled
  by ``REFERENCE_PROBE_S`` over the median of the probes within
  ``PROBE_WINDOW`` operations of it. Shared hosts drift between fast and
  slow phases lasting seconds to minutes; the probe sees that drift, and
  the median over a window keeps the probe's own noise out. Raw times
  are reported beside the calibrated ones.
- Count and simulated-time metrics are read from the first episode;
  every later episode must reproduce them, and its per-iteration
  ``IterationTiming`` tuples, exactly.
"""

import time

#: Probe time on the reference host. Calibrated times are host times
#: scaled to a host on which :func:`probe_s` takes this long.
REFERENCE_PROBE_S = 0.0015


def probe_s() -> float:
    """Host seconds of a fixed pure-Python loop, best of three. It
    calls no ``repro`` code, so no change to the program can move it."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(30000):
            acc += i & 7
        best = min(best, time.perf_counter() - start)
    return best


PROBE_AT_START = probe_s()
T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import astuple  # noqa: E402
from pathlib import Path  # noqa: E402

DIGESTS = Path(__file__).with_name("digests.json")

#: A run stops starting new episodes once its timed loop has used this
#: many times ``--seconds`` of host time (episode set-up included), so a
#: slow host still finishes in bounded time.
WALL_FACTOR = 1.5
#: Operations on either side of an operation whose probes calibrate it.
PROBE_WINDOW = 10


def _metric(sim, name: str) -> float:
    """A registry counter/gauge value or histogram sum (0 if absent)."""
    metric = sim.metrics.get(name)
    if metric is None:
        return 0.0
    return metric.total if metric.kind == "histogram" else metric.value


def _results_sum(exp, key: str) -> int:
    total = 0
    for daemon in exp.deployment.live_daemons():
        results = daemon.provider.pipelines[exp.pipeline_name].last_results or {}
        total += results.get(key, 0)
    return total


def _executions(exp) -> int:
    return sum(
        d.provider.pipelines[exp.pipeline_name].executions
        for d in exp.deployment.live_daemons()
    )


class Run:
    """Everything one worker measures, across its episodes."""

    def __init__(self, workload, timer):
        self.wl = workload
        self.timer = timer
        #: Timed operations in order: (kind, raw host seconds, the probe
        #: taken right after it, per-layer self ns in traced runs).
        self.ops = []
        self.timed_raw_s = 0.0
        self.iterations = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []  # operations that raised
        self.wrong = []  # outputs that failed a check
        self.episodes = []  # per-episode (timings, exact metrics)

    # ------------------------------------------------------------------
    def _fail(self, what: str, err: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {type(err).__name__}: {err}")

    def _timed(self, kind: str, fn):
        """Run one timed operation and record it."""
        layers0 = dict(self.timer.self_ns) if self.timer else {}
        start = time.perf_counter()
        try:
            return fn()
        finally:
            raw = time.perf_counter() - start
            layers = {}
            if self.timer:
                layers = {k: v - layers0.get(k, 0) for k, v in self.timer.self_ns.items()}
            self.ops.append((kind, raw, probe_s(), layers))
            self.timed_raw_s += raw

    def calibrated(self):
        """Per-operation scale factors (see the module docstring)."""
        probes = [op[2] for op in self.ops]
        return [
            REFERENCE_PROBE_S / statistics.median(probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1])
            for i in range(len(probes))
        ]

    def _resize(self, exp, action: str, node: int, episode: int, it: int):
        """Run one resize. Returns the simulated seconds of each resize
        operation (one ``add_servers_with_pipeline`` call, or one
        ``remove_server`` call per departing daemon) and how many
        ``remove_server`` operations raised."""
        from repro.testing import drive, run_until

        sim = exp.sim
        wl = self.wl
        if action == "grow":
            ops = [lambda: drive(sim, exp.add_servers_with_pipeline(
                wl.procs_per_node, node_index=node), max_time=10000)]
        else:
            victims = sorted(
                (d for d in exp.deployment.live_daemons() if d.node_index == node),
                key=lambda d: d.address,
            )

            def leave(victim):
                drive(sim, exp.deployment.remove_server(exp.client_margos[0], victim.address),
                      max_time=1000)
                run_until(sim, lambda: victim.margo.finalized, max_time=1000)

            ops = [lambda v=v: leave(v) for v in victims]
        sim_s = []
        leave_failures = 0
        for i, op in enumerate(ops):
            last = i == len(ops) - 1

            def body(op=op, last=last):
                op()
                if last:
                    run_until(sim, exp.deployment.converged, max_time=1000)

            self.attempted += 1
            t_sim = sim.now
            try:
                self._timed("resize", body)
            except Exception as err:  # counted, reported, and the run goes on
                self._fail(f"episode {episode} {action} before iteration {it}", err)
                leave_failures += action == "shrink"
            sim_s.append(sim.now - t_sim)
        return sim_s, leave_failures

    # ------------------------------------------------------------------
    def episode(self, exp, inputs, index: int) -> None:
        wl, sim = self.wl, exp.sim
        expected_blocks = sum(len(b) for b in inputs)
        spans0 = len(sim.trace.spans)
        queue0 = sim.queue_stats()
        names = ("na.messages_sent", "na.bytes_sent", "na.rdma_seconds", "ssg.probes",
                 "mona.collectives", "mona.collective_seconds", "icet.composites",
                 "core.blocks_staged", "core.bytes_staged")
        reg0 = {n: _metric(sim, n) for n in names}
        walked0 = self.timer.counts.get("spans_walked", 0) if self.timer else 0
        timings, resize_sim_s, leave_failures, triangles = [], [], 0, 0
        bad = set()  # iterations whose output failed a check
        for it in range(1, wl.iterations + 1):
            action = wl.resize_before(it)
            if action is not None:
                s, lf = self._resize(exp, action[0], action[1], index, it)
                resize_sim_s += s
                leave_failures += lf
            staged0, runs0 = _metric(sim, "core.blocks_staged"), _executions(exp)
            self.attempted += 1
            try:
                timing = self._timed("iteration", lambda: exp.run_iteration(it, inputs))
            except Exception as err:  # counted, reported, and the run goes on
                self._fail(f"episode {index} iteration {it}", err)
                timings.append(None)
                continue
            self.iterations += 1
            timings.append(astuple(timing))
            problems = []
            if timing.n_servers != wl.expected_servers(it):
                problems.append(f"{timing.n_servers} servers, expected {wl.expected_servers(it)}")
            staged = _metric(sim, "core.blocks_staged") - staged0
            if staged != expected_blocks:
                problems.append(f"{staged:g} blocks staged, expected {expected_blocks}")
            if _executions(exp) - runs0 != timing.n_servers:
                problems.append("not every server executed the pipeline")
            problem = wl.check_results(exp)
            if problem:
                problems.append(problem)
            triangles += _results_sum(exp, "local_triangles")
            if problems:
                bad.add(it)
                self.wrong.append(f"episode {index} iteration {it}: " + "; ".join(problems))

        n = wl.iterations
        spans1 = len(sim.trace.spans)
        queue1 = sim.queue_stats()
        delta = {k: _metric(sim, k) - v for k, v in reg0.items()}
        done = [t for t in timings if t is not None]

        def mean_ms(field: int) -> float:
            return 1000.0 * sum(t[field] for t in done) / len(done) if done else 0.0

        exact = {
            "telemetry.spans_per_iter": (spans1 - spans0) / n,
            "telemetry.retained_spans": spans1,
            "sim.events_per_iter": (queue1["pops"] - queue0["pops"]) / n,
            "sim.cancels_per_iter": (queue1["cancels"] - queue0["cancels"]) / n,
            "sim.peak_queue_depth": queue1["peak_depth"],
            "na.messages_per_iter": delta["na.messages_sent"] / n,
            "na.bytes_per_iter": delta["na.bytes_sent"] / n,
            "na.rdma_sim_s_per_iter": delta["na.rdma_seconds"] / n,
            "margo.rpcs_per_iter": sum(
                s.name == "hg.forward" for s in sim.trace.spans[spans0:spans1]) / n,
            "ssg.probes_per_iter": delta["ssg.probes"] / n,
            "ssg.members_joined": _metric(sim, "ssg.members_joined"),
            "mona.collectives_per_iter": delta["mona.collectives"] / n,
            "mona.collective_sim_s_per_iter": delta["mona.collective_seconds"] / n,
            "icet.composites_per_iter": delta["icet.composites"] / n,
            "vtk.triangles_per_iter": triangles / n,
            # IterationTiming fields: activate, stage_total, execute, deactivate
            "core.activate_sim_ms": mean_ms(1),
            "core.stage_sim_ms": mean_ms(2),
            "core.execute_sim_ms": mean_ms(4),
            "core.deactivate_sim_ms": mean_ms(5),
            "core.blocks_staged_per_iter": delta["core.blocks_staged"] / n,
            "core.bytes_staged_per_iter": delta["core.bytes_staged"] / n,
            "core.resize_sim_s_p50": statistics.median(resize_sim_s) if resize_sim_s else 0.0,
            "core.resizes": len(resize_sim_s),
            "core.leave_failures": leave_failures,
        }
        if self.timer is not None:
            walked = self.timer.counts.get("spans_walked", 0) - walked0
            exact["telemetry.spans_walked_per_iter"] = walked / n
        self.episodes.append((timings, exact))

        # Same seed, same inputs: every episode must repeat the first.
        if index > 0:
            first_timings, first_exact = self.episodes[0]
            for it, (got, want) in enumerate(zip(timings, first_timings), start=1):
                if got is not None and got != want:
                    bad.add(it)
                    self.wrong.append(f"episode {index} iteration {it}: timing differs from episode 0")
            if exact != first_exact:
                differing = sorted(k for k in exact if exact[k] != first_exact.get(k))
                self.wrong.append(f"episode {index}: metrics differ from episode 0: {differing}")
        self.failed += len(bad)


def timing_digest(timings) -> str:
    return hashlib.sha256(repr(timings).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    timer = None
    if args.traced:
        import layers

        timer = layers.install()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, toy=args.toy)
    exp = wl.build()
    apps_ns = timer.self_ns.get("apps", 0) if timer else 0
    inputs = wl.make_inputs()
    if timer:
        apps_ns = timer.self_ns.get("apps", 0) - apps_ns
    setup_raw_s = time.perf_counter() - T0
    probes = [PROBE_AT_START] + [probe_s() for _ in range(4)]
    setup_scale = REFERENCE_PROBE_S / statistics.median(probes)
    setup_s = setup_raw_s * setup_scale
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    gc.collect()  # every episode starts from a collected heap
    run = Run(wl, timer)
    wall_start = time.perf_counter()
    while True:
        run.episode(exp, inputs, len(run.episodes))
        if run.timed_raw_s >= args.seconds:
            break
        if time.perf_counter() - wall_start > WALL_FACTOR * args.seconds:
            break
        # Untimed: drop the old experiment, start the next one clean.
        exp = None
        exp = wl.build()
        gc.collect()

    first_timings, exact = run.episodes[0]
    digest = timing_digest(first_timings)
    pinned = None if args.toy else json.loads(DIGESTS.read_text()).get(wl.name)
    if pinned is not None and pinned != digest:
        run.wrong.append(f"IterationTiming digest {digest} != pinned {pinned}")
        run.failed = run.attempted

    scales = run.calibrated()
    iter_ms, iter_raw_ms, resize_ms = [], [], []
    layer_ms = dict.fromkeys(layers.LAYERS, 0.0) if timer else {}
    for (kind, raw, _, op_layers), scale in zip(run.ops, scales):
        if kind == "iteration":
            iter_ms.append(raw * scale * 1e3)
            iter_raw_ms.append(raw * 1e3)
        else:
            resize_ms.append(raw * scale * 1e3)
        for layer, ns in op_layers.items():
            layer_ms[layer] += ns * scale / 1e6
    if timer:
        layer_ms["apps"] = apps_ns / 1e6 * setup_scale

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "traced": bool(args.traced),
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "episodes": len(run.episodes),
        "iterations": run.iterations,
        "timed_s": sum(op[1] * scale for op, scale in zip(run.ops, scales)),
        "timed_raw_s": run.timed_raw_s,
        "iter_ms": iter_ms,
        "iter_raw_ms": iter_raw_ms,
        "resize_ms": resize_ms,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "wrong": run.wrong,
        "digest": digest,
        "exact": exact,
        "layer_ms": layer_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
