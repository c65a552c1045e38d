"""The benchmark's three closed-loop workloads.

Each workload builds one :class:`~repro.bench.harness.ColzaExperiment`
(an *episode*), feeds it the same input on every iteration, and may
resize the staging area between iterations. ``toy=True`` shrinks every
workload to a size the smoke test can run in a second or two.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.apps import DWIDataset, DWIProxyRank, MandelbulbBlock
from repro.bench.harness import ColzaExperiment
from repro.core.pipelines import DWIVolumeScript, IsoSurfaceScript
from repro.na import VirtualPayload

Inputs = List[List[Tuple[int, object]]]


#: Seed of every workload's simulation. The benchmark's ``--seed`` picks
#: the inputs instead (which client stages which block); the simulated
#: SWIM traffic, and with it the work per iteration, would otherwise
#: change by several percent from seed to seed.
SIM_SEED = 13


class Workload:
    """One workload at one seed: its inputs, its experiment, its schedule."""

    name = ""
    #: Iterations per episode.
    iterations = 0

    def __init__(self, seed: int, toy: bool = False):
        self.seed = seed
        self.toy = toy

    def client_order(self, n_clients: int) -> List[int]:
        """The seed's assignment of block sets to clients."""
        return [int(i) for i in np.random.default_rng(self.seed).permutation(n_clients)]

    def build(self) -> ColzaExperiment:
        """A fresh, set-up experiment (servers up, clients connected,
        pipeline deployed)."""
        raise NotImplementedError

    def make_inputs(self) -> Inputs:
        """Blocks per client, identical on every iteration."""
        raise NotImplementedError

    def resize_before(self, iteration: int) -> Optional[Tuple[str, int]]:
        """``("grow" | "shrink", node)`` to run before ``iteration``."""
        return None

    def expected_servers(self, iteration: int) -> int:
        raise NotImplementedError

    def check_results(self, exp: ColzaExperiment) -> Optional[str]:
        """A workload-specific output check after each iteration."""
        return None


class GrayScottStatic(Workload):
    """Fig. 6 shape, reduced: a virtual 2 GiB Gray-Scott domain from 64
    clients to 16 servers (8 per node), iso+clip script, MoNA, fixed
    membership."""

    name = "grayscott_static"
    iterations = 20
    TOTAL_BYTES = 2 << 30

    def __init__(self, seed: int, toy: bool = False):
        super().__init__(seed, toy)
        self.n_servers, self.n_clients = (4, 8) if toy else (16, 64)
        if toy:
            self.iterations = 3

    def build(self) -> ColzaExperiment:
        script = IsoSurfaceScript(
            field="v", isovalues=[0.1, 0.2, 0.3],
            clip=((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
        )
        return ColzaExperiment(
            n_servers=self.n_servers, n_clients=self.n_clients, script=script,
            controller="mona", server_procs_per_node=8, clients_per_node=32,
            client_nodes_offset=64, swim_period=0.5, seed=SIM_SEED, nodes=128,
        ).setup()

    def make_inputs(self) -> Inputs:
        block = VirtualPayload((self.TOTAL_BYTES // 8 // self.n_clients,), "float64")
        return [[(b, block)] for b in self.client_order(self.n_clients)]

    def expected_servers(self, iteration: int) -> int:
        return self.n_servers


class MandelbulbRender(Workload):
    """Real Mandelbulb blocks, 4 servers and 8 clients: iso-surface ->
    rasterize -> z-buffer composite."""

    name = "mandelbulb_render"
    iterations = 20
    RESOLUTION = (8, 8, 6)
    IMAGE = 64

    def __init__(self, seed: int, toy: bool = False):
        super().__init__(seed, toy)
        self.n_servers, self.n_clients = (2, 2) if toy else (4, 8)
        self.resolution = (8, 8, 4) if toy else self.RESOLUTION
        if toy:
            self.iterations = 3

    def build(self) -> ColzaExperiment:
        return ColzaExperiment(
            n_servers=self.n_servers, n_clients=self.n_clients,
            script=IsoSurfaceScript(field="iterations", isovalues=[4.0]),
            controller="mona", server_procs_per_node=4, clients_per_node=8,
            client_nodes_offset=8, swim_period=0.5, seed=SIM_SEED, nodes=16,
            width=self.IMAGE, height=self.IMAGE,
        ).setup()

    def make_inputs(self) -> Inputs:
        return [
            [(b, MandelbulbBlock(b, self.n_clients, resolution=self.resolution,
                                 max_iterations=10).generate())]
            for b in self.client_order(self.n_clients)
        ]

    def expected_servers(self, iteration: int) -> int:
        return self.n_servers

    def check_results(self, exp: ColzaExperiment) -> Optional[str]:
        images = [
            d.provider.pipelines[exp.pipeline_name].last_results.get("image")
            for d in exp.deployment.live_daemons()
        ]
        composited = [im for im in images if im is not None]
        if len(composited) != 1 or not composited[0].coverage() > 0:
            return "composited image missing or empty"
        return None


class ElasticChurn(Workload):
    """Fig. 10 shape: virtual DWI files at one fixed dataset iteration,
    16 clients, servers cycling 8 -> 32 -> 8 one node (8 processes) at a
    time, every other iteration. One episode is one full cycle."""

    name = "elastic_churn"
    DATASET_ITERATION = 1
    PARTITIONS = 128

    def __init__(self, seed: int, toy: bool = False):
        super().__init__(seed, toy)
        self.procs_per_node, self.max_nodes, self.n_clients = (2, 2, 4) if toy else (8, 4, 16)
        # Grow before iterations 2, 4, .. until max_nodes, then shrink
        # back to one node: 4 * (max_nodes - 1) iterations per cycle.
        self.iterations = 4 * (self.max_nodes - 1)

    def build(self) -> ColzaExperiment:
        return ColzaExperiment(
            n_servers=self.procs_per_node, n_clients=self.n_clients,
            script=DWIVolumeScript(), controller="mona",
            server_procs_per_node=self.procs_per_node, clients_per_node=16,
            client_nodes_offset=16, swim_period=0.5, seed=SIM_SEED, nodes=64,
        ).setup()

    def make_inputs(self) -> Inputs:
        dataset = DWIDataset(partitions=self.PARTITIONS)
        return [
            list(DWIProxyRank(dataset, rank=r, nranks=self.n_clients, virtual=True)
                 .read_iteration(self.DATASET_ITERATION))
            for r in self.client_order(self.n_clients)
        ]

    def _nodes_at(self, iteration: int) -> int:
        steps = iteration // 2  # resizes done before this iteration
        grow_steps = self.max_nodes - 1
        return 1 + (steps if steps <= grow_steps else 2 * grow_steps - steps)

    def resize_before(self, iteration: int) -> Optional[Tuple[str, int]]:
        if iteration % 2 or iteration < 2:
            return None
        before, after = self._nodes_at(iteration - 1), self._nodes_at(iteration)
        if after > before:
            return ("grow", after - 1)
        return ("shrink", before - 1)

    def expected_servers(self, iteration: int) -> int:
        return self.procs_per_node * self._nodes_at(iteration)


WORKLOADS = {w.name: w for w in (GrayScottStatic, MandelbulbRender, ElasticChurn)}

