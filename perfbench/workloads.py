"""The benchmark's workloads: one generated suite each, all with turn mix
0.65, map noise 0.5 m and 2 agents. Why each exists is in `why`."""

from __future__ import annotations

from dataclasses import dataclass

MIX = 0.65
NOISE = 0.5
AGENTS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    count: int
    params: dict  # GeneratorParams overrides
    why: str

    def generator_params(self):
        from uncplan import GeneratorParams

        return GeneratorParams(noise_scale=NOISE, n_agents=AGENTS, **self.params)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "canonical",
            400,
            {},
            "the 400-scenario acceptance suite (5 candidates, 20 vertices per element); "
            "the balanced reference where load, selection and metrics all matter",
        ),
        Workload(
            "wide-candidates",
            150,
            {"n_candidates": 20},
            "20 candidates per command: selection dominates eval, so selection gains show "
            "while load and metrics gains are bypassed",
        ),
        Workload(
            "dense-map",
            100,
            {"n_element_points": 80},
            "80 vertices per element: the O(V^2) ring check dominates parse and ablate, "
            "so load and geometry gains show while agent-check gains are bypassed",
        ),
    )
}
