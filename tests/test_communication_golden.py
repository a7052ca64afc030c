"""Protocol transcripts pinned message for message.

``tests/data/protocol_transcripts_golden.json`` records, for the two-party
set cover and maximum coverage protocols of E6, E7 and E10 on a few seeded
D_SC, D_Disj, D_MC and D_GHD samples, every message's ``(sender, bits)``,
the output and a SHA-256 of ``repr(transcript.as_symbol())``.  Any change
to how a protocol carries, prices or renders its messages shows up here
message by message.  Regenerate it only when transcripts are meant to
change::

    PYTHONPATH=src python tests/test_communication_golden.py
"""

import hashlib
import json
from pathlib import Path

from repro.communication.protocols.maxcover_protocol import (
    FullExchangeMaxCoverProtocol,
    SampledMaxCoverProtocol,
)
from repro.communication.protocols.setcover_protocol import (
    FullExchangeSetCoverProtocol,
    TwoPartyAlgorithmOneProtocol,
)
from repro.lowerbound.dmc import DMCParameters, sample_dmc
from repro.lowerbound.dsc import DSCParameters, sample_dsc
from repro.lowerbound.reduction import DisjViaSetCoverProtocol, GHDViaMaxCoverProtocol
from repro.problems.disjointness import sample_ddisj
from repro.problems.ghd import sample_dghd

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "protocol_transcripts_golden.json"


def golden_cases():
    """``(label, transcript)`` for every pinned protocol run."""
    for n in (256, 512):
        parameters = DSCParameters(universe_size=n, num_pairs=8, alpha=2)
        for seed in (1, 2):
            for theta in (0, 1):
                instance = sample_dsc(parameters, seed=seed, theta=theta)
                alice, bob = instance.communication_inputs()
                label = f"dsc/{n}/{seed}/{theta}"
                yield f"{label}/full-greedy", FullExchangeSetCoverProtocol(
                    solver="greedy"
                ).execute(alice, bob)
                for alpha, solver, constant in ((2, "greedy", 1.0), (1, "exact", 0.5)):
                    protocol = TwoPartyAlgorithmOneProtocol(
                        alpha=alpha,
                        opt_guess=2,
                        seed=seed,
                        subinstance_solver=solver,
                        sampling_constant=constant,
                    )
                    yield f"{label}/alg1-{alpha}-{solver}", protocol.execute(alice, bob)
    disj_parameters = DSCParameters(universe_size=240, num_pairs=5, alpha=2, t=24)
    reduction = DisjViaSetCoverProtocol(
        FullExchangeSetCoverProtocol(solver="exact"),
        disj_parameters,
        seed=3,
        decision_threshold=2,
    )
    for seed in range(3):
        instance = sample_ddisj(24, seed=seed)
        yield f"disj/{seed}", reduction.execute(instance.alice, instance.bob)
    dmc_parameters = DMCParameters(num_pairs=4, epsilon=0.35)
    for seed in (1, 2):
        for theta in (0, 1):
            instance = sample_dmc(dmc_parameters, seed=seed, theta=theta)
            alice, bob = instance.communication_inputs()
            label = f"dmc/{seed}/{theta}"
            yield f"{label}/full-exact", FullExchangeMaxCoverProtocol(k=2).execute(alice, bob)
            yield f"{label}/sampled", SampledMaxCoverProtocol(
                k=2, epsilon=0.35, sampling_constant=0.5, seed=seed
            ).execute(alice, bob)
    ghd = GHDViaMaxCoverProtocol(
        FullExchangeMaxCoverProtocol(k=2, solver="exact"), dmc_parameters, seed=4
    )
    a, b = dmc_parameters.resolved_set_sizes()
    for seed in range(3):
        instance = sample_dghd(dmc_parameters.t1, a, b, seed=seed)
        yield f"ghd/{seed}", ghd.execute(instance.alice, instance.bob)


def record(transcript):
    """The pinned view of one transcript."""
    return {
        "messages": [[message.sender, message.bits] for message in transcript.messages],
        "output": repr(transcript.output),
        "symbol_sha256": hashlib.sha256(repr(transcript.as_symbol()).encode()).hexdigest(),
    }


def golden_records():
    return {label: record(transcript) for label, transcript in golden_cases()}


def test_transcripts_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    current = golden_records()
    assert list(current) == list(golden)
    for label, expected in golden.items():
        assert current[label] == expected, label


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(golden_records(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
