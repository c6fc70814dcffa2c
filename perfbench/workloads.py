"""Seeded inputs for the benchmark workloads.

Every workload is a list of `RunSpec`s derived only from the benchmark's
`--seed`, so the same seed always yields the same specs. The program under
test receives nothing but those specs.

- `chaos_mix`: a closed loop of short runs at n=4 and n=7 under random
  delay, loss, duplication, reordering, a stabilization time (GST) and up
  to f byzantine members. It follows the distribution of the safety
  population in the acceptance suite, but draws it here, stratified, so
  that 16 runs hold the same mix from one seed to the next.
  Verification and the post-run chain audit dominate its host time.
- `saturated_b64`: one saturated run at n=4 with batch size 64 and no
  delay jitter. The harness keeps 2 x `max_inflight` batches outstanding,
  so it is a closed loop. It stresses packing, the ledger and the
  scheduler, which requeues most invocations behind a busy modeled CPU.
  The seed draws the constant link delay and the payload size, since
  nothing else in a jitter-free run depends on it.
- `lossy_gossip`: an open loop of about 200 batches/s into an n=4 booth
  inside a pool of 8, with 5% loss and 2% duplication throughout and
  gossip lifetime 2. It is the only workload that exercises gossip and
  storage, and the longest single run, so per-run state growth shows in
  memory. The seed draws the rate from [195, 205) batches/s: an open loop
  commits all it is sent, so a fixed rate would fix the modeled TPS.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from vguard.harness import RunSpec
from vguard.netsim import SimConfig

BYZANTINE_PROFILES = ("silent", "tamper_payload", "forge_quorum",
                      "equivocate_ordering_id")

# The stalled proposer's behavior per booth size. Of the behaviors that
# stall a proposer, "silent" makes the run nearly free; these two make it
# retry every batch until the run ends.
CHAOS_STALLS = {4: "equivocate_ordering_id", 7: "tamper_payload"}
PROPOSER = 2                 # instance 1's proposer; node 1 is the pivot

# More n=7 runs than n=4 runs: per-run wall time is bimodal by booth size,
# and an even split would put the median in the gap between the modes.
CHAOS_RUNS = {4: 6, 7: 10}


@dataclass(frozen=True)
class Workload:
    """Specs for one timed unit of work, plus a short warm-up spec.

    `op` names what counts as one attempted operation: a whole `run`, or
    each submitted `batch`."""

    name: str
    op: str
    specs: tuple[RunSpec, ...]
    warmup: RunSpec


def _stratified(rng: np.random.Generator, count: int, lo: float,
                hi: float) -> list[float]:
    """One draw from each of `count` equal slices of [lo, hi), shuffled."""
    cells = (rng.permutation(count) + rng.random(count)) / count
    return [lo + (hi - lo) * float(c) for c in cells]


def _chaos_group(rng: np.random.Generator, booth_size: int, count: int,
                 duration_ms: float, stall: str) -> list[RunSpec]:
    """`count` runs at one booth size. The load rate and the network
    parameters are stratified. Byzantine counts are balanced over 0..f,
    and exactly one run has a byzantine proposer with the stalling
    behavior `stall`, as about one in eight runs of the acceptance
    population does. The other byzantine members are validators, which
    take the behaviors in turn; the pivot stays honest. How much work a
    run does depends on these behaviors, so they are dealt, not drawn."""
    rate = _stratified(rng, count, 54.0, 66.0)
    delay_mean = _stratified(rng, count, 0.8, 2.5)
    delay_sd = _stratified(rng, count, 0.2, 1.2)
    drop = _stratified(rng, count, 0.0, 0.12)
    dup = _stratified(rng, count, 0.0, 0.08)
    gst = _stratified(rng, count, 120.0, 200.0)
    fault_budget = (booth_size - 1) // 3
    byz_counts = rng.permutation(
        [k % (fault_budget + 1) for k in range(count)])
    stalled = int(rng.choice(np.flatnonzero(byz_counts)))
    validators = np.arange(PROPOSER + 1, booth_size + 1)
    behaviors = itertools.cycle(BYZANTINE_PROFILES)
    specs = []
    for k in range(count):
        sim = SimConfig(seed=0, delay_mean_ms=round(delay_mean[k], 3),
                        delay_sd_ms=round(delay_sd[k], 3),
                        drop_rate=round(drop[k], 3), dup_rate=round(dup[k], 3),
                        reorder=True, gst_ms=round(gst[k], 1))
        byz = [(PROPOSER, (stall,))] if k == stalled else []
        for node in rng.choice(validators, size=int(byz_counts[k]) - len(byz),
                               replace=False):
            byz.append((int(node), (next(behaviors),)))
        specs.append(RunSpec(booth_size=booth_size, duration_ms=duration_ms,
                             grace_ms=500.0, rate_per_s=round(rate[k], 3),
                             seed=int(rng.integers(1, 2**31)), sim=sim,
                             byzantine=tuple(sorted(byz)), strict_audit=False,
                             label=f"chaos-n{booth_size}-{k}"))
    return specs


def chaos_mix(seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 1])
    specs = [spec for size, stall in CHAOS_STALLS.items()
             for spec in _chaos_group(rng, size, 2 if tiny else CHAOS_RUNS[size],
                                      100.0 if tiny else 300.0, stall)]
    warmup = replace(specs[0], byzantine=(), duration_ms=100.0, grace_ms=200.0)
    return Workload("chaos_mix", "run", tuple(specs), warmup)


def saturated_b64(seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 2])
    sim = SimConfig(seed=0, delay_mean_ms=round(float(rng.uniform(0.95, 1.05)), 3),
                    delay_sd_ms=0.0)
    spec = RunSpec(booth_size=4, batch_size=64, rate_per_s=None,
                   duration_ms=30.0 if tiny else 400.0,
                   payload_bytes=int(rng.integers(62, 67)),
                   seed=int(rng.integers(1, 2**31)), sim=sim,
                   label="saturated_b64")
    return Workload("saturated_b64", "batch", (spec,),
                    warmup=replace(spec, duration_ms=30.0))


def lossy_gossip(seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 3])
    sim = SimConfig(seed=0, drop_rate=0.05, dup_rate=0.02)
    spec = RunSpec(booth_size=4, pool=8, lambda0=2,
                   rate_per_s=round(float(rng.uniform(195.0, 205.0)), 3),
                   duration_ms=300.0 if tiny else 2000.0,
                   seed=int(rng.integers(1, 2**31)), sim=sim,
                   strict_audit=False, label="lossy_gossip")
    return Workload("lossy_gossip", "batch", (spec,),
                    warmup=replace(spec, duration_ms=200.0))


WORKLOADS = {"chaos_mix": chaos_mix, "saturated_b64": saturated_b64,
             "lossy_gossip": lossy_gossip}
