"""The async job manager: coalescing, event forwarding, failure paths.

Driven with ``asyncio.run`` (no event-loop plugin): each test builds a
manager, submits, awaits, and closes inside one coroutine. The
hallmark assertions are the in-flight coalescing contract (concurrent
identical submissions share one computation) and the byte-identity of
service payloads with direct ``resolve(spec).run(seed)`` executions.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.scenario import resolve
from repro.scenario.spec import ScenarioSpec, SpecError
from repro.service.cache import ResultCache
from repro.service.jobs import JobEventLog, JobManager

SPEC = "algorithm: dac@1(n=6); rounds: 40"
RESPELLED = "algorithm: dac@1(epsilon=1e-3, n=6); seed: 9; rounds: 40"


def run(coroutine):
    return asyncio.run(coroutine)


async def _submit_and_close(manager, *submissions):
    """Submit each (spec, kwargs) pair, await all payloads, close."""
    try:
        payloads = []
        for spec, kwargs in submissions:
            job = await manager.submit(spec, **kwargs)
            payloads.append(await job.result())
        return payloads
    finally:
        await manager.close(shutdown_pool=False)


def test_compute_then_hit_with_different_spelling():
    async def scenario():
        manager = JobManager()
        first, second = await _submit_and_close(
            manager,
            (SPEC, {"seeds": [0, 1]}),
            (RESPELLED, {"seeds": [0, 1]}),
        )
        assert [row["status"] for row in first["results"]] == ["computed"] * 2
        assert [row["status"] for row in second["results"]] == ["hit"] * 2
        assert first["scenario"] == second["scenario"]
        assert first["spec"] == second["spec"]  # both canonicalized
        # Byte-identity of the cached replay with the computed results.
        computed = [(row["seed"], row["result"]) for row in first["results"]]
        replayed = [(row["seed"], row["result"]) for row in second["results"]]
        assert json.dumps(computed, sort_keys=True) == json.dumps(
            replayed, sort_keys=True
        )
        return first

    payload = run(scenario())
    # Differential check: service results == direct executions, value
    # for value (both are plain JSON scalars, so dumps equality is
    # byte-identity).
    resolved = resolve(SPEC)
    direct = {row["seed"]: resolved.run(row["seed"]) for row in payload["results"]}
    service = {row["seed"]: row["result"] for row in payload["results"]}
    assert json.dumps(service, sort_keys=True) == json.dumps(direct, sort_keys=True)


def test_concurrent_identical_submissions_coalesce():
    async def scenario():
        manager = JobManager()
        try:
            # Submit twice *before* yielding to the drain task: the
            # single-threaded event loop guarantees the second submit
            # sees the first's in-flight future, making the race
            # deterministic.
            job_a = await manager.submit(SPEC, seeds=[5])
            job_b = await manager.submit(SPEC, seeds=[5])
            assert job_a.statuses[5][0] == "computed"
            assert job_b.statuses[5][0] == "coalesced"
            payload_a = await job_a.result()
            payload_b = await job_b.result()
            assert manager.trials_computed == 1
            assert manager.trials_coalesced == 1
            assert (
                payload_a["results"][0]["result"]
                == payload_b["results"][0]["result"]
            )
            assert payload_b["coalesced"] == 1
        finally:
            await manager.close(shutdown_pool=False)

    run(scenario())


def test_mixed_request_splits_per_seed():
    async def scenario():
        manager = JobManager()
        try:
            first = await manager.submit(SPEC, seeds=[0])
            await first.result()
            second = await manager.submit(SPEC, seeds=[0, 1])
            payload = await second.result()
            statuses = {row["seed"]: row["status"] for row in payload["results"]}
            assert statuses == {0: "hit", 1: "computed"}
            assert payload["hit"] == 1 and payload["computed"] == 1
        finally:
            await manager.close(shutdown_pool=False)

    run(scenario())


def test_event_stream_ordering_under_pool_workers():
    async def scenario():
        manager = JobManager(workers=4)
        try:
            job = await manager.submit(SPEC, seeds=[0, 1, 2, 3], events=True)
            payload = await job.result()
            return payload, job.log.entries
        finally:
            await manager.close(shutdown_pool=True)

    payload, entries = run(scenario())
    events = [e for e in entries if e["kind"] == "event"]
    trials = [e for e in entries if e["kind"] == "trial"]
    assert [e["event"] for e in events] == ["RunFinished"] * 4
    assert [e["seed"] for e in trials] == [0, 1, 2, 3]
    # Forwarded events are replayed in spec order (trial i's events
    # before trial i+1's) regardless of which pool worker ran what:
    # each RunFinished's round count must line up with its seed's
    # result, in submission order.
    result_rounds = [row["result"]["rounds"] for row in payload["results"]]
    assert [e["rounds"] for e in events] == result_rounds
    # The observe knob injected for streaming must not leak into the
    # cached payloads: results stay identical to bare runs.
    resolved = resolve(SPEC)
    for row in payload["results"]:
        assert row["result"] == resolved.run(row["seed"])


def test_failed_trials_are_not_cached(monkeypatch):
    calls = {"count": 0}

    def exploding_run_trials(*args, **kwargs):
        calls["count"] += 1
        raise RuntimeError("worker blew up")

    async def scenario():
        manager = JobManager()
        try:
            import repro.service.jobs as jobs_module

            monkeypatch.setattr(jobs_module, "run_trials", exploding_run_trials)
            job = await manager.submit(SPEC, seeds=[0])
            with pytest.raises(RuntimeError, match="worker blew up"):
                await job.result()
            assert manager.jobs_failed == 1
            assert len(manager.cache) == 0
            assert manager._inflight == {}
            monkeypatch.undo()
            retry = await manager.submit(SPEC, seeds=[0])
            payload = await retry.result()
            assert payload["results"][0]["status"] == "computed"
        finally:
            await manager.close(shutdown_pool=False)

    run(scenario())
    assert calls["count"] == 1


def test_unserializable_outcome_fails_the_job_not_the_drain_task(
    tmp_path, monkeypatch
):
    # With a persistence tier, cache.put json-dumps the outcome. An
    # outcome that cannot serialize must fail the job's futures (and
    # any coalesced waiters) rather than kill _drain and hang clients.
    def poisoned_run_trials(*args, **kwargs):
        return [{"rounds": object()}]

    async def scenario():
        manager = JobManager(cache=ResultCache(tmp_path / "cache.jsonl"))
        try:
            import repro.service.jobs as jobs_module

            monkeypatch.setattr(jobs_module, "run_trials", poisoned_run_trials)
            job = await manager.submit(SPEC, seeds=[0])
            coalesced = await manager.submit(SPEC, seeds=[0])
            assert coalesced.statuses[0][0] == "coalesced"
            with pytest.raises(TypeError):
                await asyncio.wait_for(job.result(), timeout=10)
            with pytest.raises(TypeError):
                await asyncio.wait_for(coalesced.result(), timeout=10)
            assert manager.jobs_failed == 1
            assert manager._inflight == {}
            assert job.log.closed
            assert len(manager.cache) == 0  # the failed put cached nothing
            # The drain task survived: a good submission still runs.
            monkeypatch.undo()
            retry = await manager.submit(SPEC, seeds=[0])
            payload = await asyncio.wait_for(retry.result(), timeout=60)
            assert payload["results"][0]["status"] == "computed"
        finally:
            await manager.close(shutdown_pool=False)

    run(scenario())


def test_cancelled_backpressure_put_releases_inflight_claims():
    async def scenario():
        manager = JobManager(queue_size=1)
        manager.start = lambda: None  # keep the queue from draining
        await manager.submit(SPEC, seeds=[0])  # fills the bounded queue
        # This submission claims seed 1 then blocks awaiting queue
        # space; cancelling it (client teardown under backpressure)
        # must release the claim, or every later identical submission
        # coalesces onto a future nobody will ever resolve.
        blocked = asyncio.get_running_loop().create_task(
            manager.submit(SPEC, seeds=[1])
        )
        await asyncio.sleep(0)
        claimed = [key for key in manager._inflight if key[1] == 1]
        assert len(claimed) == 1
        coalesced = await manager.submit(SPEC, seeds=[1])
        assert coalesced.statuses[1][0] == "coalesced"
        blocked.cancel()
        with pytest.raises(asyncio.CancelledError):
            await blocked
        assert claimed[0] not in manager._inflight
        with pytest.raises(RuntimeError, match="abandoned"):
            await asyncio.wait_for(coalesced.result(), timeout=10)
        # A fresh submission claims the seed anew instead of attaching
        # to the abandoned computation.
        del manager.start  # restore draining for real execution
        retry = await manager.submit(SPEC, seeds=[1])
        assert retry.statuses[1][0] == "computed"
        payload = await asyncio.wait_for(retry.result(), timeout=60)
        assert payload["results"][0]["status"] == "computed"
        await manager.close(shutdown_pool=False)

    run(scenario())


def test_close_fails_pending_futures():
    async def scenario():
        manager = JobManager(queue_size=1)
        job = await manager.submit(SPEC, seeds=[0])
        # Close before draining: the in-flight future must fail loudly
        # rather than hang the awaiting client forever.
        await manager.close(shutdown_pool=False)
        with pytest.raises(RuntimeError, match="shut down"):
            await job.result()

    run(scenario())


def test_event_log_tail_sees_everything_in_order():
    async def scenario():
        log = JobEventLog()
        seen: list[int] = []

        async def tailer():
            async for entry in log.tail():
                seen.append(entry["i"])

        task = asyncio.get_running_loop().create_task(tailer())
        log.append({"i": 0})
        log.append({"i": 1})
        await asyncio.sleep(0)
        log.append({"i": 2})
        log.close()
        await task
        assert seen == [0, 1, 2]
        assert log.entries == [{"i": 0}, {"i": 1}, {"i": 2}]
        log.append({"i": 3})  # dropped: the log is complete
        assert len(log.entries) == 3

    run(scenario())


def test_persistent_cache_feeds_a_new_manager(tmp_path):
    path = tmp_path / "cache.jsonl"

    async def first_life():
        manager = JobManager(cache=ResultCache(path))
        (payload,) = await _submit_and_close(manager, (SPEC, {"seeds": [0, 1]}))
        return payload

    async def second_life():
        manager = JobManager(cache=ResultCache(path))
        (payload,) = await _submit_and_close(
            manager, (RESPELLED, {"seeds": [0, 1]})
        )
        return payload

    before = run(first_life())
    after = run(second_life())
    assert [row["status"] for row in after["results"]] == ["hit", "hit"]
    assert [row["result"] for row in after["results"]] == [
        row["result"] for row in before["results"]
    ]


# -- the spec memo ---------------------------------------------------------
#
# A manager memoizes resolution on the exact text submitted: DSL text
# as sent, a spec JSON object by its sorted-key JSON text. These tests
# pin what a memo keyed any looser (by ScenarioSpec equality, or by
# scenario identity) would get wrong.


def _dac_object(**params):
    return {
        "algorithm": {"name": "dac", "version": 1, "params": params},
        "rounds": 40,
    }


# Three spellings per scenario: terse DSL, DSL with defaults spelled
# out in another order, and a spec JSON object.
SPELLINGS = (
    (
        "algorithm: dac@1(n=5, epsilon=1e-3); network: dynadegree@1(window=1, selector=rotate)",
        "algorithm: dac@1(epsilon=0.001, n=5, f=2)\nnetwork: dynadegree@1(selector=rotate)",
        {"algorithm": {"name": "dac", "version": 1, "params": {"n": 5}}},
    ),
    (
        "algorithm: dbac@1(n=6, epsilon=1e-3); faults: byzantine@1(strategy=extreme)",
        "algorithm: dbac@1(f=1, n=6); faults: byzantine@1",
        {"algorithm": {"name": "dbac", "version": 1, "params": {"n": 6, "epsilon": 0.001}}},
    ),
    (
        "algorithm: byz@1(n=5, epsilon=1e-3); adversary: mobile@1(mode=block_min)",
        "algorithm: byz@1(epsilon=0.001, n=5); adversary: mobile@1",
        {"algorithm": {"name": "byz", "version": 1, "params": {"n": 5}},
         "adversary": {"name": "mobile", "version": 1, "params": {"mode": "block_min"}}},
    ),
    (
        "algorithm: baseline@1(n=5, epsilon=1e-3, num_rounds=30)",
        "algorithm: baseline@1(num_rounds=30, n=5, algorithm=midpoint, f=0)",
        {"algorithm": {"name": "baseline", "version": 1, "params": {"n": 5, "num_rounds": 30}}},
    ),
    (
        "algorithm: averaging@1(n=5, epsilon=1e-3, num_rounds=30)",
        "algorithm: averaging@1(num_rounds=30, rule=mean, n=5)",
        {"algorithm": {"name": "averaging", "version": 1,
                       "params": {"n": 5, "num_rounds": 30}}},
    ),
)


@pytest.mark.parametrize(
    "good, bad",
    [
        (_dac_object(n=5), _dac_object(n=5.0)),
        (_dac_object(n=5, f=1), _dac_object(n=5, f=True)),
    ],
    ids=["5.0-after-5", "true-after-1"],
)
def test_memo_does_not_answer_a_wrongly_typed_twin(good, bad):
    # ScenarioSpec params compare 5 == 5.0 == True equal; a memo keyed
    # on them would serve the twin with 200 once the good one was seen.
    with pytest.raises(SpecError) as cold:
        resolve(ScenarioSpec.from_dict(bad))

    async def scenario():
        manager = JobManager()
        try:
            job = await manager.submit(good, seeds=[0])
            await job.result()
            for _ in range(2):
                with pytest.raises(SpecError) as warm:
                    await manager.submit(bad, seeds=[0])
                assert str(warm.value) == str(cold.value)
                assert warm.value.field == cold.value.field
            assert manager.jobs_accepted == 1
        finally:
            await manager.close(shutdown_pool=False)

    run(scenario())


def _replay(requests, cache_path):
    """Every payload, the final stats and the manager's memo size."""

    async def scenario():
        manager = JobManager(cache=ResultCache(cache_path))
        try:
            payloads = []
            for spec, seeds, events in requests:
                job = await manager.submit(spec, seeds=seeds, events=events)
                payloads.append(await job.result())
            return payloads, manager.stats(), len(manager._spec_memo)
        finally:
            await manager.close(shutdown_pool=False)

    return run(scenario())


def test_warm_memo_changes_no_payload_counter_or_cache_byte(tmp_path, monkeypatch):
    import repro.service.jobs as jobs_module

    requests = [
        (SPEC, [0, 1], False),
        (SPEC, [1, 2, 1], False),
        (RESPELLED, None, False),  # the spec's own seed: 9
        (RESPELLED.replace("seed: 9", "seed: 4"), None, True),
        (RESPELLED, None, False),
        (_dac_object(n=6), [2, 3], False),
        (_dac_object(n=6), None, False),
        ({**_dac_object(n=6), "seed": 5}, None, True),
        (SPEC, [3, 4], False),
        (_dac_object(epsilon=1e-3, n=6), [4], False),
        (SPEC, None, False),
    ]
    warm_payloads, warm_stats, warm_memo = _replay(requests, tmp_path / "warm.jsonl")
    monkeypatch.setattr(jobs_module, "SPEC_MEMO_SIZE", 0)  # every request cold
    cold_payloads, cold_stats, cold_memo = _replay(requests, tmp_path / "cold.jsonl")
    assert (warm_memo, cold_memo) == (6, 0)
    assert json.dumps(warm_payloads, sort_keys=True) == json.dumps(
        cold_payloads, sort_keys=True
    )
    assert warm_stats == cold_stats
    warm_file = (tmp_path / "warm.jsonl").read_bytes()
    assert warm_file == (tmp_path / "cold.jsonl").read_bytes()
    assert [p["results"][0]["seed"] for p in warm_payloads if len(p["results"]) == 1] == [
        9, 4, 9, 0, 5, 4, 0
    ]


def test_every_spelling_of_a_scenario_still_hits():
    async def scenario():
        manager = JobManager()
        try:
            for spellings in SPELLINGS:
                first = await (await manager.submit(spellings[0], seeds=[0, 1])).result()
                assert first["computed"] == 2
                for _ in range(2):  # the second pass is all memo hits
                    for spelling in spellings:
                        payload = await (
                            await manager.submit(spelling, seeds=[0, 1])
                        ).result()
                        assert payload["hit"] == 2
                        assert payload["scenario"] == first["scenario"]
                        assert payload["spec"] == first["spec"]
                        assert [row["result"] for row in payload["results"]] == [
                            row["result"] for row in first["results"]
                        ]
            assert len(manager._spec_memo) == 3 * len(SPELLINGS)
        finally:
            await manager.close(shutdown_pool=False)

    run(scenario())


def test_memo_stays_within_its_bound_and_evicts_oldest_first():
    from repro.service.jobs import SPEC_MEMO_KEY_CHARS, SPEC_MEMO_SIZE

    spellings = [
        f"algorithm: dac@1(n=5); rounds: 20; seed: {index}"
        for index in range(2 * SPEC_MEMO_SIZE)
    ]

    async def scenario():
        manager = JobManager()
        try:
            for spelling in spellings:
                job = await manager.submit(spelling, seeds=[0])
                await job.result()
                assert len(manager._spec_memo) <= SPEC_MEMO_SIZE
            assert list(manager._spec_memo) == spellings[SPEC_MEMO_SIZE:]
            # An evicted spelling resolves afresh and still hits.
            payload = await (await manager.submit(spellings[0], seeds=[0])).result()
            assert payload["hit"] == 1
            assert len(manager._spec_memo) == SPEC_MEMO_SIZE
            assert manager.trials_computed == 1
            # A padded spelling longer than the key cap is never stored.
            padded = spellings[1] + " " * SPEC_MEMO_KEY_CHARS
            before = list(manager._spec_memo)
            payload = await (await manager.submit(padded, seeds=[0])).result()
            assert payload["hit"] == 1
            assert list(manager._spec_memo) == before
        finally:
            await manager.close(shutdown_pool=False)

    run(scenario())


def test_memo_hit_without_seeds_runs_the_spec_seed():
    spec = "algorithm: dac@1(n=5); rounds: 20; seed: 3"

    async def scenario():
        manager = JobManager()
        try:
            seeds = []
            for submitted in (
                spec,
                spec,
                spec.replace("seed: 3", "seed: 4"),
                spec,
                {**_dac_object(n=5), "seed": 7},
                _dac_object(n=5),
                {**_dac_object(n=5), "seed": 7},
            ):
                job = await manager.submit(submitted)
                payload = await job.result()
                seeds.append([row["seed"] for row in payload["results"]])
            return seeds
        finally:
            await manager.close(shutdown_pool=False)

    assert run(scenario()) == [[3], [3], [4], [3], [7], [0], [7]]


def test_replayed_submissions_resolve_once_per_spelling(monkeypatch):
    # A count, not a clock: 200 hit and respelled submissions resolve
    # (and hash) once per distinct spelling, wherever a repro module
    # bound the resolver.
    import importlib
    import sys

    # The package re-exports resolve(), which shadows the submodule name.
    original = importlib.import_module("repro.scenario.resolve").resolve
    calls = {"resolve": 0, "hash": 0}

    def counted(spec):
        calls["resolve"] += 1
        return original(spec)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "resolve", None) is original:
            monkeypatch.setattr(module, "resolve", counted)
    content_hash = ScenarioSpec.content_hash.fget

    def counted_hash(spec):
        calls["hash"] += 1
        return content_hash(spec)

    monkeypatch.setattr(ScenarioSpec, "content_hash", property(counted_hash))

    requests = []
    for turn in range(200):
        spellings = SPELLINGS[turn % len(SPELLINGS)]
        spelling = spellings[turn // len(SPELLINGS) % len(spellings)]
        requests.append((spelling, [turn % 3, (turn + 1) % 3]))
    distinct = {json.dumps(spec, sort_keys=True) for spec, _ in requests}
    assert len(distinct) == 3 * len(SPELLINGS)

    async def scenario():
        cache = ResultCache()
        primer = JobManager(cache=cache)  # fills the cache, not the memo
        for spellings in SPELLINGS:
            await (await primer.submit(spellings[0], seeds=[0, 1, 2])).result()
        await primer.close(shutdown_pool=False)
        calls.update(resolve=0, hash=0)
        manager = JobManager(cache=cache)
        try:
            statuses = set()
            for spec, seeds in requests:
                payload = await (await manager.submit(spec, seeds=seeds)).result()
                statuses.update(row["status"] for row in payload["results"])
            return statuses
        finally:
            await manager.close(shutdown_pool=False)

    assert run(scenario()) == {"hit"}
    assert calls == {"resolve": len(distinct), "hash": len(distinct)}
