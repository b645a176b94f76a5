"""One workload run: set-up, ingest, query passes, controls, traced pass.

Closed loop, one client, one thread: the next request is sent only after
the previous reply verified.  Everything is driven through the program's
public entry points at the configuration ``HybridStorageSystem()`` gives
a user; no ``repro.obs`` collector is installed while an end-to-end
metric is being timed.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

from repro import HybridStorageSystem, obs
from repro.core.merkle_family import MerkleInvertedSP
from repro.core.multiproof import compress_query_vo
from repro.core.owner import ADS_CONTRACT
from repro.core.query.codec import VOCodec
from repro.core.query.join import conjunctive_join
from repro.core.query.parser import KeywordQuery
from repro.core.query.verify import verify_query
from repro.core.query.vo import QueryAnswer, QueryVO, iter_proven_entries
from repro.crypto import vc
from repro.crypto.numbers import clear_fixed_base_tables
from repro.errors import ReproError
from repro.sp.engine import make_engine
from repro.sp.protocol import (
    QueryRequest,
    QueryResponse,
    RemoteClient,
    StorageProviderServer,
)
from refclock import ReferenceClock
from tracing import ROOT, SpanRecorder
from workloads import Inputs, Workload, generate, query_text

#: Set-up and ingest are repeated, each time from another seed, and their
#: medians reported (the benchmark contract asks for repeated set-up): one
#: lucky or unlucky CVC prime search (its length differs 3x between seeds)
#: does not decide ``setup_s``, and the pipe-bound sharded ingest, whose
#: rate moves 13-24 % between runs of one seed, is sampled three times.
BUILD_REPEATS = 3

#: Every run issues the query list at least this many times.
MIN_PASSES = 3

#: Ingest calls are timed in slices of about this long, one pair of speed
#: probes around each: a probe per 1 ms ``add_object`` would double the phase.
INGEST_SLICE_S = 0.025

#: Layer spans of the traced pass, in call order (metric = name + "_ms").
LAYER_SPANS = (
    "parser.parse",
    "sp.protocol.request_codec",
    "sp_frontend.process_query",
    "join.conjunctive_join",
    "multiproof.compress",
    "store.get_objects",
    "codec.encode",
    "sp.protocol.response_encode",
    "sp.protocol.response_decode",
    "codec.decode",
    "chain.proof_system",
    "verify.verify_query",
)


class BenchmarkInvalid(Exception):
    """A correctness gate failed: the run must not report numbers."""


def _set_up(workload: Workload, seed: int, engine_dir: Path):
    """One set-up: corpus + oracle, system (incl. keygen), prewarm."""
    # A fresh process has no fixed-base tables; the previous repeat's would
    # only add to the peak RSS.
    clear_fixed_base_tables()
    t0 = time.perf_counter()
    inputs = generate(workload, seed)
    t1 = time.perf_counter()
    kwargs = dict(workload.system)
    if kwargs.get("engine") == "disk":
        kwargs["engine_dir"] = engine_dir
    system = HybridStorageSystem(scheme=workload.scheme, seed=seed, **kwargs)
    t2 = time.perf_counter()
    system.prewarm_crypto()
    t3 = time.perf_counter()
    parts = {
        "datasets.generate_s": t1 - t0,
        "system.construct_s": t2 - t1,
        "crypto.vc.prewarm_s": t3 - t2,
    }
    return inputs, system, parts


def place_processes(cpus: list[int]) -> None:
    """Harness on the first of ``cpus``, the system's worker ``i`` on the ``i``-th.

    The scheduler of a 2-vCPU VM puts the two shard workers on one CPU or
    on two by chance, and the sharded ingest rate then differs 2x between
    runs of the same seed (interquartile range 65 % of the median over six
    runs, 13 % with this placement).  The workers keep a CPU each, so a
    query still waits for the slower of two that run side by side.
    ``cpus`` is empty where the platform cannot pin (not Linux).
    """
    if not cpus:
        return
    workers = sorted(multiprocessing.active_children(), key=lambda w: w.pid)
    for index, worker in enumerate(workers):
        os.sched_setaffinity(worker.pid, {cpus[index % len(cpus)]})
    os.sched_setaffinity(0, {cpus[0]})


def build(
    workload: Workload, seed: int, work_dir: Path, clock: ReferenceClock,
    cpus: list[int], counters: bool,
):
    """Set up and ingest from ``seed + 2`` down to ``seed``; keep the last.

    Returns the inputs, system and engine directory of ``seed``, the record
    of its ingest (``failed`` summed over all repeats), and the medians
    over the repeats of the set-up and ingest times.
    """
    samples: list[dict] = []
    failed = 0
    for repeat in reversed(range(BUILD_REPEATS)):
        engine_dir = work_dir / f"engines-{repeat}"
        (inputs, system, parts), ref_s, wall_s = clock.measure(
            lambda: _set_up(workload, seed + repeat, engine_dir)
        )
        try:
            place_processes(cpus)
            written = ingest(system, inputs, workload, clock, counters)
        except BaseException:
            system.close()
            raise
        failed += written["failed"]
        samples.append(
            {
                "setup_s": ref_s,
                "setup_wall_s": wall_s,
                "ingest_s": written["ref_s"],
                "ingest_wall_s": written["wall_s"],
            }
            | {name: part * ref_s / wall_s for name, part in parts.items()}
        )
        if repeat:
            system.close()
            shutil.rmtree(engine_dir, ignore_errors=True)
    written["failed"] = failed
    medians = {
        key: statistics.median(sample[key] for sample in samples)
        for key in samples[0]
    }
    return inputs, system, engine_dir, written, medians


def ingest(system, inputs: Inputs, workload: Workload, clock, counters: bool) -> dict:
    """Timed ingest phase; ``counters`` installs a collector (traced runs)."""
    chunk = workload.chunk
    batches = [
        inputs.objects[i : i + chunk]
        for i in range(0, len(inputs.objects), chunk)
    ]
    done = 0
    failed = 0
    transactions = 0

    def ingest_slice() -> list[float]:
        """Calls until the slice is full; returns each call's wall seconds."""
        nonlocal done, failed, transactions
        calls: list[float] = []
        slice_end = time.perf_counter() + INGEST_SLICE_S
        while done < len(batches) and time.perf_counter() < slice_end:
            batch = batches[done]
            done += 1
            t0 = time.perf_counter()
            try:
                if chunk == 1:
                    report = system.add_object(batch[0])
                else:
                    report = system.add_objects_batched(batch)
                ok = all(receipt.status for receipt in report.receipts)
                transactions += len(report.receipts)
            except ReproError:
                ok = False
            calls.append(time.perf_counter() - t0)
            if not ok:
                failed += len(batch)
        return calls

    call_ms: list[float] = []
    total_ref_s = total_wall_s = 0.0
    compact_stats = None
    compact_ms = 0.0
    with obs.collect() if counters else nullcontext() as collector:
        while done < len(batches):
            calls, ref_s, wall_s = clock.measure(ingest_slice)
            call_ms += [1e3 * call * ref_s / wall_s for call in calls]
            total_ref_s += ref_s
            total_wall_s += wall_s
            if collector is not None:
                collector.spans.clear()  # only the counters are read
        if workload.compact:
            compact_stats, ref_s, wall_s = clock.measure(system.compact)
            compact_ms = 1e3 * ref_s
            total_ref_s += ref_s
            total_wall_s += wall_s
    return {
        "ref_s": total_ref_s,
        "wall_s": total_wall_s,
        "call_ms": call_ms,
        "failed": failed,
        "transactions": transactions,
        "compact": compact_stats,
        "compact_ms": compact_ms,
        "counters": collector.metrics.snapshot() if collector else {},
    }


def fresh_session(system, client, warmup: list[str]) -> None:
    """Every pass starts as a new client: empty proof cache, collected heap.

    ``warmup`` (a ``warm_sessions`` workload's warm-up list) is then asked
    before anything is timed.
    """
    system.verify_cache.clear()
    gc.collect()
    for text in warmup:
        client.query(text)


def query_pass(client, system, texts, expected, warmup, clock) -> dict:
    """Issue the query list once; check every verified answer."""
    fresh_session(system, client, warmup)
    latency_ms: list[float] = []
    vo_bytes: list[int] = []
    failed: set[int] = set()
    wall_ms: list[float] = []

    def ask(text):
        try:
            return client.query(text)  # raises unless the VO verifies
        except ReproError:
            return None

    for qid, (text, want) in enumerate(zip(texts, expected)):
        result, ref_s, wall_s = clock.measure(lambda: ask(text))
        latency_ms.append(1e3 * ref_s)
        wall_ms.append(1e3 * wall_s)
        if result is None or result.result_ids != want:
            failed.add(qid)
            vo_bytes.append(0)
        else:
            vo_bytes.append(result.vo_sp_bytes + result.vo_chain_bytes)
    return {
        "latency_ms": latency_ms,
        "wall_ms": wall_ms,
        "vo_bytes": vo_bytes,
        "failed": failed,
    }


def negative_control(system, server, texts) -> dict[str, str]:
    """Replay a query through two tampering transports.

    (a) one byte flipped inside the response's VO section;
    (b) the VO of a different query spliced under the honest result list.
    The flipped byte lies in the object hash of the first proven entry,
    found by searching the VO bytes for the decoded value: a digest has a
    fixed width, so every decoder still succeeds and what rejects the
    answer is verification itself.  Returns the name of the ``ReproError``
    subclass the client raised for each, or ``"ACCEPTED"`` when the
    tampered answer verified; any other exception is a bug and propagates.
    """
    codec = VOCodec(value_bytes=system.value_bytes)
    for position, text in enumerate(texts):
        honest = server.handle(QueryRequest(query_text=text).encode())
        response = QueryResponse.decode(honest)
        entry = next(iter_proven_entries(codec.decode(response.vo_bytes)), None)
        if entry is not None:
            break
    else:
        raise BenchmarkInvalid("no query's VO has a proven entry to tamper with")
    donor = QueryResponse.decode(
        server.handle(
            QueryRequest(query_text=texts[(position + 1) % len(texts)]).encode()
        )
    )
    # The VO section is the response's last length-prefixed field.
    vo_start = len(honest) - len(response.vo_bytes)
    flipped = bytearray(honest)
    flipped[vo_start + response.vo_bytes.index(entry.object_hash)] ^= 0x01
    spliced = QueryResponse(
        result_ids=response.result_ids,
        objects=response.objects,
        vo_bytes=donor.vo_bytes,
    ).encode()
    reactions = {}
    for name, payload in (("flip", bytes(flipped)), ("splice", spliced)):
        client = RemoteClient(lambda _request, p=payload: p, system)
        try:
            client.query(text)
            reactions[name] = "ACCEPTED"
        except ReproError as exc:
            reactions[name] = type(exc).__name__
    return reactions


def _split_process_query(system, query, blooms, recorder, qid) -> QueryAnswer:
    """``ShardedStorageProvider.process_query`` at one shard, layer by layer."""
    conjunct_vos = []
    result_ids: set[int] = set()
    for conj in query.conjunctions:
        views = [system.sp_index.view(kw) for kw in sorted(conj)]
        if blooms is not None:
            for view in views:
                view.bloom = blooms.get(view.keyword)
        with recorder.span("join.conjunctive_join", qid):
            ids, vo = conjunctive_join(
                views, order=system.join_order, plan=system.join_plan
            )
        conjunct_vos.append(vo)
        result_ids |= set(ids)
    with recorder.span("store.get_objects", qid):
        objects = {oid: system.get_object(oid) for oid in result_ids}
    vo = QueryVO(conjuncts=tuple(conjunct_vos))
    with recorder.span("multiproof.compress", qid):
        if system.vo_version >= 3:
            vo = compress_query_vo(vo)
    return QueryAnswer(result_ids=sorted(result_ids), objects=objects, vo=vo)


def traced_pass(
    system, client, workload, inputs, texts, expected, warmup, recorder, clock
) -> dict:
    """Replay ``RemoteClient.query`` + ``StorageProviderServer._answer``.

    Each layer's public function is called from here inside a span.  At
    one shard ``process_query`` is split further, and the re-assembled VO
    must encode to the bytes the real ``process_query`` produces.
    """
    codec = VOCodec(value_bytes=system.value_bytes)
    blooms = None
    if workload.scheme == "ci*":
        # The SP's Bloom mirror equals the on-chain snapshots, which are
        # reachable through the public chain view.
        keywords = frozenset(kw for q in inputs.queries for c in q for kw in c)
        blooms = system.chain_proof_system(keywords).blooms

    def replay(qid: int, text: str):
        with recorder.span(ROOT, qid):
            with recorder.span("parser.parse", qid):
                query = KeywordQuery.parse(text)
            with recorder.span("sp.protocol.request_codec", qid):
                request = QueryRequest.decode(QueryRequest(query_text=text).encode())
            with recorder.span("parser.parse", qid):
                served = KeywordQuery.parse(request.query_text)
            with recorder.span("sp_frontend.process_query", qid):
                if workload.sharded:
                    answer = system.process_query(served)
                else:
                    answer = _split_process_query(
                        system, served, blooms, recorder, qid
                    )
            with recorder.span("codec.encode", qid):
                vo_bytes = codec.encode(answer.vo)
            with recorder.span("sp.protocol.response_encode", qid):
                raw = QueryResponse(
                    result_ids=answer.result_ids,
                    objects=[answer.objects[i] for i in answer.result_ids],
                    vo_bytes=vo_bytes,
                ).encode()
            with recorder.span("sp.protocol.response_decode", qid):
                response = QueryResponse.decode(raw)
            with recorder.span("codec.decode", qid):
                vo = codec.decode(response.vo_bytes)
            received = QueryAnswer(
                result_ids=response.result_ids,
                objects={o.object_id: o for o in response.objects},
                vo=vo,
            )
            with recorder.span("chain.proof_system", qid):
                proofs = system.chain_proof_system(query.all_keywords())
            with recorder.span("verify.verify_query", qid):
                try:
                    verified = sorted(verify_query(query, received, proofs).ids)
                except ReproError:
                    verified = None
        return served, raw, vo_bytes, response, vo, proofs, verified

    totals = {
        "failed": set(),
        "drifted": 0,
        "entries": 0,
        "results": 0,
        "response_bytes": 0,
        "vo_sp_bytes": 0,
        "vo_chain_bytes": 0,
        "multiproof_bytes": 0,
    }
    fresh_session(system, client, warmup)
    hits_before = system.verify_cache.hits
    misses_before = system.verify_cache.misses
    # The collector is here only to read counters the program emits.
    with obs.collect() as collector:
        for qid, (text, want) in enumerate(zip(texts, expected)):
            replayed, ref_s, wall_s = clock.measure(lambda: replay(qid, text))
            recorder.slowdown[qid] = wall_s / ref_s
            served, raw, vo_bytes, response, vo, proofs, verified = replayed
            if verified != want:
                totals["failed"].add(qid)
            if not workload.sharded:
                reference = codec.encode(system.process_query(served).vo)
                totals["drifted"] += reference != vo_bytes
            totals["entries"] += sum(1 for _ in iter_proven_entries(vo))
            totals["results"] += len(response.result_ids)
            totals["response_bytes"] += len(raw)
            totals["vo_sp_bytes"] += len(vo_bytes)
            totals["vo_chain_bytes"] += proofs.chain_digest_bytes()
            totals["multiproof_bytes"] += sum(
                mp.byte_size() for mp in vo.multiproofs
            )
            collector.spans.clear()  # only the counters are read
    totals["counters"] = collector.metrics.snapshot()
    totals["cache_hits"] = system.verify_cache.hits - hits_before
    totals["cache_misses"] = system.verify_cache.misses - misses_before
    return totals


def recover(system, workload, inputs, engine_dir: Path, clock) -> float:
    """Reopen every closed shard directory; returns the reference ms.

    The recovered engines must hold every object, and every recovered
    tree's root must equal the root the chain holds for its keyword.
    """
    engines, ref_s, _wall_s = clock.measure(
        lambda: [
            make_engine(
                "disk",
                shard_id,
                lambda: MerkleInvertedSP(fanout=system.fanout),
                directory=engine_dir,
            )
            for shard_id in range(workload.system["shards"])
        ]
    )
    try:
        objects = sum(engine.object_count() for engine in engines)
        if objects != len(inputs.objects):
            raise BenchmarkInvalid(
                f"recovered {objects} objects, ingested {len(inputs.objects)}"
            )
        recovered = set()
        for engine in engines:
            for keyword in engine.index.trees:
                recovered.add(keyword)
                on_chain = system.chain.call_view(
                    ADS_CONTRACT, "view_root", keyword
                )
                if engine.index.root_hash(keyword) != on_chain:
                    raise BenchmarkInvalid(
                        f"recovered root of {keyword!r} differs from the chain"
                    )
        if recovered != set(inputs.postings):
            raise BenchmarkInvalid("recovered keyword set differs")
    finally:
        for engine in engines:
            engine.close()
    return 1e3 * ref_s


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0  # Linux reports KiB


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path
) -> dict:
    """Run one workload; returns its results or raises BenchmarkInvalid."""
    work_dir = out_dir / f"work-{workload.name}-{seed}-{int(trace)}"
    shutil.rmtree(work_dir, ignore_errors=True)
    clock = ReferenceClock()
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    recorder = SpanRecorder()
    traced = None
    recover_ms = 0.0
    try:
        inputs, system, engine_dir, written, built = build(
            workload, seed, work_dir, clock, cpus, counters=trace
        )
        try:
            texts = [query_text(q) for q in inputs.queries]
            expected = [inputs.expected(q) for q in inputs.queries]
            meter = system.maintenance_meter()

            server = StorageProviderServer(system)
            client = RemoteClient(server.handle, system)
            warmup = [query_text(q) for q in inputs.warmup]
            if not workload.warm_sessions:
                for text in warmup:
                    client.query(text)
                warmup = []

            passes: list[dict] = []
            begun = time.perf_counter()
            while len(passes) < MIN_PASSES or (
                # more only while another whole pass fits in the budget
                (time.perf_counter() - begun) * (1 + 1 / len(passes)) <= seconds
            ):
                passes.append(
                    query_pass(client, system, texts, expected, warmup, clock)
                )
            if any(p["vo_bytes"] != passes[0]["vo_bytes"] for p in passes):
                raise BenchmarkInvalid("VO sizes differ between identical passes")
            failed_queries = set().union(*(p["failed"] for p in passes))

            controls = negative_control(system, server, texts)
            if "ACCEPTED" in controls.values():
                raise BenchmarkInvalid(f"a tampered answer verified: {controls}")
            if trace:
                traced = traced_pass(
                    system, client, workload, inputs, texts, expected,
                    warmup, recorder, clock,
                )
                failed_queries |= traced["failed"]
                if traced["drifted"]:
                    raise BenchmarkInvalid(
                        f"{traced['drifted']} split VOs differ from process_query"
                    )
                if not recorder.connected():
                    raise BenchmarkInvalid("span forest is not connected")
        finally:
            system.close()
        if trace and workload.system.get("engine") == "disk":
            recover_ms = recover(system, workload, inputs, engine_dir, clock)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if cpus:
            os.sched_setaffinity(0, set(cpus))

    objects = len(inputs.objects)
    queries = len(texts)
    timings = _timings(
        objects, built["setup_s"], built["ingest_s"],
        [p["latency_ms"] for p in passes],
    )
    fastest_s = queries / timings["queries_per_s"]
    failed = written["failed"] + len(failed_queries)
    result = {
        "attempted": BUILD_REPEATS * objects + queries,
        "failed": failed,
        "passes": len(passes),
        "controls": controls,
        "recorder": recorder,
        # The same five timings from the uncorrected wall clock, printed
        # beside the reference times so the correction can be audited.
        "wall": _timings(
            objects, built["setup_wall_s"], built["ingest_wall_s"],
            [p["wall_ms"] for p in passes],
        ),
        "end_to_end": {
            **timings,
            "ingest_gas_per_object": meter.total / objects,
            "vo_bytes_per_query": statistics.fmean(passes[0]["vo_bytes"]),
            "peak_rss_mb": peak_rss_mb(),
        },
        "per_layer": None,
        "manifest": {
            "seed": seed,
            "objects": objects,
            "postings": inputs.posting_count,
            "queries": queries,
            "p90_samples_beyond": queries - math.ceil(0.9 * queries),
            "chunk": workload.chunk,
            "build_repeats": BUILD_REPEATS,
            "corpus_sha3": inputs.corpus_sha3,
            "queries_sha3": inputs.queries_sha3,
            "system": {"scheme": workload.scheme, **workload.system},
        },
    }
    if trace:
        result["per_layer"] = {
            **_setup_layers(system, seed, built, clock),
            **_ingest_layers(inputs, written, meter),
            **_query_layers(traced, recorder, queries, fastest_s),
            "engine.recover_ms": recover_ms,
        }
    return result


def _timings(
    objects: int, setup_s: float, ingest_s: float, passes_ms: list[list[float]]
) -> dict:
    """The timed end-to-end metrics from one clock's samples.

    Every pass is the same work, so a query's latency is its minimum over
    the passes and throughput uses the fastest pass.
    """
    queries = len(passes_ms[0])
    latency = [min(one[i] for one in passes_ms) for i in range(queries)]
    return {
        "setup_s": setup_s,
        "ingest_objects_per_s": objects / ingest_s,
        "query_p50_ms": statistics.median(latency),
        "query_p90_ms": percentile(latency, 0.90),
        "queries_per_s": queries / min(sum(one) / 1e3 for one in passes_ms),
    }


def _setup_layers(system, seed: int, setup: dict, clock) -> dict:
    keygen_s = 0.0
    if system.uses_cvc:
        # What the constructor ran inside system.construct_s, on its own.
        _keys, keygen_s, _wall_s = clock.measure(
            lambda: vc.keygen(system.arity + 1, seed=seed)
        )
    return {
        "datasets.generate_s": setup["datasets.generate_s"],
        "crypto.vc.keygen_s": keygen_s,
        "crypto.vc.prewarm_s": setup["crypto.vc.prewarm_s"],
        "system.construct_s": setup["system.construct_s"],
    }


def _affine_layers(phase: str, counters: dict) -> dict:
    return {
        f"affine.{phase}_rpcs": counters.get("sp.affine.rpcs", 0),
        f"affine.{phase}_request_bytes": counters.get("sp.affine.request.bytes", 0),
        f"affine.{phase}_reply_bytes": counters.get("sp.affine.reply.bytes", 0),
    }


def _ingest_layers(inputs: Inputs, written: dict, meter) -> dict:
    objects = len(inputs.objects)
    counters = written["counters"]
    compact = written["compact"] or {}
    stored = compact.get("checkpoint_bytes", 0) + compact.get(
        "journal_bytes_after", 0
    )
    return {
        "owner.add_call_p50_ms": statistics.median(written["call_ms"]),
        "owner.add_call_p99_ms": percentile(written["call_ms"], 0.99),
        "ethereum.gas_write_per_object": meter.write_gas / objects,
        "ethereum.gas_read_per_object": meter.read_gas / objects,
        "ethereum.gas_others_per_object": meter.other_gas / objects,
        "ethereum.tx_per_object": written["transactions"] / objects,
        "crypto.vc.batch_openings": counters.get("vc.batch.openings", 0),
        "crypto.vc.batch_dnc": counters.get("vc.batch.dnc", 0),
        "crypto.vc.batch_per_slot": counters.get("vc.batch.per_slot", 0),
        **_affine_layers("ingest", counters),
        "affine.ingest_scatter_bytes": counters.get("sp.affine.scatter.bytes", 0),
        "engine.journal_bytes_per_object": compact.get("journal_bytes_before", 0)
        / objects,
        "engine.compact_ms": written["compact_ms"],
        "engine.checkpoint_bytes_per_posting": compact.get("checkpoint_bytes", 0)
        / inputs.posting_count,
        "engine.reclaimed_bytes": compact.get("reclaimed", 0),
        "engine.stored_bytes_per_user_byte": stored / inputs.user_bytes,
    }


def _query_layers(
    traced: dict, recorder: SpanRecorder, queries: int, fastest_s: float
) -> dict:
    self_ms = recorder.self_times_ms()
    pass_ms = recorder.pass_ms()
    hits, misses = traced["cache_hits"], traced["cache_misses"]
    return {
        **{name + "_ms": self_ms.get(name, 0.0) for name in LAYER_SPANS},
        "sp.protocol.response_bytes": traced["response_bytes"] / queries,
        "join.entries_proven_per_result": traced["entries"]
        / max(1, traced["results"]),
        "multiproof.proof_bytes_per_query": traced["multiproof_bytes"] / queries,
        "codec.vo_sp_bytes": traced["vo_sp_bytes"] / queries,
        "chain.vo_chain_bytes": traced["vo_chain_bytes"] / queries,
        "proofcache.hits": hits,
        "proofcache.misses": misses,
        "proofcache.hit_ratio": hits / max(1, hits + misses),
        **_affine_layers("query", traced["counters"]),
        "trace.overhead_pct": 100.0 * (pass_ms / (1e3 * fastest_s) - 1.0),
        "trace.unattributed_pct": 100.0 * self_ms[ROOT] / pass_ms,
    }
