"""E15 — stateful migration under fire.

The §1 promise ("the illusion of a personal home network wherever the
device roams") stress-tested for *stateful* middleboxes: a prefetcher
whose in-network cache is the whole point of §4's offloading argument
must survive an AP handoff, and the handoff machinery itself must
survive the migration-window faults of :mod:`repro.faults`.

Four claims, each asserted:

* **state survival** — a cache warmed before the handoff still serves
  hits after it: checkpoints ship the prefetcher's LRU contents to the
  containers instantiated at the new AP;
* **commit-or-rollback atomicity** — under every injected
  migration-window fault (target crash in PREPARE, checkpoint-transfer
  loss, provider silence at COMMIT) the transaction either commits
  fully or rolls back fully: no partial embeddings, no orphaned
  containers, and the interrupted commit is rolled *forward* by the
  reconciler's journal replay;
* **split-brain fencing** — after every cutover the superseded
  deployment processes zero packets: its data path rejects them on the
  stale epoch token and each rejection lands in the evidence ledger;
* **determinism** — the whole scenario executes twice and the
  normalised journal + fault-trace + fence digests are identical.

An inter-provider roam closes the table: crossing a provider boundary
re-deploys from scratch, so the cache starts cold — the contrast that
makes the intra-provider stateful handoff worth its machinery.
"""

from __future__ import annotations

import hashlib

from repro.core import AccessProvider, PvnSession
from repro.core.deployment.lifecycle import LeaseTable
from repro.core.deployment.manager import DeploymentState
from repro.core.deployment.reconciler import ReconcilePolicy
from repro.core.pvnc.dsl import parse_pvnc
from repro.experiments.harness import ExperimentResult, main
from repro.faults import FaultKind, make_event, normalise_ids
from repro.netproto.http import HttpRequest, HttpResponse
from repro.netsim.packet import Packet

#: A PVNC whose value is its state: the §4 prefetcher cache.
STATEFUL_PVNC_TEXT = '''
pvnc "stateful-roaming" for alice
module prefetcher
module tracker_blocker
class web_text: tracker_blocker -> prefetcher -> forward
default: forward
require prefetcher tracker_blocker
budget 10.0
max-latency 1 ms
'''

WARM_URLS = tuple(f"http://site.example/p{i}" for i in range(4))


def _response_packet(url: str, device_ip: str, user: str) -> Packet:
    return Packet(
        src="198.51.100.6", dst=device_ip, src_port=80, owner=user,
        payload=HttpResponse(status=200, body=b"x" * 600),
        metadata={"url": url},
    )


def _request_packet(url: str, device_ip: str, user: str) -> Packet:
    host, _, path = url.removeprefix("http://").partition("/")
    return Packet(
        src=device_ip, dst="198.51.100.6", dst_port=80, owner=user,
        payload=HttpRequest("GET", host, "/" + path),
    )


def _live_container_count(session, user: str) -> int:
    """Containers of ``user`` still admitted on any NFV host."""
    return sum(
        1 for host in session.provider.hosts.values()
        for c in host.containers()
        if c.owner == user and c.state.value not in ("stopped",)
    )


def _execute(seed: int) -> dict:
    session = PvnSession.build(seed=seed)
    pvnc = parse_pvnc(STATEFUL_PVNC_TEXT)
    outcome = session.connect(pvnc)
    assert outcome.deployed, outcome.reason
    user = session.device.user
    device_ip = outcome.connection.device_ip
    manager = session.provider.manager
    leases = LeaseTable()
    leases.fund(outcome.deployment_id, until=3600.0)

    session.enable_robustness(ReconcilePolicy(interval=0.25))
    injector = session.inject_faults("")    # empty plan; armed via inject_now

    def prefetcher():
        return session.device.connection.deployment.datapath.middleboxes[
            "prefetcher"
        ]

    # -- warm the cache at the home AP ------------------------------------
    for url in WARM_URLS:
        session.send(_response_packet(url, device_ip, user))
    hit_probe = session.send(_request_packet(WARM_URLS[0], device_ip, user))
    assert "prefetcher:rewrite" in hit_probe.verdict_reasons
    hits_before = prefetcher().hits
    assert hits_before == 1

    fenced: list = []           # (datapath, packets_processed at cutover)

    def note_superseded(source_id: str) -> None:
        datapath = manager.deployment(source_id).datapath
        fenced.append((datapath, datapath.packets_processed))

    # -- 1. clean AP handoff: the cache must survive ----------------------
    source_id = session.device.connection.deployment.deployment_id
    clean = session.migrate("dev_alice_ap1", ap="ap1", leases=leases)
    assert clean.committed, clean.reason
    note_superseded(source_id)
    assert "prefetcher" in clean.restored_services
    assert leases.leases.get(clean.deployment_id, 0.0) == 3600.0
    hit_after = session.send(_request_packet(WARM_URLS[1], device_ip, user))
    assert "prefetcher:rewrite" in hit_after.verdict_reasons
    assert prefetcher().hits == hits_before + 1   # counter survived too
    cache_survived = prefetcher().cache.get(WARM_URLS[2]) is not None

    # -- 2. target crash during PREPARE: full rollback --------------------
    live_before = _live_container_count(session, user)
    injector.inject_now(make_event(session.sim.now,
                                   FaultKind.MIGRATION_TARGET_CRASH))
    crash = session.migrate("dev_alice_b", ap="ap0", leases=leases)
    assert not crash.committed and not crash.pending
    assert crash.deployment_id == clean.deployment_id     # source survives
    assert _live_container_count(session, user) == live_before
    crash_rolled_back = (
        session.device.connection.deployment is manager.deployment(
            clean.deployment_id)
        and manager.deployment(clean.deployment_id).healthy
    )

    # -- 3. transfer loss beyond the retry budget: full rollback ----------
    injector.inject_now(make_event(session.sim.now,
                                   FaultKind.MIGRATION_TRANSFER_LOSS,
                                   count=3))
    lost = session.migrate("dev_alice_c", ap="ap0", leases=leases)
    assert not lost.committed and lost.transfer_attempts == 3
    assert _live_container_count(session, user) == live_before
    # The bridge is lifted: the surviving chain serves in-network again.
    post_abort = session.send(
        _request_packet(WARM_URLS[2], device_ip, user)
    )
    assert post_abort.action == "forward"

    # -- 4. one lost transfer: retried within budget, commits -------------
    source_id = session.device.connection.deployment.deployment_id
    injector.inject_now(make_event(session.sim.now,
                                   FaultKind.MIGRATION_TRANSFER_LOSS))
    retried = session.migrate("dev_alice_b", ap="ap0", leases=leases)
    assert retried.committed and retried.transfer_attempts == 2
    note_superseded(source_id)

    # -- 5. provider silence at COMMIT: journal replay rolls forward ------
    source_id = session.device.connection.deployment.deployment_id
    injector.inject_now(make_event(session.sim.now,
                                   FaultKind.MIGRATION_COMMIT_SILENCE,
                                   duration=0.5))
    silent = session.migrate("dev_alice_d", ap="ap1", leases=leases)
    assert not silent.committed and silent.pending
    session.sim.run_for(0.5)    # next reconciler tick replays the journal
    coordinator = manager.migration_coordinator
    assert not coordinator.journal.open_transactions()
    replay_events = session.reconciler.events_of("migration_rolled_forward")
    assert len(replay_events) == 1
    # Exactly one deployment survives the whole gauntlet (no partial
    # embeddings): the rolled-forward target.
    active = [d for d in manager.deployments_for(user)
              if d.state is DeploymentState.ACTIVE]
    assert len(active) == 1
    rolled_forward_id = active[0].deployment_id
    assert session.device.connection.deployment is active[0]
    note_superseded(source_id)
    assert leases.leases.get(rolled_forward_id, 0.0) == 3600.0
    final_hit = session.send(_request_packet(WARM_URLS[3], device_ip, user))
    assert "prefetcher:rewrite" in final_hit.verdict_reasons

    # -- split-brain fencing: superseded chains process nothing -----------
    stale_rejections = 0
    zero_stale_processing = True
    for datapath, processed_at_cutover in fenced:
        outcome_stale = datapath.process(
            _request_packet(WARM_URLS[0], device_ip, user),
            now=session.sim.now,
        )
        assert outcome_stale.verdict_reasons == ("fencing:stale_epoch",)
        stale_rejections += datapath.stale_rejections
        if datapath.packets_processed != processed_at_cutover:
            zero_stale_processing = False
    stale_evidence = sum(
        1 for r in session.device.ledger.fault_records(session.provider.name)
        if r.test == "fault:stale_epoch"
    )

    # -- inter-provider roam: fresh deployment, cold cache ----------------
    roam = AccessProvider("isp-roam", sim=session.sim, seed=seed + 1)
    roam.attach_device(session.device.node_name)
    roam_connection = session.device.establish_pvn([roam], pvnc)
    roam_prefetcher = roam.manager.deployment(
        roam_connection.deployment_id
    ).datapath.middleboxes["prefetcher"]
    roam_cold = len(roam_prefetcher.cache) == 0

    # -- determinism digest ------------------------------------------------
    blob = "\n".join([
        coordinator.journal.render(),
        injector.trace(),
        *(f"advance {lineage} -> {epoch}"
          for lineage, epoch in coordinator.fencing.advances),
        *(f"{t:.6f} reject {dep} {lineage}@{epoch}"
          for t, dep, lineage, epoch in coordinator.fencing.rejections),
        *(f"{r.time:.6f} {r.deployment_id} {r.test} {r.detail}"
          for r in session.device.ledger.fault_records()),
    ])
    digest = hashlib.sha256(normalise_ids(blob).encode()).hexdigest()

    committed_txns = sum(
        1 for e in coordinator.journal.entries if e.record == "committed"
    )
    aborted_txns = sum(
        1 for e in coordinator.journal.entries if e.record == "aborted"
    )
    return {
        "digest": digest,
        "cache_survived": cache_survived,
        "state_bytes": clean.state_bytes,
        "handoff_ms": clean.handoff_time * 1e3,
        "crash_rolled_back": crash_rolled_back,
        "retry_attempts": retried.transfer_attempts,
        "committed": committed_txns,
        "aborted": aborted_txns,
        "stale_rejections": stale_rejections,
        "stale_evidence": stale_evidence,
        "zero_stale_processing": zero_stale_processing,
        "live_containers": _live_container_count(session, user),
        "expected_live": len(
            manager.deployment(rolled_forward_id).containers
        ),
        "final_epoch": manager.deployment(rolled_forward_id).epoch,
        "roam_cold": roam_cold,
    }


def run(seed: int = 0) -> ExperimentResult:
    first = _execute(seed)
    second = _execute(seed)
    deterministic = first["digest"] == second["digest"]
    r = first

    no_orphans = r["live_containers"] == r["expected_live"]
    rows = [
        ("clean AP handoff",
         f"cache survived: {r['cache_survived']}, "
         f"{r['state_bytes']} B shipped in {r['handoff_ms']:.1f} ms"),
        ("target crash in PREPARE",
         f"full rollback: {r['crash_rolled_back']}, "
         "source deployment untouched"),
        ("transfer loss x3 (budget 3)",
         "aborted after 3 attempts; bridge lifted, chain serves again"),
        ("transfer loss x1",
         f"committed after {r['retry_attempts']} attempts"),
        ("provider silence at COMMIT",
         "journal replay rolled the intent forward on the next "
         "supervisor tick"),
        ("split-brain fencing",
         f"{r['stale_rejections']} stale-epoch rejections, "
         f"{r['stale_evidence']} ledgered, "
         f"zero stale processing: {r['zero_stale_processing']}"),
        ("orphan sweep",
         f"{r['live_containers']} live containers == "
         f"{r['expected_live']} in the surviving deployment"),
        ("inter-provider roam",
         f"fresh deployment, cache cold: {r['roam_cold']} — state does "
         "not cross the provider boundary"),
        ("determinism",
         "two executions, identical normalised digests"
         if deterministic else "DIGEST DIVERGED between executions"),
    ]
    metrics = {
        "cache_survived_handoff": float(r["cache_survived"]),
        "handoff_state_bytes": float(r["state_bytes"]),
        "handoff_ms": r["handoff_ms"],
        "migrations_committed": float(r["committed"]),
        "migrations_aborted": float(r["aborted"]),
        "rollback_atomicity": float(r["crash_rolled_back"] and no_orphans),
        "stale_epoch_rejections": float(r["stale_rejections"]),
        "zero_stale_processing": float(r["zero_stale_processing"]),
        "orphaned_containers": float(r["live_containers"]
                                     - r["expected_live"]),
        "final_epoch": float(r["final_epoch"]),
        "roam_cache_cold": float(r["roam_cold"]),
        "deterministic": float(deterministic),
    }
    return ExperimentResult(
        experiment_id="E15",
        title="stateful migration: checkpoint/restore, make-before-break "
              "handoff, and split-brain fencing under injected faults",
        columns=["scenario", "outcome"],
        rows=rows,
        metrics=metrics,
        notes=[
            f"journal+fence digest {r['digest'][:16]}… (seed {seed}; "
            "normalised for process-global deployment counters)",
            "every migration-window fault resolves to commit-or-rollback: "
            "an interrupted COMMIT rolls forward via WAL replay, "
            "everything earlier rolls back to the intact source",
            f"the surviving deployment sits at epoch {r['final_epoch']}; "
            "all superseded chains reject traffic on their stale token",
        ],
    )


if __name__ == "__main__":  # pragma: no cover
    main(run)
