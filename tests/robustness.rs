//! Robustness scenarios for the ALF transport (acceptance tests for the
//! flow-control / partition / dead-peer machinery).
//!
//! Three behaviors the paper's transfer-control story demands once the
//! network misbehaves for real:
//!
//! 1. A partition that heals must not kill a buffered transfer — the
//!    sender's backed-off retransmissions resume after the link returns and
//!    the workload completes byte-identical.
//! 2. A partition that never heals must surface as `PeerUnreachable` after
//!    the configured silent interval — bounded time, explicit loss reports,
//!    no infinite retry.
//! 3. A byte-denominated reassembly budget must hold under burst loss, with
//!    the pushback *visible* to the sender (refused TUs re-advertised via
//!    window, `send_adu` backpressure) rather than silent.

use alf_core::driver::{run_alf_transfer_scenario, seq_workload, ScenarioOpts};
use alf_core::transport::{AlfConfig, RecoveryMode};
use ct_netsim::fault::{FaultConfig, GilbertElliott};
use ct_netsim::link::LinkConfig;
use ct_netsim::pump::Substrate;
use ct_netsim::time::{SimDuration, SimTime};

#[test]
fn buffered_transfer_survives_partition_that_heals() {
    // 40 x 4 KiB over a LAN (~14 ms unimpeded); the link goes dark from
    // 5 ms — squarely mid-transfer — for two full seconds.
    let adus = seq_workload(40, 4096);
    let cfg = AlfConfig {
        recovery: RecoveryMode::TransportBuffer,
        // Enough retries to ride out 2 s of exponential backoff: the
        // per-ADU RTO sequence at 50 ms base reaches the heal well before
        // the retry budget runs out.
        max_retries: 20,
        ..AlfConfig::default()
    };
    let opts = ScenarioOpts {
        outages: vec![(SimTime::from_millis(5), SimTime::from_millis(2005))],
        ..ScenarioOpts::default()
    };
    let r = run_alf_transfer_scenario(
        7,
        LinkConfig::lan(),
        FaultConfig::none(),
        cfg,
        Substrate::Packet,
        &adus,
        None,
        &opts,
    );
    assert!(
        r.complete,
        "transfer must complete after the partition heals"
    );
    assert!(r.verified, "every delivered ADU must be byte-identical");
    assert_eq!(
        r.adus_delivered, 40,
        "buffered recovery loses nothing across a healed partition"
    );
    assert_eq!(r.adus_lost, 0, "no ADU may be given up on");
    assert!(
        !r.peer_unreachable,
        "peer_timeout is disabled; the partition must not look like death"
    );
    assert!(
        r.elapsed > SimDuration::from_secs(2),
        "the transfer straddled the 2 s outage (elapsed {})",
        r.elapsed
    );
    assert!(
        r.sender.rto_backoff_events > 0,
        "consecutive silent timeouts must escalate the global RTO backoff"
    );
}

#[test]
fn partition_that_never_heals_reports_peer_unreachable() {
    // More ADUs than the send window holds, so part of the workload is
    // still queued behind the window when the peer goes silent — a dead
    // peer must leave those unaccounted, not "complete" the transfer.
    let adus = seq_workload(100, 4096);
    let cfg = AlfConfig {
        recovery: RecoveryMode::TransportBuffer,
        max_retries: 50, // retries alone would spin far past the deadline
        peer_timeout: SimDuration::from_secs(2),
        ..AlfConfig::default()
    };
    let opts = ScenarioOpts {
        outages: vec![(SimTime::from_millis(5), SimTime::MAX)],
        ..ScenarioOpts::default()
    };
    let r = run_alf_transfer_scenario(
        11,
        LinkConfig::lan(),
        FaultConfig::none(),
        cfg,
        Substrate::Packet,
        &adus,
        None,
        &opts,
    );
    assert!(
        r.peer_unreachable,
        "2 s of silence with outstanding work must declare the peer dead"
    );
    assert!(!r.complete, "a dead peer cannot complete the workload");
    assert_eq!(r.sender.peer_unreachable_events, 1);
    assert!(
        r.adus_lost > 0,
        "everything in flight must be flushed to loss reports, not dropped silently"
    );
    assert!(
        r.elapsed < SimDuration::from_secs(10),
        "dead-peer declaration bounds the run (elapsed {})",
        r.elapsed
    );
}

#[test]
fn reassembly_budget_holds_under_burst_loss() {
    // 80 x 12 KiB through a Gilbert–Elliott channel averaging ~5% loss in
    // bursts, against a 64 KiB receive budget. The budget must never be
    // exceeded, and the squeeze must be visible to the sender.
    const BUDGET: usize = 64 * 1024;
    let adus = seq_workload(80, 12 * 1024);
    let cfg = AlfConfig {
        recovery: RecoveryMode::TransportBuffer,
        reassembly_budget_bytes: BUDGET,
        max_retries: 30,
        ..AlfConfig::default()
    };
    let faults = FaultConfig::bursty_loss(GilbertElliott::bursty(0.02, 0.25, 0.7));
    let r = run_alf_transfer_scenario(
        3,
        LinkConfig::lan(),
        faults,
        cfg,
        Substrate::Packet,
        &adus,
        None,
        &ScenarioOpts::default(),
    );
    assert!(r.complete, "flow-controlled transfer must still complete");
    assert!(r.verified);
    assert_eq!(r.adus_delivered, 80);
    assert!(
        r.reassembly_peak <= BUDGET,
        "reassembly peak {} exceeded the {} byte budget",
        r.reassembly_peak,
        BUDGET
    );
    assert_eq!(
        r.receiver.adus_shed, 0,
        "buffered mode backpressures; it never silently sheds"
    );
    assert!(
        r.receiver.tus_backpressured > 0 || r.sender.send_backpressured > 0,
        "the budget squeeze must actually engage (refused TUs {} / refused sends {})",
        r.receiver.tus_backpressured,
        r.sender.send_backpressured
    );
}

#[test]
fn media_flow_sheds_oldest_within_budget_instead_of_backpressuring() {
    // NoRetransmit media under loss with a tight budget: stale partial
    // frames are shed (counted), never silently wedged, and the budget
    // still holds.
    const BUDGET: usize = 16 * 1024;
    let adus = seq_workload(120, 4096);
    let cfg = AlfConfig {
        recovery: RecoveryMode::NoRetransmit,
        reassembly_budget_bytes: BUDGET,
        // Long assembly timeout so partials survive to contend for budget.
        assembly_timeout: SimDuration::from_millis(200),
        ..AlfConfig::default()
    };
    let r = run_alf_transfer_scenario(
        5,
        LinkConfig::lan(),
        FaultConfig::loss(0.10),
        cfg,
        Substrate::Packet,
        &adus,
        None,
        &ScenarioOpts::default(),
    );
    assert!(r.complete);
    assert!(r.verified, "shedding must never corrupt a delivered ADU");
    assert!(
        r.reassembly_peak <= BUDGET,
        "reassembly peak {} exceeded the {} byte budget",
        r.reassembly_peak,
        BUDGET
    );
    assert!(
        r.receiver.adus_shed > 0,
        "drop-oldest shedding must engage under loss with a tight budget"
    );
    assert_eq!(
        r.receiver.tus_backpressured, 0,
        "media flows shed; they must not stall the live stream with backpressure"
    );
}
