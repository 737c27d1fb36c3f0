//! Scenario tests for adaptive transfer control (`AlfConfig::adaptive`):
//! the RTT-driven RTO, the ADU-unit AIMD congestion window, and
//! delivery-rate pacing, each validated end-to-end through the simulator —
//! including the ISSUE acceptance bar: goodput under a token-bucket
//! bottleneck converges near the bottleneck rate and beats the fixed-timer
//! baseline under random loss.

use alf_core::driver::{run_alf_transfer, seq_workload};
use alf_core::transport::{AlfConfig, RecoveryMode};
use ct_netsim::fault::FaultConfig;
use ct_netsim::link::LinkConfig;
use ct_netsim::pump::Substrate;
use ct_netsim::time::SimDuration;

fn adaptive() -> AlfConfig {
    AlfConfig {
        adaptive: true,
        ..AlfConfig::default()
    }
}

#[test]
fn rto_converges_to_rtt_on_clean_link() {
    // (a) On a clean LAN the sender's RTO must track the measured RTT and
    // sit far below the 50 ms fixed default it replaces.
    let adus = seq_workload(100, 1400);
    let r = run_alf_transfer(
        11,
        LinkConfig::lan(),
        FaultConfig::none(),
        adaptive(),
        Substrate::Packet,
        &adus,
        None,
    );
    assert!(r.complete && r.verified);
    assert!(
        r.sender.rtt_samples > 10,
        "echoes must flow: {}",
        r.sender.rtt_samples
    );
    assert!(
        r.sender.srtt_us > 0.0 && r.sender.srtt_us < 5_000.0,
        "LAN srtt must be sub-millisecond-ish, got {} µs",
        r.sender.srtt_us
    );
    assert!(
        r.sender.rto_us < 10_000.0,
        "adaptive RTO must be ≪ the 50 ms fixed default, got {} µs",
        r.sender.rto_us
    );
}

#[test]
fn cwnd_halves_on_loss_and_recovers_end_to_end() {
    // (b) Under random loss the congestion window must register loss
    // events (multiplicative decrease) yet still grow past its initial
    // size over the run — decrease then recovery.
    let adus = seq_workload(150, 1400);
    let r = run_alf_transfer(
        13,
        LinkConfig::lan(),
        FaultConfig::loss(0.02),
        adaptive(),
        Substrate::Packet,
        &adus,
        None,
    );
    assert!(r.complete && r.verified);
    assert!(r.sender.loss_events > 0, "2% loss must trigger decrease");
    assert!(
        r.sender.cwnd_peak_adus > 4.0,
        "window must have grown past its initial 4 ADUs, peak {}",
        r.sender.cwnd_peak_adus
    );
    assert!(
        r.sender.cwnd_adus >= 1.0,
        "floor of one ADU always transmittable"
    );
}

#[test]
fn no_retransmit_mode_unaffected_by_congestion_window() {
    // (c) Real-time flows have no ACK clock: adaptive mode must neither
    // gate nor grow anything for them, and delivery must not degrade.
    let adus = seq_workload(80, 1200);
    let plain = run_alf_transfer(
        17,
        LinkConfig::lan(),
        FaultConfig::none(),
        AlfConfig {
            recovery: RecoveryMode::NoRetransmit,
            ..AlfConfig::default()
        },
        Substrate::Packet,
        &adus,
        None,
    );
    let gated = run_alf_transfer(
        17,
        LinkConfig::lan(),
        FaultConfig::none(),
        AlfConfig {
            recovery: RecoveryMode::NoRetransmit,
            adaptive: true,
            ..AlfConfig::default()
        },
        Substrate::Packet,
        &adus,
        None,
    );
    assert!(plain.complete && plain.verified);
    assert!(gated.complete && gated.verified);
    assert_eq!(gated.adus_delivered, plain.adus_delivered);
    assert_eq!(
        gated.sender.cwnd_adus, 4.0,
        "no ACKed ADUs → the window never moves"
    );
    assert_eq!(gated.sender.loss_events, 0);
}

#[test]
fn rate_limited_goodput_converges_near_bottleneck() {
    // The acceptance bar: a 4-frames-per-10-ms token bucket passes
    // 400 × 1400-byte payloads per second = 4.48 Mb/s of goodput. The
    // adaptive sender must land within 20% of that; the fixed-timer
    // baseline (which blasts at link pace and stalls on 50 ms timeouts)
    // must do strictly worse.
    let adus = seq_workload(200, 1400);
    let run = |cfg| {
        run_alf_transfer(
            7,
            LinkConfig::lan(),
            FaultConfig::rate_limited(4, SimDuration::from_millis(10)),
            cfg,
            Substrate::Packet,
            &adus,
            None,
        )
    };
    let fixed = run(AlfConfig::default());
    let adaptive = run(adaptive());
    assert!(fixed.complete && fixed.verified);
    assert!(adaptive.complete && adaptive.verified);
    let bottleneck_mbps = 400.0 * 1400.0 * 8.0 / 1e6; // 4.48
    assert!(
        adaptive.goodput_mbps >= 0.8 * bottleneck_mbps,
        "adaptive goodput {:.3} Mb/s must be within 20% of the {:.2} Mb/s bottleneck",
        adaptive.goodput_mbps,
        bottleneck_mbps
    );
    assert!(
        adaptive.goodput_mbps > fixed.goodput_mbps,
        "adaptive {:.3} must beat fixed {:.3}",
        adaptive.goodput_mbps,
        fixed.goodput_mbps
    );
    assert!(
        adaptive.sender.delivery_rate_mbps > 0.0,
        "rate estimator must have sampled"
    );
}

#[test]
fn adaptive_beats_fixed_baseline_under_one_percent_loss() {
    let adus = seq_workload(200, 1400);
    let run = |cfg| {
        run_alf_transfer(
            7,
            LinkConfig::lan(),
            FaultConfig::loss(0.01),
            cfg,
            Substrate::Packet,
            &adus,
            None,
        )
    };
    let fixed = run(AlfConfig::default());
    let adaptive = run(adaptive());
    assert!(fixed.complete && fixed.verified);
    assert!(adaptive.complete && adaptive.verified);
    assert!(
        adaptive.goodput_mbps > fixed.goodput_mbps,
        "adaptive {:.3} Mb/s must beat the fixed-timer {:.3} Mb/s under loss",
        adaptive.goodput_mbps,
        fixed.goodput_mbps
    );
}

#[test]
fn adaptive_stats_flow_through_report() {
    // The observability contract: SRTT, RTTVAR, RTO, cwnd trajectory and
    // loss events all surface in the sender's AlfStats via AlfReport.
    let adus = seq_workload(100, 1400);
    let r = run_alf_transfer(
        19,
        LinkConfig::wan(),
        FaultConfig::loss(0.01),
        adaptive(),
        Substrate::Packet,
        &adus,
        None,
    );
    assert!(r.complete && r.verified);
    let s = &r.sender;
    assert!(s.rtt_samples > 0);
    assert!(s.srtt_us > 0.0);
    assert!(s.rttvar_us >= 0.0);
    assert!(s.rto_us > 0.0);
    assert!(s.cwnd_adus >= 1.0);
    assert!(s.cwnd_peak_adus >= s.cwnd_adus);
}
