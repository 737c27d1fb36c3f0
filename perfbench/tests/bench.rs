//! Tests of the benchmark itself: each workload's tiny shape runs clean,
//! and the deterministic counts repeat exactly for a seed.

use alfnet_perfbench::driver::{Measured, World};
use alfnet_perfbench::trace::{Layer, Tracer};
use alfnet_perfbench::workload::{self, Shape};

/// Set up and measure only the deterministic window (zero wall seconds).
fn run(shape: Shape, seed: u64, traced: bool) -> (Measured, Tracer) {
    let (mut world, ok) = World::setup(shape, seed);
    assert!(ok, "{}: warm-up failed", shape.name);
    let mut tr = Tracer::new();
    let m = world.measure(&mut tr, 0.0, traced);
    (m, tr)
}

#[test]
fn tiny_shape_of_every_workload_completes_without_failures() {
    for shape in workload::all() {
        for traced in [false, true] {
            let (m, _) = run(shape.tiny(), 3, traced);
            let t = &m.tally;
            assert!(m.complete, "{} traced={traced}: {t:?}", shape.name);
            assert!(t.offered > 0);
            assert_eq!(t.verified, t.offered, "{}: {t:?}", shape.name);
            assert_eq!((t.bad, t.lost, t.net_send_errors), (0, 0, 0));
            assert_eq!(m.host_latency_ns.count(), t.verified);
        }
    }
}

#[test]
fn lossy_tiny_shape_exercises_recovery() {
    let shape = workload::by_name("lossy-4k-1k")
        .expect("workload exists")
        .tiny();
    let (m, _) = run(shape, 3, true);
    let i = &m.inspection;
    assert!(i.net.fault_drops > 0 && i.net.duplicates > 0, "{i:?}");
    // Frames were dropped, yet every ADU arrived intact: buffered recovery ran.
    assert!(m.complete);
    assert_eq!(m.tally.verified, m.tally.offered);
}

#[test]
fn allocation_counts_repeat_exactly_for_a_seed() {
    for shape in workload::all() {
        let shape = shape.tiny();
        let (a, tra) = run(shape, 11, true);
        let (b, trb) = run(shape, 11, true);
        for l in Layer::ALL {
            assert_eq!(
                tra.window[l as usize].self_alloc,
                trb.window[l as usize].self_alloc,
                "{}: {}",
                shape.name,
                l.name()
            );
            assert_eq!(
                tra.window[l as usize].calls,
                trb.window[l as usize].calls,
                "{}: {}",
                shape.name,
                l.name()
            );
        }
        let stack: u64 = Layer::ALL
            .iter()
            .filter(|l| l.is_stack())
            .map(|&l| tra.window[l as usize].self_alloc.allocs)
            .sum();
        assert!(stack > 0, "{}: the stack allocates", shape.name);
        assert_eq!(a.window, b.window, "{}", shape.name);
        assert_eq!(a.sim_latency_ns, b.sim_latency_ns, "{}", shape.name);
        assert_eq!(a.inspection.transport, b.inspection.transport);
        assert_eq!(a.inspection.net, b.inspection.net);
    }
}

#[test]
fn seed_changes_the_inputs() {
    let shape = workload::by_name("lossy-4k-1k")
        .expect("workload exists")
        .tiny();
    let (a, _) = run(shape, 1, true);
    let (b, _) = run(shape, 2, true);
    assert_ne!(a.inspection.net, b.inspection.net);
}
