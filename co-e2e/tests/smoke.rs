//! The benchmark's own tests, at smoke scale: determinism under a seed,
//! the n=64 pair's shared schedule, and every workload end to end.

use std::path::PathBuf;

use co_e2e::check;
use co_e2e::manifest::{END_TO_END, PER_LAYER};
use co_e2e::run::{run_workload, RunOptions};
use co_e2e::sim;
use co_e2e::workload::{find, Scale, WORKLOADS};

fn smoke_options(trace: bool) -> RunOptions {
    RunOptions {
        seed: 1,
        seconds: 0.3,
        trace,
        scale: Scale::Smoke,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("spans"),
    }
}

#[test]
fn same_seed_repeats_exactly_and_another_seed_does_not() {
    // The lossy workload: loss draws, retransmissions and timers all have
    // to repeat for the counts to.
    let wl = find("sim-n8-lossy").unwrap();
    let msgs = wl.msgs_for(Scale::Smoke, 0.0);
    let a = sim::run_rep(wl, msgs, 7, false);
    let b = sim::run_rep(wl, msgs, 7, false);
    let c = sim::run_rep(wl, msgs, 8, false);
    assert_eq!(a.total, b.total, "harness counts");
    assert_eq!(a.product, b.product, "product counters");
    assert_eq!(a.lat_us, b.lat_us, "simulated latencies");
    assert_eq!(a.sim_end_us, b.sim_end_us);
    assert!(a.net.link_drops > 0, "the lossy workload loses PDUs");
    assert_eq!(a.net.link_drops, b.net.link_drops);
    let digest = |rep: &sim::SimRep| {
        check::verify(&rep.schedule.payload_hash, &rep.delivered)
            .expect("correct run")
            .digest
    };
    assert_eq!(digest(&a), digest(&b));
    assert_ne!(digest(&a), digest(&c), "another seed, other payloads");
    assert_ne!(a.lat_us, c.lat_us);
}

#[test]
fn the_n64_pair_runs_one_schedule_and_delivers_one_message_set() {
    let co = find("sim-n64-co").unwrap();
    let hybrid = find("sim-n64-hybrid").unwrap();
    let msgs = co.msgs_for(Scale::Smoke, 0.0);
    assert_eq!(msgs, hybrid.msgs_for(Scale::Smoke, 0.0));
    let a = sim::run_rep(co, msgs, 3, false);
    let b = sim::run_rep(hybrid, msgs, 3, false);
    assert_eq!(
        a.schedule.digest(),
        b.schedule.digest(),
        "byte-identical schedules"
    );
    let set_a = check::verify(&a.schedule.payload_hash, &a.delivered).unwrap();
    let set_b = check::verify(&b.schedule.payload_hash, &b.delivered).unwrap();
    assert_eq!(set_a, set_b, "same messages delivered, whatever the order");
    // The ordering policy is the difference: the reference core holds
    // messages for two confirmation rounds, the thin one does not.
    let median = |rep: &sim::SimRep| {
        let mut v = rep.lat_us.clone();
        v.sort_unstable();
        v[v.len() / 2]
    };
    assert!(median(&a) > 2 * median(&b));
}

#[test]
fn every_workload_runs_end_to_end_untraced_and_traced() {
    for wl in &WORKLOADS {
        let plain =
            run_workload(wl, &smoke_options(false)).unwrap_or_else(|e| panic!("{}: {e}", wl.name));
        assert!(plain.attempted > 0, "{}", wl.name);
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{}", wl.name);
        for (name, value) in &plain.metrics {
            // A smoke-scale `thr-*` repetition burns less CPU than one
            // 10 ms accounting tick.
            let may_be_zero = *name == "cpu_us_per_deliver";
            assert!(
                value.is_finite() && (*value > 0.0 || may_be_zero),
                "{}: {name} = {value}",
                wl.name
            );
        }

        let traced = run_workload(wl, &smoke_options(true))
            .unwrap_or_else(|e| panic!("{} traced: {e}", wl.name));
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, expected, "{}", wl.name);
        assert!(
            traced.get("co-protocol.delivered").unwrap() > 0.0,
            "{}",
            wl.name
        );
        assert!(
            traced.get("harness.layer_coverage").unwrap() > 0.5,
            "{}",
            wl.name
        );
    }
}
