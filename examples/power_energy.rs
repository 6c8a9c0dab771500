//! Power and energy study (paper Fig. 3/4, §4.2–4.3): per-benchmark
//! power at the full node, hot/cool classification, the Z-plot with
//! E/EDP minima, the zero-core baseline comparison across CPU
//! generations, and the race-to-idle verdict.
//!
//! ```text
//! cargo run --release --example power_energy
//! ```

use spechpc::harness::experiments::node_level::fig1_with;
use spechpc::harness::experiments::power_energy::{baseline_table, fig3, fig4, hot_cool_table};
use spechpc::power::classify::{classify_heat, HeatClass};
use spechpc::power::race::{analyze, concurrency_sweep, saturating_speedup};
use spechpc::prelude::*;

fn main() {
    let exec = Executor::new(RunConfig::default(), ExecConfig::default());
    let a = presets::cluster_a();
    let b = presets::cluster_b();

    println!("== §4.2.1 hot and cool benchmarks (full node, tiny suite) ==");
    println!(
        "{:<12} {:>14} {:>8} {:>6} | {:>14} {:>8} {:>6}",
        "benchmark", "A [W/socket]", "%TDP", "class", "B [W/socket]", "%TDP", "class"
    );
    let f1a = fig1_with(&exec, &a, 8).expect("sweep A");
    let f1b = fig1_with(&exec, &b, 8).expect("sweep B");
    let hca = hot_cool_table(&f1a, &a);
    let hcb = hot_cool_table(&f1b, &b);
    for ((name, wa, fa), (_, wb, fb)) in hca.iter().zip(&hcb) {
        let cls = |f: f64| {
            if f >= 0.95 {
                "hot"
            } else if f >= 0.90 {
                "warm"
            } else {
                "cool"
            }
        };
        println!(
            "{name:<12} {wa:>14.0} {:>7.0}% {:>6} | {wb:>14.0} {:>7.0}% {:>6}",
            fa * 100.0,
            cls(*fa),
            fb * 100.0,
            cls(*fb)
        );
    }

    println!("\n== Fig. 3 — zero-core baseline extrapolation ==");
    let f3a = fig3(&f1a, &a);
    let f3b = fig3(&f1b, &b);
    println!(
        "{}: extrapolated {:.0} W/socket (configured {:.0} W, {:.0}% of TDP)",
        a.name,
        f3a.extrapolated_baseline_w,
        a.node.cpu.baseline_power_w,
        100.0 * a.node.cpu.baseline_power_w / a.node.cpu.tdp_w
    );
    println!(
        "{}: extrapolated {:.0} W/socket (configured {:.0} W, {:.0}% of TDP)",
        b.name,
        f3b.extrapolated_baseline_w,
        b.node.cpu.baseline_power_w,
        100.0 * b.node.cpu.baseline_power_w / b.node.cpu.tdp_w
    );

    println!("\n== §4.2.3 baseline power across CPU generations ==");
    let sb = presets::sandy_bridge_node();
    print!("{}", baseline_table(&[&a.node, &b.node, &sb]).render());

    println!(
        "\n== Fig. 4 — Z-plot (energy vs. speedup) for pot3d on {} ==",
        a.name
    );
    let f4 = fig4(&f1a);
    let z = f4
        .zplots
        .iter()
        .find(|z| z.label.starts_with("pot3d"))
        .expect("pot3d swept");
    print!("{}", z.render_ascii(60, 14));
    let e_min = z.energy_minimum().unwrap();
    let edp_min = z.edp_minimum().unwrap();
    println!(
        "E minimum at {} cores ({:.0} kJ); EDP minimum at {} cores — separated by {} sweep step(s).",
        e_min.resources,
        e_min.value / 1e3,
        edp_min.resources,
        z.min_separation_steps().unwrap()
    );

    println!("\n== §4.3.1 race-to-idle vs. concurrency throttling ==");
    for (label, cpu, domain, s_max) in [
        (
            "Ice Lake (ClusterA)",
            &a.node.cpu,
            a.node.cores_per_domain(),
            6.0,
        ),
        (
            "Sapphire Rapids (ClusterB)",
            &b.node.cpu,
            b.node.cores_per_domain(),
            6.0,
        ),
        ("Sandy Bridge (2012)", &sb.cpu, sb.cores(), 3.5),
    ] {
        let sweep = concurrency_sweep(
            cpu,
            domain,
            0.4,
            100.0,
            saturating_speedup(s_max, 1.0),
            move |n| (s_max / n as f64).min(1.0),
        );
        let v = analyze(&sweep).unwrap();
        println!(
            "{label:<28} E-opt {:>2} cores, EDP-opt {:>2}, throttling saves {:>4.1}% → {}",
            v.energy_optimal_cores,
            v.edp_optimal_cores,
            v.throttling_gain * 100.0,
            if v.race_to_idle_is_optimal {
                "race-to-idle wins"
            } else {
                "concurrency throttling pays off"
            }
        );
    }

    println!("\n== heat classes per §4.2.1 calibration ==");
    for bench in all_benchmarks() {
        let heat = bench.signature(WorkloadClass::Tiny).heat;
        let c = classify_heat(&a.node.cpu, heat);
        let marker = match c {
            HeatClass::Hot => "🔥 hot",
            HeatClass::Warm => "warm",
            HeatClass::Cool => "cool",
        };
        println!("{:<12} heat {:.2} → {marker}", bench.meta().name, heat);
    }
}
