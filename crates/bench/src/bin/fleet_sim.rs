//! Fleet-simulation driver.
//!
//! Runs the `sb-sim` discrete-event fleet (10⁵ clients full, 10⁴ under
//! `--smoke`) **twice** with the same seed to enforce the determinism
//! contract (identical report and byte-identical JSON, trace digest
//! included — the process exits non-zero otherwise), then once more with
//! provider hint jitter enabled for the thundering-herd comparison, and
//! prints the report, also writing it to `target/fleet_sim.json`:
//!
//! * `smoke` — run size flag;
//! * `determinism` — `runs`, `identical` (must be `true`), `trace_digest`;
//! * `primary` — the full no-jitter [`FleetReport`](sb_sim::FleetReport)
//!   (client/corpus shape, event counts, `failed_lookups`, provider QPS,
//!   per-shard routing, per-epoch journal stats, the herd histogram and
//!   the per-shaper `trackers` hit-rates);
//! * `jitter_seconds` + `herd_with_jitter` — the same fleet re-run with
//!   jittered `next_update_seconds` hints, herd histogram only (the knob
//!   flattens `peak_after_boot` without changing exchange counts).
//!
//! Run: `cargo run --release -p sb-bench --bin fleet_sim` (or `--smoke`).
//! Scale knobs: `SB_FLEET_CLIENTS` (client count override) and
//! `SB_FLEET_OUT` (output path, default `target/fleet_sim.json`).

use std::time::Instant;

use sb_sim::{run_fleet, FleetConfig};

/// Jitter bound for the herd-comparison run: half the base hint.
const HERD_JITTER_SECONDS: u64 = 900;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut config = if smoke {
        FleetConfig::smoke()
    } else {
        FleetConfig::full()
    };
    if let Ok(clients) = std::env::var("SB_FLEET_CLIENTS") {
        config = config.with_clients(clients.parse().expect("SB_FLEET_CLIENTS: not a number"));
    }
    let out_path =
        std::env::var("SB_FLEET_OUT").unwrap_or_else(|_| "target/fleet_sim.json".to_string());

    eprintln!(
        "fleet_sim: {} clients, {} shards, {}s horizon{}",
        config.clients,
        config.shards,
        config.horizon.as_secs(),
        if smoke { " (smoke)" } else { "" },
    );

    let start = Instant::now();
    let primary = run_fleet(&config);
    eprintln!(
        "fleet_sim: primary run done in {:.1}s — {} events, {} lookups, {} update exchanges",
        start.elapsed().as_secs_f64(),
        primary.events,
        primary.lookups,
        primary.update_exchanges,
    );

    // The determinism contract is enforced on every run, not just asserted
    // by the test suite: same seed must reproduce the report bit for bit.
    let replay = run_fleet(&config);
    let identical = primary == replay && primary.to_json(2) == replay.to_json(2);
    if !identical {
        eprintln!("fleet_sim: DETERMINISM VIOLATION — same-seed replay diverged");
        std::process::exit(1);
    }
    eprintln!(
        "fleet_sim: same-seed replay identical (trace digest {:016x})",
        primary.trace_digest
    );

    let jittered = run_fleet(&config.clone().with_hint_jitter(HERD_JITTER_SECONDS));
    eprintln!(
        "fleet_sim: herd peak after boot {} (fixed hint) vs {} (±{}s jitter)",
        primary.herd.peak_after_boot, jittered.herd.peak_after_boot, HERD_JITTER_SECONDS,
    );

    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"determinism\": {{\"runs\": 2, \"identical\": true, \
         \"trace_digest\": \"{:016x}\"}},\n  \"primary\": {},\n  \"jitter_seconds\": \
         {HERD_JITTER_SECONDS},\n  \"herd_with_jitter\": {}\n}}\n",
        primary.trace_digest,
        primary.to_json(2),
        jittered.herd.to_json(2),
    );

    print!("{json}");
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create the report's directory");
    }
    std::fs::write(&out_path, &json).expect("write the fleet_sim report");
    eprintln!("wrote {out_path}");
}
