//! Turns measured runs into named metrics, prints them, records a full
//! run, and reports run-to-run noise.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use sb_telemetry::HistogramSnapshot;

use crate::metrics::{MetricDef, Values, END_TO_END, EXACT, PER_LAYER};
use crate::pool::Workload;
use crate::run::{measure, Measured, RunConfig};
use crate::span::Tracer;
use crate::stats::{median, percentile_of, quartiles, quiet_windows, WINDOWS};
use crate::Args;

/// What one invocation reports.
pub struct Outcome {
    table: &'static [MetricDef],
    values: Values,
    attempted: u64,
    failed: u64,
    /// Context a reader needs next to the numbers: sample counts, the
    /// input digest, the layer-separation checks.
    notes: Vec<String>,
    violations: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Every metric by name with its unit, then the contract's JSON line.
    pub fn print(&self) {
        let mut text = String::new();
        for (def, value) in self.values.in_order(self.table) {
            let bound = match def.bound {
                Some(bound) => format!("  (may worsen by {bound})"),
                None => String::new(),
            };
            writeln!(
                text,
                "{:<32} {:>16.4} {}{}",
                def.name, value, def.unit, bound
            )
            .expect("write to a string");
        }
        for note in &self.notes {
            writeln!(text, "# {note}").expect("write to a string");
        }
        for violation in &self.violations {
            writeln!(text, "! ORACLE: {violation}").expect("write to a string");
        }
        writeln!(text, "{}", self.json(None)).expect("write to a string");
        // One write, so the JSON object is the last line whatever else
        // shares the terminal.
        print!("{text}");
        std::io::stdout().flush().expect("flush standard output");
    }

    /// The result object; `context` adds the run's shape for the record.
    fn json(&self, context: Option<&str>) -> String {
        let metrics: Vec<String> = self
            .values
            .in_order(self.table)
            .into_iter()
            .map(|(def, value)| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    def.name, value, def.unit
                )
            })
            .collect();
        format!(
            "{{{}\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            context.unwrap_or(""),
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// Per-URL timing figures of one phase: the quiet-quarter figures that are
/// reported (see `stats::QuietWindows`) and the whole-run ones printed
/// beside them.
struct Timing {
    lookups_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    whole_run_lookups_per_s: f64,
    whole_run_p50_us: f64,
    samples: usize,
    smallest_window: usize,
}

fn timing(config: &RunConfig, measured: &Measured) -> Timing {
    // A page-load batch's latency is shared out over its URLs.
    let batch = config.workload.batch_urls() as f64;
    let series: Vec<&[u32]> = measured
        .results
        .iter()
        .map(|r| r.latencies.as_slice())
        .collect();
    let quiet = quiet_windows(&series);
    let mut all: Vec<u32> = series.concat();
    Timing {
        lookups_per_s: quiet.calls_per_s * batch,
        p50_us: quiet.p50_ns / batch / 1e3,
        p99_us: quiet.p99_ns / batch / 1e3,
        whole_run_lookups_per_s: measured.lookups_per_s(),
        whole_run_p50_us: f64::from(percentile_of(&mut all, 0.5)) / batch / 1e3,
        samples: all.len(),
        smallest_window: quiet.smallest_window,
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn common_notes(config: &RunConfig, measured: &Measured, lat: &Timing) -> Vec<String> {
    let mut notes = vec![
        format!(
            "inputs: pool digest {:016x} (seed {:#x}); {} URLs checked, {} updates timed",
            measured.pool_digest,
            config.seed,
            measured.urls(),
            measured.update_ms.len()
        ),
        format!(
            "disclosure: the clients' ledgers hold {} requests, the provider logged {}",
            measured.ledger_requests, measured.query_log_requests
        ),
        format!(
            "timing: {} samples in {WINDOWS} windows per client, the smallest of {} ({} beyond \
             its p99); quiet-quarter p99 {:.3} us; over the whole run {:.0} URLs/s and a p50 of \
             {:.3} us",
            lat.samples,
            lat.smallest_window,
            lat.smallest_window / 100,
            lat.p99_us,
            lat.whole_run_lookups_per_s,
            lat.whole_run_p50_us
        ),
    ];
    if config.workload == Workload::UpdateChurn {
        notes.push(format!(
            "churn: {} rounds, {} journal compactions and {} store rebuilds inside the timed phase",
            measured.churn.rounds,
            measured.journal_after.compactions - measured.journal_before.compactions,
            measured.store_after.rebuilds - measured.store_before.rebuilds
        ));
    }
    notes
}

pub fn untraced_run(config: &RunConfig, record: bool) -> Outcome {
    let measured = measure(config, None);
    let lat = timing(config, &measured);
    let audit_urls: u64 = measured.results.iter().map(|r| r.audit.urls).sum();
    let audit = |count: fn(&crate::drive::ExactCounts) -> u64| -> f64 {
        measured
            .results
            .iter()
            .map(|r| count(&r.audit))
            .sum::<u64>() as f64
            / audit_urls as f64
    };

    let mut values = Values::default();
    values.set("setup_s", measured.setup_s);
    values.set("lookups_per_s", lat.lookups_per_s);
    values.set("lookup_p50_us", lat.p50_us);
    values.set("update_p50_ms", median(&measured.update_ms));
    values.set("round_trips_per_url", audit(|a| a.round_trips));
    values.set("prefixes_revealed_per_url", audit(|a| a.prefixes_revealed));
    values.set(
        "client_db_bytes_per_prefix",
        measured.results[0].audit.database_bytes as f64 / config.sizes.prefixes as f64,
    );
    values.set("peak_rss_mb", peak_rss_mb());

    let mut notes = common_notes(config, &measured, &lat);
    notes.push(format!(
        "exact counts are taken over the first {audit_urls} URLs (the audit window)"
    ));
    let outcome = Outcome {
        table: END_TO_END,
        values,
        attempted: measured.attempted,
        failed: measured.failed,
        notes,
        violations: measured.violations,
    };
    if record {
        if outcome.correct() {
            match write_record(config, &outcome) {
                Ok(path) => eprintln!("recorded in {}", path.display()),
                Err(error) => eprintln!("could not record the run: {error}"),
            }
        } else {
            eprintln!("not recorded: the oracle failed");
        }
    }
    outcome
}

pub fn traced_run(config: &RunConfig) -> Outcome {
    // The same inputs twice: untraced for the reference speed (and the
    // allocation count, which the decorators would inflate), then traced.
    let reference = measure(config, None);
    let tracer = Tracer::new(config.clients);
    let traced = measure(config, Some(&tracer));
    let replay = traced.replay.as_ref().expect("a traced run replays");
    let lat = timing(config, &traced);
    let batch = config.workload.batch_urls() as f64;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;

    let mut v = Values::default();
    v.set("url.canonicalize_ns", replay.canonicalize_ns);
    v.set("url.decompose_ns", replay.decompose_ns);
    v.set("url.decomps_per_url", replay.decomps_per_url);
    v.set("hash.sha256_ns_per_url", replay.sha256_ns_per_url);
    v.set("hash.sha256_ns_per_digest", replay.sha256_ns_per_digest);
    v.set("hash.bytes_per_digest", replay.bytes_per_digest);
    v.set("store.probe_ns", replay.probe_ns);
    v.set("store.probes_per_url", replay.decomps_per_url);
    v.set(
        "store.local_hit_share",
        ratio(
            traced.counter("client.local_hits"),
            traced.counter("client.lookups"),
        ),
    );
    v.set("store.overlay_len", traced.store_after.overlay_len as f64);
    v.set(
        "store.deltas_absorbed",
        (traced.store_after.deltas_absorbed - traced.store_before.deltas_absorbed) as f64,
    );
    let rebuilds = traced.store_after.rebuilds - traced.store_before.rebuilds;
    v.set("store.rebuilds", rebuilds as f64);
    v.set("store.snapshot_load_ms", replay.snapshot_load_ms);

    let check_url_ns = lat.p50_us * 1e3;
    let stages_ns = replay.canonicalize_ns
        + replay.decompose_ns
        + replay.sha256_ns_per_url
        + replay.probe_ns * replay.decomps_per_url;
    let children_ns = replay.call_children_ns / batch;
    v.set("client.check_url_ns", check_url_ns);
    v.set("client.self_ns", replay.call_self_ns / batch - stages_ns);
    v.set(
        "client.explained_share",
        (stages_ns + children_ns) / check_url_ns,
    );
    let calls_with_hits = if config.workload == Workload::PageBatchShaped {
        traced
            .results
            .iter()
            .map(|r| r.latencies.len() as u64)
            .sum()
    } else {
        traced.counter("client.local_hits")
    };
    v.set(
        "client.cache_hit_share",
        1.0 - ratio(traced.ledger_records, calls_with_hits).min(1.0),
    );
    v.set(
        "client.allocs_per_lookup",
        ratio(
            reference.results.iter().map(|r| r.allocations).sum(),
            reference.urls(),
        ),
    );
    v.set(
        "client.allocs_per_local_lookup",
        replay.allocs_per_local_lookup,
    );
    v.set(
        "client.requests_per_batch",
        ratio(
            traced.counter("client.requests_sent"),
            traced.counter("client.full_hash_round_trips"),
        ),
    );
    v.set(
        "client.cover_prefix_share",
        ratio(
            traced.counter("client.dummy_prefixes_sent"),
            traced.counter("client.prefixes_sent"),
        ),
    );
    v.set("client.full_sync_ms", traced.full_sync_ms);
    v.set("client.apply_chunks_ms", replay.client_update_self_ms);
    v.set("client.ledger_records", traced.ledger_requests as f64);
    v.set("client.lookup_p99_us", lat.p99_us);

    v.set("retry.round_trip_us", replay.retry_round_trip_us);
    v.set("retry.retries", traced.counter("retry.retries") as f64);
    v.set("tcp_client.rtt_us", replay.tcp_rtt_us);
    v.set("tcp_client.rtt_p99_us", replay.tcp_rtt_p99_us);
    let opened = traced.counter("tcp_client.connections_opened");
    let reused = traced.counter("tcp_client.connections_reused");
    v.set("tcp_client.connections_opened", opened as f64);
    v.set("tcp_client.reuse_share", ratio(reused, reused + opened));

    v.set("wire.encode_request_ns", replay.encode_request_ns);
    v.set("wire.decode_request_ns", replay.decode_request_ns);
    v.set("wire.encode_response_ns", replay.encode_response_ns);
    v.set("wire.decode_response_ns", replay.decode_response_ns);
    v.set("wire.request_bytes", replay.request_bytes);
    v.set("wire.response_bytes", replay.response_bytes);
    v.set(
        "wire.update_bytes_per_prefix",
        replay.update_bytes_per_prefix,
    );
    v.set(
        "wire_bytes_per_url",
        ratio(traced.phase_wire_bytes, traced.urls()),
    );

    let codec_us = (replay.encode_request_ns
        + replay.decode_request_ns
        + replay.encode_response_ns
        + replay.decode_response_ns)
        / 1e3;
    let residual_us = replay.tcp_rtt_us - replay.server_full_hashes_us - codec_us;
    if let Some(tier) = traced.tier {
        v.set("tier.residual_us", residual_us);
        v.set("tier.frames_received", tier.frames_received as f64);
        v.set("tier.checksum_failures", tier.checksum_failures as f64);
    }
    v.set(
        "tier.bytes_parity",
        f64::from(u8::from(traced.bytes_parity)),
    );

    v.set("server.full_hashes_us", replay.server_full_hashes_us);
    v.set(
        "server.full_hashes_p99_us",
        replay.server_full_hashes_p99_us,
    );
    v.set(
        "server.requests_per_batch",
        replay.server_requests_per_batch,
    );
    v.set(
        "server.prefixes_per_request",
        replay.server_prefixes_per_request,
    );
    v.set("server.update_ms", replay.server_update_ms);
    v.set("server.mutate_ms", median(&traced.churn.mutate_ms));
    v.set(
        "server.journal_live_chunks",
        (traced.journal_after.add_chunks + traced.journal_after.sub_chunks) as f64,
    );
    let compactions = traced.journal_after.compactions - traced.journal_before.compactions;
    v.set("server.journal_compactions", compactions as f64);
    v.set("server.build_ms", traced.build_ms);

    let registry_p50 = traced
        .telemetry
        .iter()
        .filter_map(|plane| plane.histogram("client.lookup_ns"))
        .fold(None, |merged: Option<HistogramSnapshot>, next| {
            Some(match merged {
                Some(merged) => merged.merged(next),
                None => next.clone(),
            })
        })
        .map_or(0.0, |histogram| histogram.p50() as f64);
    v.set("telemetry.lookup_p50_skew", registry_p50 / check_url_ns);
    let overhead = 1.0 - traced.lookups_per_s() / reference.lookups_per_s();
    v.set("trace.overhead_share", overhead);
    v.set("corpus.generate_ms", traced.corpus_generate_ms);
    let attempted = reference.attempted + traced.attempted;
    let failed = reference.failed + traced.failed;
    v.set("failed_share", ratio(failed, attempted));

    let mut notes = common_notes(config, &traced, &lat);
    notes.push(format!(
        "trace: {} spans recorded, {} URLs and {} frames replayed, {} spans written{}",
        replay.spans_recorded,
        replay.urls_replayed,
        replay.frames_replayed,
        replay.spans_written,
        replay
            .trace_path
            .as_ref()
            .map_or(String::new(), |path| format!(" to {}", path.display())),
    ));
    notes.push(format!(
        "untraced reference: {:.0} URLs/s; traced: {:.0} URLs/s",
        reference.lookups_per_s(),
        traced.lookups_per_s()
    ));
    // The layer-separation checks this benchmark was designed around.
    let hash_url_share = (stages_ns - replay.probe_ns * replay.decomps_per_url) / check_url_ns;
    notes.push(match config.workload {
        Workload::BrowseLocal => format!(
            "separation: sb-url + sb-hash are {:.0} % of a lookup (designed >= 70 %), \
             replayed stages explain {:.0} % (>= 90 %)",
            hash_url_share * 100.0,
            (stages_ns + children_ns) / check_url_ns * 100.0
        ),
        Workload::HitsTcp | Workload::PageBatchShaped => format!(
            "separation: sb-url + sb-hash are {:.0} % of a lookup (hits_tcp: designed <= 10 %), \
             tcp_client.rtt is {:.0} % (hits_tcp: >= 80 %), tier.residual_us {:.1}",
            hash_url_share * 100.0,
            replay.tcp_rtt_us / batch / lat.p50_us * 100.0,
            residual_us
        ),
        Workload::UpdateChurn => format!(
            "separation: server.update_ms + client.apply_chunks_ms = {:.1} ms of a {:.1} ms \
             update; {compactions} compactions and {rebuilds} rebuilds (designed >= 3 each)",
            replay.server_update_ms + replay.client_update_self_ms,
            median(&traced.update_ms)
        ),
    });

    let mut violations = reference.violations;
    violations.extend(traced.violations);
    Outcome {
        table: PER_LAYER,
        values: v,
        attempted,
        failed,
        notes,
        violations,
    }
}

// ---- the committed record ---------------------------------------------------

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Appends the run to `results/history.jsonl` and rewrites
/// `results/baseline.json` as the latest line per workload.  Only a
/// full-size, untraced run that passed the oracle gets here.
fn write_record(config: &RunConfig, outcome: &Outcome) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let context = format!(
        "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"clients\":{},\"cores\":{},\
         \"prefixes\":{},\"unix_time\":{},",
        config.workload.name(),
        config.seed,
        config.seconds,
        config.clients,
        cores,
        config.sizes.prefixes,
        unix_time
    );
    let history = dir.join("history.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)?;
    writeln!(file, "{}", outcome.json(Some(&context)))?;
    file.sync_all()?;

    let lines = std::fs::read_to_string(&history)?;
    let latest: Vec<String> = Workload::ALL
        .iter()
        .filter_map(|workload| {
            let tag = format!("{{\"workload\":\"{}\",", workload.name());
            let line = lines.lines().rev().find(|line| line.starts_with(&tag))?;
            Some(format!("    \"{}\": {line}", workload.name()))
        })
        .collect();
    let baseline = dir.join("baseline.json");
    std::fs::write(
        &baseline,
        format!(
            "{{\n  \"note\": \"latest full-size untraced run per workload; written by --record only\",\n  \
             \"workloads\": {{\n{}\n  }}\n}}\n",
            latest.join(",\n")
        ),
    )?;
    Ok(baseline)
}

// ---- the noise report -------------------------------------------------------

/// Pulls one metric's value out of a result line this program printed.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let tag = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Runs the workload `runs` times, each in a process of its own (as the
/// benchmark's driver does: peak RSS and allocator state start fresh), and
/// prints each end-to-end metric's median, quartiles and spread next to
/// its bound.  With one seed the exact counts must repeat bit for bit.
pub fn repeat(args: &Args, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("cannot find this executable: {error}");
            return ExitCode::FAILURE;
        }
    };
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    let mut all_correct = true;
    for run in 0..runs {
        let seed = args.seed + if args.vary_seed { run as u64 } else { 0 };
        let mut command = Command::new(&exe);
        command
            .args(["--workload", args.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .stdout(Stdio::piped());
        if args.smoke {
            command.arg("--smoke");
        }
        // `output` waits for the child: none outlives this process.
        let output = match command.output() {
            Ok(output) => output,
            Err(error) => {
                eprintln!("run {run}: could not start: {error}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        if !output.status.success() || !last.contains("\"correct\":true") {
            eprintln!("run {run} (seed {seed}) failed its oracle:\n{stdout}");
            all_correct = false;
            continue;
        }
        for (def, values) in END_TO_END.iter().zip(&mut samples) {
            match metric_in(last, def.name) {
                Some(value) => values.push(value),
                None => {
                    eprintln!("run {run}: no {} in {last}", def.name);
                    all_correct = false;
                }
            }
        }
        eprintln!("run {}/{runs} (seed {seed}) done", run + 1);
    }
    if samples.iter().any(|values| values.len() < 2) {
        eprintln!("fewer than two good runs: no spread to report");
        return ExitCode::FAILURE;
    }

    println!(
        "{} x {} ({}), spread = (q3 - q1) / median",
        runs,
        args.workload.name(),
        if args.vary_seed {
            format!("seeds {}..{}", args.seed, args.seed + runs as u64 - 1)
        } else {
            format!("seed {}", args.seed)
        }
    );
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut exact_repeat = true;
    for (def, values) in END_TO_END.iter().zip(&samples) {
        let [q1, q2, q3] = quartiles(values);
        let spread = (q3 - q1) / q2;
        let bound = def.bound.expect("end-to-end metrics carry a bound");
        let exact = EXACT.contains(&def.name);
        let identical = values.iter().all(|v| v.to_bits() == values[0].to_bits());
        let verdict = if exact && !args.vary_seed {
            exact_repeat &= identical;
            if identical {
                "identical on every run"
            } else {
                "NOT IDENTICAL: an exact count moved between runs of one seed"
            }
        } else if def.name == "setup_s" {
            "spread exempt; medians of two sets must agree within the bound"
        } else if spread <= bound / 3.0 {
            "steady (below a third of the bound)"
        } else if spread <= bound {
            "within the bound"
        } else {
            "NOISY: spread exceeds the bound"
        };
        println!(
            "{:<28} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>6}  {}",
            def.name, q1, q2, q3, spread, bound, verdict
        );
    }
    if all_correct && exact_repeat {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_printed_result_line_reads_back() {
        let mut values = Values::default();
        values.set("setup_s", 4.25);
        values.set("lookups_per_s", 612_345.678_9);
        let outcome = Outcome {
            table: END_TO_END,
            values,
            attempted: 10,
            failed: 0,
            notes: Vec::new(),
            violations: Vec::new(),
        };
        let line = outcome.json(None);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
        assert_eq!(metric_in(&line, "setup_s"), Some(4.25));
        assert_eq!(metric_in(&line, "lookups_per_s"), Some(612_345.678_9));
        assert_eq!(metric_in(&line, "peak_rss_mb"), Some(0.0));
        assert_eq!(metric_in(&line, "no_such_metric"), None);
        let recorded = outcome.json(Some("\"workload\":\"hits_tcp\","));
        assert!(recorded.starts_with("{\"workload\":\"hits_tcp\",\"correct\":true"));
    }
}
