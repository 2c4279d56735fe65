//! `lnuca-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload uni-warm --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Runs one named workload for about `--seconds`, checks every output,
//! prints a human-readable account and, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Exits
//! nonzero when any correctness check fails. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod layers;
mod mixed;
mod plans;
mod serve;
mod stats;
mod study;
mod traced;

use plans::Workload;
use stats::Tally;
use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics (`--trace 0`) and their units, as in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_minstr_per_s", "Minstr/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`) and their units, as in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_ns_per_instr", "ns"),
    ("cpu.self_ns_per_instr", "ns"),
    ("cpu.ideal_minstr_per_s", "Minstr/s"),
    ("sim.loop_iters", "count"),
    ("sim.skip_ratio", "ratio"),
    ("sim.next_event_ns_per_iter", "ns"),
    ("sim.loop_self_ns_per_iter", "ns"),
    ("hierarchy.tick_ns_per_iter", "ns"),
    ("hierarchy.port_ns_per_instr", "ns"),
    ("hierarchy.issues", "count"),
    ("hierarchy.issue_reject_ratio", "ratio"),
    ("fabric.searches", "count"),
    ("fabric.hit_ratio", "ratio"),
    ("fabric.tile_lookups", "count"),
    ("fabric.tile_fills", "count"),
    ("fabric.spills", "count"),
    ("fabric.transport_latency_ratio", "ratio"),
    ("fabric.stall_cycles", "count"),
    ("fabric.replay_ns_per_search", "ns"),
    ("mem.l1_miss_ratio", "ratio"),
    ("mem.l3_accesses", "count"),
    ("mem.dram_accesses", "count"),
    ("mem.write_drains", "count"),
    ("dnuca.accesses", "count"),
    ("dnuca.hit_ratio", "ratio"),
    ("cmp.tick_ns_per_iter", "ns"),
    ("cmp.next_event_ns_per_iter", "ns"),
    ("coherence.transactions", "count"),
    ("coherence.recalls", "count"),
    ("coherence.invalidations", "count"),
    ("coherence.replay_ns_per_op", "ns"),
    ("study.report_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.digest_us", "us"),
    ("serve.submit_hit_us", "us"),
    ("serve.http_overhead_ms", "ms"),
    ("serve.cold_wait_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// What a run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Every failed check, in order.
    pub errors: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a failed check.
    pub fn fail(&mut self, message: String) {
        eprintln!("check failed: {message}");
        self.errors.push(message);
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }

    /// Sets a metric's value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The final JSON line for the metrics in `wanted`; a missing or
    /// non-finite metric fails the run.
    fn json(&mut self, wanted: &[(&'static str, &'static str)]) -> String {
        let mut members = Vec::with_capacity(wanted.len());
        for &(name, unit) in wanted {
            self.check(stats::valid_metric_name(name), || {
                format!("invalid metric name {name}")
            });
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                other => {
                    self.fail(format!("metric {name} is {other:?}"));
                    0.0
                }
            };
            members.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        if self.tally.attempted == 0 {
            self.fail("the run attempted nothing".to_owned());
            self.tally.attempted = 1;
            self.tally.failed = 1;
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty() && self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            members.join(", ")
        )
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

const USAGE: &str =
    "usage: lnuca-perfbench --workload <uni-warm|uni-miss|cmp-sharing|serve-mixed> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "lnuca-perfbench workload {} seed {} seconds {} trace {} host_threads {threads}",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    let mut report = Report::default();
    match (args.trace, args.workload) {
        (true, workload) => layers::run(workload, args.seed, args.seconds, &mut report),
        (false, Workload::ServeMixed) => mixed::run(args.seed, args.seconds, &mut report),
        (false, workload) => study::run(workload, args.seed, args.seconds, &mut report),
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        match peak_rss_mb() {
            Some(mb) => {
                println!("metric peak_rss_mb: {mb:.3} MB");
                report.set("peak_rss_mb", mb);
            }
            None => report.fail("no VmHWM in /proc/self/status".to_owned()),
        }
        println!(
            "fail_ratio = {} / {} = {:.6}",
            report.tally.failed,
            report.tally.attempted,
            report.tally.fail_ratio()
        );
    }
    let line = report.json(wanted);
    println!("{line}");
    let correct = report.errors.is_empty() && report.tally.failed == 0;
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn the_documented_command_line_parses() {
        let a = args("--workload cmp-sharing --seed 7 --seconds 20 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::CmpSharing);
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (7, Duration::from_secs(20), true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload uni-warm --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload uni-warm --seconds 1").is_err());
    }

    #[test]
    fn the_metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = serde::json::parse(&text).expect("BENCHMARK.json is JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|n| n.as_str())
                    .expect("name")
                    .to_owned()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn a_run_that_attempted_nothing_is_not_correct() {
        let mut report = Report::default();
        let line = report.json(&[]);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }
}
