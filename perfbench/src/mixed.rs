//! The `serve-mixed` workload: one closed-loop client interleaving warm
//! hits, `/healthz` and cold `?wait` submissions against the daemon.
//!
//! Warm hits and one of the two `/healthz` probes go over
//! [`Route::Direct`], so their latency includes the handler's work; cold
//! jobs and the other probe go through the daemon's own accept loop, whose
//! idle poll sets their floor (see [`crate::serve`]).

use crate::plans::{self, Workload};
use crate::serve::{healthy, Daemon, Route, TIMEOUT};
use crate::stats::Summary;
use crate::study::{check_report_text, study_instructions};
use crate::Report;
use lnuca_serve::http::Message;
use lnuca_serve::{JobState, Submission};
use lnuca_sim::experiments::ExperimentPlan;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// One request class of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Resubmission of the primed document: served from the result cache.
    Hit,
    /// Liveness probe.
    Healthz,
    /// A fresh seed, hence a fresh digest: queued, simulated and encoded.
    Cold,
}

impl Kind {
    /// The class's name in printed figures and span files.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Healthz => "healthz",
            Kind::Cold => "cold",
        }
    }
}

/// One cycle of the closed loop: eight hits and a health probe over the
/// direct route; a health probe and a cold job through the accept loop.
/// A 25 s run serves several thousand hits, enough for a p99 with ten
/// samples beyond it.
const MIX: [(Kind, Route); 11] = [
    (Kind::Hit, Route::Direct),
    (Kind::Hit, Route::Direct),
    (Kind::Hit, Route::Direct),
    (Kind::Hit, Route::Direct),
    (Kind::Healthz, Route::Direct),
    (Kind::Hit, Route::Direct),
    (Kind::Hit, Route::Direct),
    (Kind::Hit, Route::Direct),
    (Kind::Hit, Route::Direct),
    (Kind::Healthz, Route::AcceptLoop),
    (Kind::Cold, Route::AcceptLoop),
];

/// In the untraced run, one more daemon set-up follows every this many
/// mix cycles, so the `setup_s` samples spread over the run instead of
/// all seeing the host as it was at the start.
const SETUP_EVERY: usize = 4;

/// Cold in-process submissions draw seeds from here up, clear of the HTTP
/// ones (`seed + 1 + k`).
const IN_PROCESS_SEED_OFFSET: u64 = 1 << 32;

/// One served request, as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpan {
    /// Request class.
    pub kind: Kind,
    /// How it reached the server.
    pub route: Route,
    /// Start, from the loop's start.
    pub start: Duration,
    /// Client-timed latency: connect to last response byte.
    pub latency: Duration,
    /// HTTP status (0 when the connection failed).
    pub status: u16,
}

/// In-process calls into the daemon's layers, made next to the HTTP ones
/// in a traced run.
#[derive(Debug, Default)]
pub struct InProcess {
    /// `Server::submit_document` answered from the cache, µs.
    pub submit_hit_us: Vec<f64>,
    /// `Server::wait` on a cold submission: queue, run and encode, ms.
    pub cold_wait_ms: Vec<f64>,
}

/// What a run does after each mix cycle.
pub enum Alongside<'a> {
    /// Every [`SETUP_EVERY`]-th cycle, one more timed daemon set-up.
    SetUps,
    /// In-process calls into the daemon's layers.
    InProcess(&'a mut InProcess),
}

/// One daemon set-up: parse the document, start the server and wait for
/// its first `/healthz`. Returns the daemon, the plan and the seconds taken.
fn set_up(doc: &str) -> Result<(Daemon, ExperimentPlan, f64), String> {
    let start = Instant::now();
    let plan = plans::parse(doc)?;
    let daemon = Daemon::start()?;
    Ok((daemon, plan, start.elapsed().as_secs_f64()))
}

/// A started daemon with its primed hit document.
pub struct Session {
    daemon: Daemon,
    seed: u64,
    hit_doc: String,
    hit_report: String,
    next_cold: u64,
    /// Seconds of each daemon set-up: the session's own, then those made
    /// along the run.
    pub setups: Vec<f64>,
    /// The plan of the hit document (the cold jobs share its shape).
    pub plan: ExperimentPlan,
}

impl Session {
    /// Starts a daemon, then primes its cache with one cold submission of
    /// the hit document.
    ///
    /// # Errors
    ///
    /// A set-up failure or an unusable priming answer.
    pub fn open(seed: u64, report: &mut Report) -> Result<Session, String> {
        let hit_doc = Workload::ServeMixed.document(seed);
        let (daemon, plan, seconds) = set_up(&hit_doc)?;
        let answer = daemon.request(
            Route::AcceptLoop,
            "POST",
            "/v1/jobs?wait=600",
            hit_doc.as_bytes(),
        );
        let ok = match &answer {
            Ok(m) => check_cold(m, &plan),
            Err(e) => Err(e.clone()),
        };
        report.tally.record(ok.is_ok());
        ok.map_err(|e| format!("priming submission: {e}"))?;
        let hit_report = answer.expect("checked above").text();
        Ok(Session {
            daemon,
            seed,
            hit_doc,
            hit_report,
            next_cold: 0,
            setups: vec![seconds],
            plan,
        })
    }

    /// Runs the mix until `budget` has passed and at least `min_cycles`
    /// cycles are done, doing `alongside` after each cycle.
    pub fn run(
        &mut self,
        budget: Duration,
        min_cycles: usize,
        mut alongside: Alongside<'_>,
        report: &mut Report,
    ) -> Vec<RequestSpan> {
        let mut spans = Vec::new();
        let start = Instant::now();
        let mut cycles = 0;
        while cycles < min_cycles || start.elapsed() < budget {
            for (kind, route) in MIX {
                spans.push(self.request(kind, route, start, report));
            }
            match &mut alongside {
                Alongside::SetUps if cycles % SETUP_EVERY == 0 => self.set_up_again(report),
                Alongside::SetUps => {}
                Alongside::InProcess(calls) => self.in_process(calls, report),
            }
            cycles += 1;
        }
        spans
    }

    fn request(
        &mut self,
        kind: Kind,
        route: Route,
        epoch: Instant,
        report: &mut Report,
    ) -> RequestSpan {
        let cold = (kind == Kind::Cold).then(|| {
            self.next_cold += 1;
            Workload::ServeMixed.document(self.seed.wrapping_add(self.next_cold))
        });
        let cold_plan = cold.as_deref().map(plans::parse);
        let (method, target, body) = match (kind, &cold) {
            (Kind::Hit, _) => ("POST", "/v1/jobs", self.hit_doc.as_bytes()),
            (Kind::Healthz, _) => ("GET", "/healthz", &b""[..]),
            (Kind::Cold, Some(doc)) => ("POST", "/v1/jobs?wait=600", doc.as_bytes()),
            (Kind::Cold, None) => unreachable!("cold requests carry a document"),
        };
        let began = Instant::now();
        let answer = self.daemon.request(route, method, target, body);
        let latency = began.elapsed();
        let verdict = match (&answer, kind) {
            (Err(e), _) => Err(e.clone()),
            (Ok(m), Kind::Hit) => check_hit(m, &self.hit_report),
            (Ok(m), Kind::Healthz) if m.status == 200 && healthy(m) => Ok(()),
            (Ok(m), Kind::Healthz) => Err(format!("/healthz answered {}", m.status)),
            (Ok(m), Kind::Cold) => match &cold_plan {
                Some(Ok(plan)) => check_cold(m, plan),
                Some(Err(e)) => Err(format!("cold document: {e}")),
                None => unreachable!("cold requests carry a document"),
            },
        };
        let status = answer.as_ref().map_or(0, |m| m.status);
        report.tally.record_response(status, verdict.is_ok());
        if let Err(e) = verdict {
            report.fail(format!("{} request: {e}", kind.name()));
        }
        RequestSpan {
            kind,
            route,
            start: began - epoch,
            latency,
            status,
        }
    }

    /// Times one more set-up of a separate daemon, then stops it.
    fn set_up_again(&mut self, report: &mut Report) {
        match set_up(&self.hit_doc) {
            Ok((daemon, _, seconds)) => {
                self.setups.push(seconds);
                if let Err(e) = daemon.stop() {
                    report.fail(format!("stopping a set-up daemon: {e}"));
                }
            }
            Err(e) => report.fail(format!("set-up failed: {e}")),
        }
    }

    fn in_process(&mut self, calls: &mut InProcess, report: &mut Report) {
        let began = Instant::now();
        let submission = self.daemon.server.submit_document(&self.hit_doc, 0);
        calls
            .submit_hit_us
            .push(began.elapsed().as_secs_f64() * 1e6);
        let hit = matches!(&submission, Submission::CacheHit { report: r, .. } if **r == *self.hit_report);
        report.tally.record(hit);
        report.check(hit, || {
            format!("in-process resubmission was not a byte-identical hit: {submission:?}")
        });

        self.next_cold += 1;
        let seed = self
            .seed
            .wrapping_add(IN_PROCESS_SEED_OFFSET + self.next_cold);
        let doc = Workload::ServeMixed.document(seed);
        let id = match self.daemon.server.submit_document(&doc, 0) {
            Submission::Accepted { id, .. } => id,
            other => {
                report.tally.record(false);
                return report.fail(format!("in-process cold submission: {other:?}"));
            }
        };
        let began = Instant::now();
        let snapshot = self.daemon.server.wait(id, TIMEOUT);
        calls.cold_wait_ms.push(began.elapsed().as_secs_f64() * 1e3);
        let ok = snapshot.as_ref().is_some_and(|s| {
            s.state == JobState::Done
                && s.report
                    .as_deref()
                    .is_some_and(|r| check_report_text(r, &self.plan).is_ok())
        });
        report.tally.record(ok);
        report.check(ok, || {
            format!("in-process cold job {id} ended {snapshot:?}")
        });
    }

    /// Digest of the primed report: every simulated figure the daemon
    /// served for the hit document.
    #[must_use]
    pub fn report_digest(&self) -> u64 {
        crate::stats::fnv1a(self.hit_report.as_bytes())
    }

    /// The server's own result-cache counters so far: hits and misses.
    #[must_use]
    pub fn cache_counts(&self) -> (u64, u64) {
        let metrics = self.daemon.server.metrics();
        (
            metrics.cache_hits_total.load(Ordering::Relaxed),
            metrics.cache_misses_total.load(Ordering::Relaxed),
        )
    }

    /// Drains the daemon.
    ///
    /// # Errors
    ///
    /// See [`Daemon::stop`].
    pub fn close(self) -> Result<(), String> {
        self.daemon.stop()
    }
}

fn check_hit(answer: &Message, cold_report: &str) -> Result<(), String> {
    if answer.status != 200 || answer.header("x-lnuca-cache") != Some("hit") {
        return Err(format!(
            "hit answered {} with x-lnuca-cache {:?}",
            answer.status,
            answer.header("x-lnuca-cache")
        ));
    }
    if answer.body != cold_report.as_bytes() {
        return Err("hit body differs from the cold report of its digest".to_owned());
    }
    Ok(())
}

fn check_cold(answer: &Message, plan: &ExperimentPlan) -> Result<(), String> {
    if answer.status != 200
        || answer.header("x-lnuca-cache") != Some("miss")
        || answer.header("x-lnuca-job-state") != Some("done")
    {
        return Err(format!(
            "cold submission answered {} (cache {:?}, state {:?})",
            answer.status,
            answer.header("x-lnuca-cache"),
            answer.header("x-lnuca-job-state")
        ));
    }
    check_report_text(&answer.text(), plan)
}

/// Latencies of one request class over one route, in ms.
#[must_use]
pub fn latencies_ms(spans: &[RequestSpan], kind: Kind, route: Route) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.kind == kind && s.route == route)
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect()
}

/// The untraced `serve-mixed` run.
pub fn run(seed: u64, seconds: Duration, report: &mut Report) {
    let mut session = match Session::open(seed, report) {
        Ok(s) => s,
        Err(e) => return report.fail(format!("set-up failed: {e}")),
    };
    let spans = session.run(seconds, 1, Alongside::SetUps, report);
    println!("sim.result_digest {:016x}", session.report_digest());
    let instructions = study_instructions(&session.plan).unwrap_or(0);
    let setups = session.setups.clone();
    if let Err(e) = session.close() {
        report.fail(format!("drain: {e}"));
    }
    let hit = Summary::of(&latencies_ms(&spans, Kind::Hit, Route::Direct));
    let healthz = Summary::of(&latencies_ms(&spans, Kind::Healthz, Route::Direct));
    let polled = Summary::of(&latencies_ms(&spans, Kind::Healthz, Route::AcceptLoop));
    let cold_ms = latencies_ms(&spans, Kind::Cold, Route::AcceptLoop);
    let cold = Summary::of(&cold_ms);
    let rates: Vec<f64> = cold_ms
        .iter()
        .map(|ms| instructions as f64 / (ms * 1e3))
        .collect();
    let rate = Summary::of(&rates);
    let setup = Summary::of(&setups);
    for span in spans.iter().filter(|s| !(200..300).contains(&s.status)) {
        println!("non-2xx: {} answered {}", span.kind.name(), span.status);
    }
    println!(
        "serve_hit_p50_ms, serve_hit_p99_ms (warm hit, direct, client-timed): {}",
        hit.describe("ms")
    );
    println!("serve_healthz_p50_ms (direct): {}", healthz.describe("ms"));
    println!(
        "/healthz through the accept loop (its idle-poll floor): {}",
        polled.describe("ms")
    );
    println!(
        "serve_cold_p50_ms (submit to report, ?wait, accept loop): {}",
        cold.describe("ms")
    );
    println!(
        "metric sim_minstr_per_s (cold jobs, {instructions} simulated instructions each, over client latency): {}",
        rate.describe_rate("Minstr/s")
    );
    println!(
        "metric op_p50_ms (warm hit, direct): {}",
        hit.describe("ms")
    );
    println!(
        "metric setup_s (parse, server start until /healthz answers): {}",
        setup.describe("s")
    );
    report.set("sim_minstr_per_s", rate.median);
    report.set("op_p50_ms", hit.median);
    report.set("setup_s", setup.median);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cache_hit_ratio_counts_what_the_server_did() {
        let mut report = Report::default();
        let mut session = Session::open(3, &mut report).expect("the daemon starts");
        let spans = session.run(Duration::ZERO, 1, Alongside::SetUps, &mut report);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let count = |kind| spans.iter().filter(|s| s.kind == kind).count() as u64;
        // The priming submission and every cold job miss; every hit hits.
        assert_eq!(
            session.cache_counts(),
            (count(Kind::Hit), 1 + count(Kind::Cold))
        );
        session.close().expect("the daemon drains");
    }
}
