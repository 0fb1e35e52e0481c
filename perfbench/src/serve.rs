//! The `serve` workload: one op is one job, timed from
//! `Server::handle_line_for` to its terminal response.
//!
//! One client session keeps a fixed window of jobs outstanding against
//! an in-process `Server` (workers = host threads, journal on with its
//! default batched fsync, progress frames on), so the queue never
//! empties. This is the only workload where the scheduler, admission,
//! circuit cache, journal and progress layers do any work.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

use htforge_obs::Json;
use htforge_server::{
    CacheStats, CircuitSource, JobKind, JobParams, JobSpec, JobStatus, JournalConfig, Request,
    Response, Server, ServerConfig,
};

use crate::metrics::Metric;
use crate::{mix, stats, Outcome, RunConfig};

/// How long a job may stay silent before the run gives up on it.
const STALL: Duration = Duration::from_secs(60);

/// Inputs of one run.
struct Plan {
    /// The repeating job cycle: `(kind, circuit)`.
    cycle: Vec<(JobKind, &'static str)>,
    sim_vectors: usize,
    light: JobParams,
    /// Parameter seeds per slot; each spec recurs, so identical specs
    /// can be checked for identical digests.
    variants: u64,
    /// Jobs kept outstanding.
    window: usize,
    setups: usize,
}

impl Plan {
    fn new(smoke: bool) -> Self {
        let light = JobParams {
            vectors: 512,
            theta: 0.3,
            tests: 64,
            ..JobParams::default()
        };
        let (sim_circuits, light_circuits, sim_vectors): (&[&'static str], &[&'static str], _) =
            if smoke {
                (&["c17"], &["c17"], 256)
            } else {
                // The `bench_server --quick` mix: simulate and light
                // pipeline jobs in equal numbers.
                (&["c17", "c2670", "c5315"], &["c17", "s1423"], 2_048)
            };
        let mut cycle = Vec::new();
        for &light_circuit in light_circuits {
            cycle.extend(sim_circuits.iter().map(|&c| (JobKind::Simulate, c)));
            for kind in [JobKind::Insert, JobKind::Grade, JobKind::Detect] {
                cycle.push((kind, light_circuit));
            }
        }
        Plan {
            cycle,
            sim_vectors,
            light,
            variants: 2,
            // One job more than there are workers: one job always
            // waits in the queue. Deeper windows put the median in the
            // gap between jobs that wait behind an s1423 job and jobs
            // that do not, where it swings by several times per run.
            window: crate::host_threads() + 1,
            setups: if smoke { 2 } else { 9 },
        }
    }

    /// The spec of the `n`-th job; `id` must be unique per tenant.
    fn spec(&self, seed: u64, n: usize, id: String) -> JobSpec {
        let (kind, circuit) = self.cycle[n % self.cycle.len()];
        let variant = (n / self.cycle.len()) as u64 % self.variants;
        // Light insertions on c17 fail for a few seeds (too few rare
        // nodes with cubes); every seed in 1..=160 succeeds on c17 and
        // s1423, so job seeds are drawn from there.
        let job_seed = mix(seed, variant) % 160 + 1;
        let params = match kind {
            JobKind::Simulate => JobParams {
                vectors: self.sim_vectors,
                seed: job_seed,
                ..JobParams::default()
            },
            _ => JobParams {
                seed: job_seed,
                ..self.light.clone()
            },
        };
        JobSpec {
            tenant: format!("tenant{}", n % 3),
            id,
            kind,
            circuit: CircuitSource::Builtin(circuit.to_owned()),
            priority: (n % 5) as i64 - 2,
            deadline_ms: None,
            params,
        }
    }
}

/// A running server with its session; shuts down and joins its workers
/// when dropped.
struct Live {
    server: Server,
    session: u64,
    rx: Receiver<Response>,
    dir: PathBuf,
}

impl Drop for Live {
    fn drop(&mut self) {
        self.server.request_shutdown(false);
        self.server.drain();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One outstanding job.
struct Pending {
    submitted: Instant,
    first_frame: Option<Instant>,
    frames: u32,
    kind: JobKind,
    circuit: &'static str,
    /// Identity of the spec without tenant, id and priority.
    spec_key: String,
    traced: bool,
}

/// Starts a server on a fresh journal and runs one job of every
/// `(kind, circuit)` of the cycle to completion (the first compiles).
fn start(plan: &Plan, cfg: &RunConfig, rep: usize) -> Result<Live, String> {
    let dir = cfg
        .out
        .join(format!("serve-journal-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (server, _session0) = Server::start(ServerConfig {
        workers: crate::host_threads(),
        progress: true,
        journal: Some(JournalConfig::new(dir.join("journal.wal"))),
        ..ServerConfig::default()
    });
    let (session, rx) = server.open_session();
    let live = Live {
        server,
        session,
        rx,
        dir,
    };
    let mut outstanding = HashSet::new();
    for (k, &(kind, circuit)) in plan.cycle.iter().enumerate() {
        if plan.cycle[..k].contains(&(kind, circuit)) {
            continue;
        }
        let spec = plan.spec(cfg.seed, k, format!("warm{k}"));
        outstanding.insert(spec.id.clone());
        let line = Request::Submit(Box::new(spec)).to_json().compact();
        live.server.handle_line_for(live.session, &line);
    }
    while !outstanding.is_empty() {
        match live.rx.recv_timeout(STALL) {
            Ok(Response::Result(r)) => {
                if r.status != JobStatus::Done {
                    return Err(format!("warm-up job {} ended {}", r.id, r.status.as_str()));
                }
                outstanding.remove(&r.id);
            }
            Ok(
                Response::Reject { id, error, .. }
                | Response::Error {
                    id: Some(id),
                    error,
                    ..
                },
            ) => {
                return Err(format!("warm-up job {id} refused: {error}"));
            }
            Ok(_) => {}
            Err(e) => return Err(format!("warm-up stalled: {e}")),
        }
    }
    Ok(live)
}

/// What one timed phase saw.
#[derive(Default)]
struct Tally {
    latencies: Vec<(String, f64)>,
    traced_latencies: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    kind_ms: HashMap<&'static str, Vec<f64>>,
    frames: u64,
    traced_jobs: u64,
    rejected: u64,
    accepted: u64,
    /// Per insert circuit: trojans per second of each job's latency.
    insert: HashMap<&'static str, Vec<f64>>,
}

fn digest_of(result: &Json) -> String {
    match result.get("digest").and_then(Json::as_str) {
        Some(d) => d.to_owned(),
        None => result.compact(),
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let plan = Plan::new(cfg.smoke);
    let mut out = Outcome::new(cfg.trace);
    let (setup, live) = crate::timed_setups(cfg, plan.setups, |rep| start(&plan, cfg, rep))?;
    let cache_before = live.server.cache().stats();

    let mut tally = Tally::default();
    let mut pending: HashMap<(String, String), Pending> = HashMap::new();
    let mut finished: HashSet<(String, String)> = HashSet::new();
    let mut digests: HashMap<String, String> = HashMap::new();
    let mut submitted = 0usize;
    let t0 = Instant::now();
    // In the traced run the first half is the untraced baseline.
    let trace_from = if cfg.trace {
        cfg.seconds / 2
    } else {
        Duration::MAX
    };

    let submit = |n: usize, pending: &mut HashMap<(String, String), Pending>| {
        let spec = plan.spec(cfg.seed, n, format!("j{n}"));
        let (kind, circuit) = plan.cycle[n % plan.cycle.len()];
        let spec_key = format!("{}|{circuit}|{:?}", kind.as_str(), spec.params);
        let line = Request::Submit(Box::new(spec.clone())).to_json().compact();
        let submitted = Instant::now();
        pending.insert(
            spec.key(),
            Pending {
                submitted,
                first_frame: None,
                frames: 0,
                kind,
                circuit,
                spec_key,
                traced: submitted.duration_since(t0) >= trace_from,
            },
        );
        live.server.handle_line_for(live.session, &line);
    };
    while submitted < plan.window {
        submit(submitted, &mut pending);
        submitted += 1;
    }
    while !pending.is_empty() {
        let response = match live.rx.recv_timeout(STALL) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                for _ in pending.drain() {
                    out.op(Err("job never reached a terminal response".into()));
                }
                break;
            }
        };
        let now = Instant::now();
        let closed = match response {
            Response::Ack { op, .. } if op == "submit" => {
                tally.accepted += 1;
                None
            }
            Response::Progress(p) => {
                if let Some(job) = pending.get_mut(&(p.tenant, p.id)) {
                    job.first_frame.get_or_insert(now);
                    job.frames += 1;
                }
                None
            }
            Response::Reject {
                tenant, id, reason, ..
            } => {
                tally.rejected += 1;
                Some(((tenant, id), Err(format!("rejected: {reason}"))))
            }
            Response::Error { id, error, .. } => {
                let key = pending
                    .keys()
                    .find(|k| Some(&k.1) == id.as_ref())
                    .cloned()
                    .unwrap_or_default();
                Some((key, Err(format!("error: {error}"))))
            }
            Response::Result(r) => {
                let key = (r.tenant.clone(), r.id.clone());
                let verdict = if finished.contains(&key) {
                    Err(format!("second terminal for {}", r.id))
                } else if r.status != JobStatus::Done {
                    Err(format!(
                        "{} ended {}: {:?}",
                        r.id,
                        r.status.as_str(),
                        r.error
                    ))
                } else {
                    match (&r.result, pending.get(&key)) {
                        (Some(result), Some(job)) => {
                            let digest = digest_of(result);
                            match digests.get(&job.spec_key) {
                                Some(seen) if *seen != digest => Err(format!(
                                    "{}: digest {digest} differs from {seen} for the same spec",
                                    r.id
                                )),
                                _ => {
                                    digests.insert(job.spec_key.clone(), digest);
                                    if job.kind == JobKind::Insert {
                                        let trojans = result
                                            .get("instances")
                                            .and_then(Json::as_f64)
                                            .unwrap_or(0.0);
                                        let latency = now.duration_since(job.submitted);
                                        tally
                                            .insert
                                            .entry(job.circuit)
                                            .or_default()
                                            .push(trojans / latency.as_secs_f64());
                                    }
                                    Ok(())
                                }
                            }
                        }
                        (None, _) => Err(format!("{} done without a result", r.id)),
                        (_, None) => Err(format!("terminal for unknown job {}", r.id)),
                    }
                };
                Some((key, verdict))
            }
            _ => None,
        };
        let Some((key, verdict)) = closed else {
            continue;
        };
        if let Some(job) = pending.remove(&key) {
            let latency = now.duration_since(job.submitted).as_secs_f64();
            if verdict.is_ok() {
                if job.traced {
                    tally.traced_latencies.push(latency);
                } else {
                    tally
                        .latencies
                        .push((format!("{}/{}", job.kind.as_str(), job.circuit), latency));
                }
            }
            if job.traced {
                tally.traced_jobs += 1;
                tally.frames += u64::from(job.frames);
                tally
                    .kind_ms
                    .entry(job.kind.as_str())
                    .or_default()
                    .push(latency * 1e3);
                out.tracer.begin_op();
                let root = out.tracer.record("serve.job", 0, job.submitted, now);
                if let Some(first) = job.first_frame {
                    tally
                        .queue_wait_ms
                        .push(first.duration_since(job.submitted).as_secs_f64() * 1e3);
                    out.tracer
                        .record("server.queue_wait", root, job.submitted, first);
                    out.tracer.record("server.run", root, first, now);
                }
            }
            finished.insert(key);
        }
        out.op(verdict);
        if t0.elapsed() < cfg.seconds {
            submit(submitted, &mut pending);
            submitted += 1;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let cache_after = live.server.cache().stats();

    // Every accepted job, warm-up included, must have exactly one
    // terminal; a late duplicate would arrive before the shutdown line.
    live.server.request_shutdown(false);
    let stats = live.server.drain();
    while let Ok(response) = live.rx.try_recv() {
        if let Response::Result(r) = response {
            out.op(Err(format!("terminal after the run for {}", r.id)));
        }
    }
    if stats.finished() != stats.submitted {
        out.op(Err(format!(
            "{} accepted jobs but {} terminals",
            stats.submitted,
            stats.finished()
        )));
    }
    drop(live);

    if cfg.trace {
        out.metrics = layer_metrics(&tally, cache_before, cache_after);
        return Ok(out);
    }
    if tally.latencies.is_empty() {
        return Ok(out);
    }
    // The median job per circuit: a job's latency includes its wait in
    // the queue, which a slow neighbour can stretch several times over.
    let rates: Vec<f64> = tally
        .insert
        .values()
        .map(|r| stats::median(r))
        .filter(|&r| r > 0.0)
        .collect();
    out.metrics.push(setup);
    let samples: Vec<(&str, f64)> = tally
        .latencies
        .iter()
        .map(|(l, s)| (l.as_str(), *s))
        .collect();
    out.metrics.extend(crate::latency_metrics(&samples, wall));
    out.metrics.push(
        Metric::new(
            "trojans_per_s",
            if rates.is_empty() {
                0.0
            } else {
                stats::geomean(&rates)
            },
        )
        .with(
            "source",
            Json::Str("insert jobs: median trojans per second of job latency".into()),
        )
        .with("circuits", Json::Num(rates.len() as f64)),
    );
    out.metrics
        .push(Metric::new("peak_rss_mb", crate::peak_rss_mb()));
    Ok(out)
}

fn layer_metrics(tally: &Tally, before: CacheStats, after: CacheStats) -> Vec<Metric> {
    let p50 = |v: Option<&Vec<f64>>| {
        v.filter(|v| !v.is_empty())
            .map_or(0.0, |v| stats::median(v))
    };
    let hits = (after.hits - before.hits) + (after.rare_hits - before.rare_hits);
    let misses = (after.misses - before.misses) + (after.rare_misses - before.rare_misses);
    let jobs = tally.traced_jobs as f64;
    let mut m = vec![
        Metric::new("server.queue_wait_p50_ms", p50(Some(&tally.queue_wait_ms)))
            .with("samples", Json::Num(tally.queue_wait_ms.len() as f64)),
        Metric::new("server.simulate_p50_ms", p50(tally.kind_ms.get("simulate"))),
        Metric::new("server.insert_p50_ms", p50(tally.kind_ms.get("insert"))),
        Metric::new("server.grade_p50_ms", p50(tally.kind_ms.get("grade"))),
        Metric::new("server.detect_p50_ms", p50(tally.kind_ms.get("detect"))),
        Metric::ratio("server.cache_hit_rate", hits as f64, (hits + misses) as f64),
        Metric::ratio("server.progress_frames_per_job", tally.frames as f64, jobs),
        Metric::new("server.rejected", tally.rejected as f64)
            .with("accepted", Json::Num(tally.accepted as f64)),
    ];
    if !tally.latencies.is_empty() && !tally.traced_latencies.is_empty() {
        let untraced: Vec<f64> = tally.latencies.iter().map(|s| s.1).collect();
        m.push(crate::trace_overhead(&untraced, &tally.traced_latencies));
    }
    m
}
