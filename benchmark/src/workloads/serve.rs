//! `serve_cold` and `serve_hot`: one open-loop ladder of five diurnal /
//! Zipf days offered at 20k–120k queries per virtual second to a
//! 4-shard shed-oldest tier. Cold resets the tier first, so about half
//! of all arrivals recompute (PTDR Monte-Carlo kernel, LRU insert,
//! queueing); hot replays the same days on the filled tier, so every
//! query is a hit (ring lookup, LRU touch, admission queue). A fill-path
//! gain that costs the hit path shows as a loss on `serve_hot`.

use super::{check_conservation, digest_str, Counters, Traffic, DAY_ARRIVALS};
use crate::harness::{Metrics, Outcome, Scale, Workload, JOBS};
use crate::measure::{ns_per_call, timed};
use crate::trace::Trace;
use everest::apps::traffic::serve::{Arrival, ServeReport, ServeTier};
use everest::apps::traffic::service::{ptdr_travel_time_reference, PtdrEngine, PtdrService};
use everest_telemetry::HistogramSnapshot;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

/// Offered rates of the ladder, queries per virtual second, with the
/// span and metric suffix of each rung.
const RUNGS: [(f64, &str); 5] = [
    (20_000.0, "r20k"),
    (40_000.0, "r40k"),
    (60_000.0, "r60k"),
    (80_000.0, "r80k"),
    (120_000.0, "r120k"),
];
/// A rung counts towards `virt_max_rate_qps` when its sojourn p99 and
/// its refused share stay within these.
const P99_LIMIT_US: f64 = 1_000.0;
const REFUSED_LIMIT: f64 = 0.01;
/// The sampling engine must agree with the scalar reference kernel.
const PTDR_CHECK_ROUTES: u64 = 16;
const PTDR_CHECK_SAMPLES: usize = 10_000;
const PTDR_TOLERANCE: f64 = 0.02;

pub struct Serve<const HOT: bool> {
    scale: Scale,
    traffic: Traffic,
    tier: ServeTier,
    days: Vec<Vec<Arrival>>,
}

pub struct Output {
    rungs: Vec<ServeReport>,
}

fn ladder(tier: &ServeTier, days: &[Vec<Arrival>], hot: bool, t: &mut Trace) -> Output {
    if !hot {
        tier.reset();
    }
    let rungs = days
        .iter()
        .zip(RUNGS)
        .map(|(day, (_, span))| t.call("apps", span, || tier.run(day)))
        .collect();
    Output { rungs }
}

/// Fills the tier's caches with every answer the ladder asks for. A
/// replay of the ladder itself would not do: what overload sheds is
/// never computed. So each day is offered once at a sixty-fourth of its
/// rate, slow enough that nothing is shed. One replay at full rate
/// follows, after which every replay is the same: the first rung sheds
/// nothing on a filled tier and turns each shard's small edge cache over
/// several times, so the tier leaves it in one state whatever state it
/// entered in.
fn fill(tier: &ServeTier, days: &[Vec<Arrival>]) -> Result<(), String> {
    tier.reset();
    for day in days {
        let slow: Vec<Arrival> =
            day.iter().map(|a| Arrival { at_us: a.at_us * 64.0, query: a.query.clone() }).collect();
        let report = tier.run(&slow);
        if report.dropped() != 0 {
            return Err(format!("filling the tier shed {} queries", report.dropped()));
        }
    }
    ladder(tier, days, true, &mut Trace::new(false));
    Ok(())
}

fn refused_share(report: &ServeReport) -> f64 {
    report.dropped() as f64 / report.arrivals().max(1) as f64
}

fn merged(
    rungs: &[ServeReport],
    pick: fn(&ServeReport) -> &HistogramSnapshot,
) -> HistogramSnapshot {
    let mut all = pick(&rungs[0]).clone();
    for report in &rungs[1..] {
        all.merge(pick(report));
    }
    all
}

/// Highest offered rate whose rung meets both limits; 0 when none does.
fn max_rate_qps(rungs: &[ServeReport]) -> f64 {
    rungs
        .iter()
        .zip(RUNGS)
        .filter(|(r, _)| r.latency.p99() <= P99_LIMIT_US && refused_share(r) <= REFUSED_LIMIT)
        .map(|(_, (qps, _))| qps)
        .fold(0.0, f64::max)
}

fn digest(out: &Output) -> u64 {
    let mut h = DefaultHasher::new();
    for report in &out.rungs {
        for result in &report.results {
            match result {
                Some(stats) => {
                    for v in [stats.mean_h, stats.p95_h, stats.std_h] {
                        h.write_u64(v.to_bits());
                    }
                }
                None => h.write_u8(0),
            }
        }
        digest_str(&mut h, &format!("{:?}", report.shards));
        h.write_u64(report.latency.p99().to_bits());
    }
    h.finish()
}

impl<const HOT: bool> Workload for Serve<HOT> {
    type Output = Output;
    /// ≈ 50 ms a hot pass, ≈ 1 s a cold one.
    const PASSES_PER_SECOND: f64 = if HOT { 15.0 } else { 0.75 };

    fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let traffic = Traffic::new(seed, scale);
        let tier = traffic.tier(JOBS, scale);
        let days: Vec<Vec<Arrival>> = RUNGS
            .iter()
            .enumerate()
            .map(|(day, (qps, _))| traffic.day(day as u64, *qps, scale.div(DAY_ARRIVALS)))
            .collect();
        if HOT {
            fill(&tier, &days)?;
        }
        Ok(Serve { scale, traffic, tier, days })
    }

    fn pass(&mut self, t: &mut Trace) -> Result<Output, String> {
        Ok(ladder(&self.tier, &self.days, HOT, t))
    }

    fn digest(&self, out: &Output) -> Outcome {
        let sum = |f: fn(&ServeReport) -> u64| out.rungs.iter().map(f).sum::<u64>();
        let latency = merged(&out.rungs, |r| &r.latency);
        Outcome {
            ops: sum(ServeReport::served),
            attempted: sum(ServeReport::arrivals),
            failed: 0,
            refused: sum(ServeReport::dropped),
            fingerprint: digest(out),
            virt: vec![
                ("virt_p50_us", latency.p50()),
                ("virt_p99_us", latency.p99()),
                ("virt_max_rate_qps", max_rate_qps(&out.rungs)),
            ],
        }
    }

    fn verify(&mut self, out: &Output, _: &Outcome, _: bool) -> Result<(), String> {
        for (report, day) in out.rungs.iter().zip(&self.days) {
            check_conservation(report)?;
            if report.arrivals() != day.len() as u64 {
                return Err(format!(
                    "{} arrivals generated, {} routed",
                    day.len(),
                    report.arrivals()
                ));
            }
            if HOT && report.cloud_fills() != 0 {
                return Err(format!("hot replay recomputed {} queries", report.cloud_fills()));
            }
        }

        // The same ladder on a one-worker tier must serve identically.
        let shadow = self.traffic.tier(1, self.scale);
        let mut off = Trace::new(false);
        if HOT {
            fill(&shadow, &self.days)?;
        }
        if digest(&ladder(&shadow, &self.days, HOT, &mut off)) != digest(out) {
            return Err("serving outputs differ between jobs 1 and 2".into());
        }

        let Traffic { network, profiles, gen, seed } = &self.traffic;
        let mut engine: PtdrEngine = PtdrEngine::new();
        for rank in 0..PTDR_CHECK_ROUTES {
            let q = gen.query_for_rank(rank, 8.0);
            let fast = engine.estimate(
                network,
                profiles,
                &q.route,
                q.depart_hour,
                PTDR_CHECK_SAMPLES,
                *seed,
            );
            let slow = ptdr_travel_time_reference(
                network,
                profiles,
                &q.route,
                q.depart_hour,
                PTDR_CHECK_SAMPLES,
                *seed,
            );
            let off_by = (fast.mean_h - slow.mean_h).abs() / slow.mean_h;
            if off_by.is_nan() || off_by > PTDR_TOLERANCE {
                return Err(format!(
                    "route {rank}: engine mean {} h vs reference {} h ({:.2} % apart)",
                    fast.mean_h,
                    slow.mean_h,
                    off_by * 100.0
                ));
            }
        }
        Ok(())
    }

    fn layers(
        &mut self,
        t: &Trace,
        _: &Counters,
        out: &Output,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let sum = |f: fn(&ServeReport) -> u64| out.rungs.iter().map(f).sum::<u64>() as f64;
        let mut serve_s = 0.0;
        for (report, (_, rung)) in out.rungs.iter().zip(RUNGS) {
            serve_s += t.median_us("apps", rung) / 1e6;
            m.set(format!("apps.virt_p99_us.{rung}"), report.latency.p99());
            m.set(format!("apps.shed_share.{rung}"), refused_share(report));
        }
        m.set("apps.serve_qps_wall", sum(ServeReport::served) / serve_s);
        m.set("apps.edge_hit_share", sum(ServeReport::edge_hits) / sum(ServeReport::arrivals));
        m.set("apps.cloud_fill_share", sum(ServeReport::cloud_fills) / sum(ServeReport::arrivals));
        m.set(
            "apps.peak_queue_depth",
            out.rungs.iter().flat_map(|r| &r.shards).map(|s| s.peak_queue).max().unwrap_or(0)
                as f64,
        );
        m.set("apps.virt_wait_p99_us", merged(&out.rungs, |r| &r.wait).p99());
        m.set("apps.virt_max_rate_qps", max_rate_qps(&out.rungs));

        // The layers under the tier, called directly.
        let Traffic { network, profiles, gen, seed } = &self.traffic;
        let queries: Vec<_> =
            (0..super::POOL_ROUTES as u64).map(|rank| gen.query_for_rank(rank, 8.0)).collect();
        let samples: usize = queries.iter().map(|q| q.samples).sum();
        let mut engine: PtdrEngine = PtdrEngine::new();
        let (_, estimate) = timed(|| {
            for q in &queries {
                std::hint::black_box(engine.estimate(
                    network,
                    profiles,
                    &q.route,
                    q.depart_hour,
                    q.samples,
                    *seed,
                ));
            }
        });
        m.set("apps.ptdr_estimate_us", estimate.wall_s * 1e6 / queries.len() as f64);
        m.set("apps.ptdr_samples_per_s", samples as f64 / estimate.wall_s);

        let service = PtdrService::new(network.clone(), profiles.clone()).with_seed(*seed);
        let (_, misses) = timed(|| {
            for q in &queries {
                std::hint::black_box(service.query(q));
            }
        });
        m.set("apps.service_miss_us", misses.wall_s * 1e6 / queries.len() as f64);
        m.set(
            "apps.service_hit_ns",
            ns_per_call(65_536, |i| {
                std::hint::black_box(service.query(&queries[i as usize % queries.len()]));
            }),
        );

        let (day, generate) = timed(|| self.traffic.day(0, RUNGS[0].0, self.days[0].len()));
        m.set("apps.loadgen_arrivals_per_s", day.len() as f64 / generate.wall_s);
        Ok(())
    }
}
