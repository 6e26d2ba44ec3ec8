//! Serve-run aggregation: per-fleet SLO percentiles, compromise
//! accounting, time-to-first-compromise curves, Prometheus exposition,
//! and the `BENCH_serve.json` pin schema.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use smokestack_telemetry::{
    Column, Kind, MetricsRegistry, Pin, Schema, StreamingHistogram, Ty, Value,
};

/// Request budgets the time-to-first-compromise curve is sampled at
/// (clipped to the plan's scheduled request count).
pub const TTFC_BUDGETS: [u64; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];

/// Aggregate evidence for one defense fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Fleet label (see [`crate::plan::Fleet::label`]).
    pub label: String,
    /// Tenants assigned to this fleet.
    pub tenants: u32,
    /// Benign requests served.
    pub benign: u64,
    /// Exploit attempts fired.
    pub attacks: u64,
    /// Benign requests that did not exit cleanly (expected 0; a
    /// non-zero count means a hardened build broke legitimate traffic).
    pub benign_anomalies: u64,
    /// Attack outcomes in `OutcomeKind::ALL` order:
    /// success / detected / crashed / failed / aborted.
    pub outcomes: [u64; 5],
    /// Benign-request latency in deterministic decicycles.
    pub deci: StreamingHistogram,
    /// The latency-under-attack split: decicycle latency of the subset
    /// of benign requests served in the wake of an exploit attempt on
    /// this fleet (see [`crate::traffic::ATTACK_WAKE_WINDOW`]). A
    /// sub-histogram of `deci`, not a partition of it.
    pub deci_attack: StreamingHistogram,
    /// Benign-request latency in measured wall nanoseconds (machine
    /// dependent; never part of determinism guarantees or `--check`).
    pub wall_ns: StreamingHistogram,
    /// Per compromised tenant: the request index of its first
    /// successful exploit.
    pub first_compromise: BTreeMap<u32, u64>,
}

impl FleetReport {
    /// An empty report for `label` with `tenants` residents.
    pub fn new(label: String, tenants: u32) -> FleetReport {
        FleetReport {
            label,
            tenants,
            benign: 0,
            attacks: 0,
            benign_anomalies: 0,
            outcomes: [0; 5],
            deci: StreamingHistogram::new(),
            deci_attack: StreamingHistogram::new(),
            wall_ns: StreamingHistogram::new(),
            first_compromise: BTreeMap::new(),
        }
    }

    /// Successful exploit attempts.
    pub fn successes(&self) -> u64 {
        self.outcomes[0]
    }

    /// Tenants compromised at least once.
    pub fn compromised_tenants(&self) -> u64 {
        self.first_compromise.len() as u64
    }

    /// Fraction of this fleet's tenants still uncompromised after the
    /// first `budget` scheduled requests.
    pub fn survival(&self, budget: u64) -> f64 {
        if self.tenants == 0 {
            return 1.0;
        }
        let hit = self
            .first_compromise
            .values()
            .filter(|&&idx| idx < budget)
            .count();
        1.0 - hit as f64 / f64::from(self.tenants)
    }

    /// The time-to-first-compromise survival curve: `(budget,
    /// survival)` at every [`TTFC_BUDGETS`] point within `total`, plus
    /// the endpoint itself.
    pub fn ttfc_curve(&self, total: u64) -> Vec<(u64, f64)> {
        let mut budgets: Vec<u64> = TTFC_BUDGETS
            .iter()
            .copied()
            .filter(|&b| b < total)
            .collect();
        budgets.push(total);
        budgets.into_iter().map(|b| (b, self.survival(b))).collect()
    }

    /// Fold another fleet report (a batch's worth) into this one.
    /// Histogram merges are bucket-wise adds and the first-compromise
    /// fold takes the minimum request index per tenant, so the result
    /// is identical for any fold order — the jobs-invariance property.
    pub fn merge(&mut self, other: &FleetReport) {
        self.benign += other.benign;
        self.attacks += other.attacks;
        self.benign_anomalies += other.benign_anomalies;
        for (a, b) in self.outcomes.iter_mut().zip(other.outcomes.iter()) {
            *a += b;
        }
        self.deci.merge(&other.deci);
        self.deci_attack.merge(&other.deci_attack);
        self.wall_ns.merge(&other.wall_ns);
        for (&tenant, &idx) in &other.first_compromise {
            self.first_compromise
                .entry(tenant)
                .and_modify(|cur| *cur = (*cur).min(idx))
                .or_insert(idx);
        }
    }
}

/// What a serve run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Plan name.
    pub plan: String,
    /// Master seed the schedule derived from.
    pub master_seed: u64,
    /// Total resident tenants.
    pub tenants: u32,
    /// Requests the plan scheduled.
    pub scheduled: u64,
    /// Requests actually served (less than `scheduled` only when a
    /// drain cut the run short).
    pub served: u64,
    /// Whether a duration drain stopped the run before the schedule
    /// finished (partial runs are excluded from `--check`).
    pub drained: bool,
    /// Measured wall-clock for the whole run in seconds.
    pub wall_secs: f64,
    /// Resident VM sessions held at drain time, summed across workers.
    pub resident_sessions: u64,
    /// Per-fleet evidence, in plan fleet order.
    pub fleets: Vec<FleetReport>,
}

impl ServeReport {
    /// Measured throughput over the whole run.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.served as f64 / self.wall_secs
    }

    /// Render every machine-independent aggregate as one string: the
    /// jobs-invariance tests compare this across `--jobs` settings.
    /// Wall-clock latency, throughput, and worker-dependent session
    /// counts are deliberately excluded.
    pub fn deterministic_digest(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "plan {} seed {:#x} scheduled {} served {}",
            self.plan, self.master_seed, self.scheduled, self.served
        );
        for f in &self.fleets {
            let _ = writeln!(
                s,
                "fleet {} tenants {} benign {} attacks {} anomalies {} outcomes {:?}",
                f.label, f.tenants, f.benign, f.attacks, f.benign_anomalies, f.outcomes
            );
            let _ = writeln!(s, "  deci {}", f.deci.to_json());
            let _ = writeln!(s, "  deci_attack {}", f.deci_attack.to_json());
            for (tenant, idx) in &f.first_compromise {
                let _ = writeln!(s, "  compromised tenant {tenant} at request {idx}");
            }
        }
        s
    }
}

/// Fold a serve report into a metrics registry for Prometheus
/// exposition (`serve --stats`).
pub fn serve_registry(report: &ServeReport) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.gauge_set("serve.sessions.resident", report.resident_sessions);
    reg.gauge_set("serve.tenants", u64::from(report.tenants));
    reg.inc("serve.requests.served", report.served);
    for f in &report.fleets {
        reg.inc(&format!("serve.benign.{}", f.label), f.benign);
        reg.inc(&format!("serve.attacks.{}", f.label), f.attacks);
        reg.inc(&format!("serve.compromises.{}", f.label), f.successes());
        reg.inc(&format!("serve.detected.{}", f.label), f.outcomes[1]);
        if f.deci.count() > 0 {
            reg.merge_stream(&format!("serve.latency.deci.{}", f.label), &f.deci);
        }
        if f.wall_ns.count() > 0 {
            reg.merge_stream(&format!("serve.latency.wall_ns.{}", f.label), &f.wall_ns);
        }
    }
    reg
}

/// The `BENCH_serve.json` schema: one row per (plan, fleet). The
/// schedule counts and `deci_*` columns are deterministic and compared
/// exactly; `success` and `compromised_tenants` may fall but never
/// rise; wall-clock, throughput, the other outcome counts and the
/// time-to-first-compromise curve are measured on the writing machine
/// or follow from the pinned columns, and are never compared.
pub static PIN_SCHEMA: Schema = Schema {
    id: "smokestack-serve/1",
    header: &[],
    rows: "rows",
    columns: &[
        Column("plan", Ty::Str, Kind::Key),
        Column("fleet", Ty::Str, Kind::Key),
        Column("master_seed", Ty::Uint, Kind::Exact),
        Column("tenants", Ty::Uint, Kind::Exact),
        Column("served", Ty::Uint, Kind::Exact),
        Column("benign", Ty::Uint, Kind::Exact),
        Column("attacks", Ty::Uint, Kind::Exact),
        Column("success", Ty::Uint, Kind::NeverWorse),
        Column("detected", Ty::Uint, Kind::Info),
        Column("crashed", Ty::Uint, Kind::Info),
        Column("failed", Ty::Uint, Kind::Info),
        Column("aborted", Ty::Uint, Kind::Info),
        Column("compromised_tenants", Ty::Uint, Kind::NeverWorse),
        Column("deci_p50", Ty::Uint, Kind::Exact),
        Column("deci_p95", Ty::Uint, Kind::Exact),
        Column("deci_p99", Ty::Uint, Kind::Exact),
        Column("deci_p999", Ty::Uint, Kind::Exact),
        Column("deci_mean", Ty::Uint, Kind::Exact),
        // Benign requests served in the wake of an exploit attempt on
        // this fleet: the population of the `deci_attack_*` columns.
        Column("benign_under_attack", Ty::Uint, Kind::Exact),
        Column("deci_attack_p50", Ty::Uint, Kind::Exact),
        Column("deci_attack_p95", Ty::Uint, Kind::Exact),
        Column("deci_attack_p99", Ty::Uint, Kind::Exact),
        Column("deci_attack_mean", Ty::Uint, Kind::Exact),
        Column("wall_p50_ns", Ty::Uint, Kind::Info),
        Column("wall_p95_ns", Ty::Uint, Kind::Info),
        Column("wall_p99_ns", Ty::Uint, Kind::Info),
        Column("wall_p999_ns", Ty::Uint, Kind::Info),
        Column("requests_per_sec", Ty::Uint, Kind::Info),
        // `budget:survival_ppm` pairs of the time-to-first-compromise
        // curve.
        Column("ttfc", Ty::Str, Kind::Info),
    ],
};

/// Reduce a finished run to its pin: one row per fleet, in
/// [`PIN_SCHEMA`].
pub fn report_pin(report: &ServeReport) -> Pin {
    let mut pin = Pin::new(&PIN_SCHEMA, Vec::new());
    for f in &report.fleets {
        let ttfc = f
            .ttfc_curve(report.scheduled)
            .into_iter()
            .map(|(b, s)| format!("{b}:{}", (s * 1_000_000.0).round() as u64))
            .collect::<Vec<_>>()
            .join(" ");
        pin.push(vec![
            Value::Str(report.plan.clone()),
            Value::Str(f.label.clone()),
            Value::Uint(report.master_seed),
            Value::Uint(u64::from(f.tenants)),
            Value::Uint(report.served),
            Value::Uint(f.benign),
            Value::Uint(f.attacks),
            Value::Uint(f.outcomes[0]),
            Value::Uint(f.outcomes[1]),
            Value::Uint(f.outcomes[2]),
            Value::Uint(f.outcomes[3]),
            Value::Uint(f.outcomes[4]),
            Value::Uint(f.compromised_tenants()),
            Value::Uint(f.deci.p50()),
            Value::Uint(f.deci.p95()),
            Value::Uint(f.deci.p99()),
            Value::Uint(f.deci.p999()),
            Value::Uint(f.deci.mean().round() as u64),
            Value::Uint(f.deci_attack.count()),
            Value::Uint(f.deci_attack.p50()),
            Value::Uint(f.deci_attack.p95()),
            Value::Uint(f.deci_attack.p99()),
            Value::Uint(f.deci_attack.mean().round() as u64),
            Value::Uint(f.wall_ns.p50()),
            Value::Uint(f.wall_ns.p95()),
            Value::Uint(f.wall_ns.p99()),
            Value::Uint(f.wall_ns.p999()),
            Value::Uint(report.requests_per_sec().round() as u64),
            Value::Str(ttfc),
        ]);
    }
    pin
}

/// Whether a pinned row belongs to `plan`: the rows a run of `plan`
/// must reproduce, and the rows its `--json` replaces.
pub fn plan_scope(plan: &str) -> impl Fn(&[&str]) -> bool + '_ {
    move |key| key.first() == Some(&plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ServeReport {
        let mut none = FleetReport::new("none".into(), 4);
        none.benign = 90;
        none.attacks = 10;
        none.outcomes = [6, 0, 1, 2, 1];
        for v in [40, 50, 60, 70, 80] {
            none.deci.observe(v);
        }
        for v in [70, 80] {
            none.deci_attack.observe(v);
        }
        for v in [1000, 1100, 1200, 1300, 1400] {
            none.wall_ns.observe(v);
        }
        none.first_compromise.insert(1, 12);
        none.first_compromise.insert(3, 500);
        let mut aes = FleetReport::new("smokestack/AES-10".into(), 4);
        aes.benign = 95;
        aes.attacks = 5;
        aes.outcomes = [0, 4, 1, 0, 0];
        for v in [55, 65, 75, 85, 95] {
            aes.deci.observe(v);
        }
        ServeReport {
            plan: "sample".into(),
            master_seed: 0xabc,
            tenants: 8,
            scheduled: 200,
            served: 200,
            drained: false,
            wall_secs: 2.0,
            resident_sessions: 8,
            fleets: vec![none, aes],
        }
    }

    #[test]
    fn survival_curve_steps_at_first_compromise() {
        let report = sample_report();
        let none = &report.fleets[0];
        assert_eq!(none.survival(1), 1.0);
        assert_eq!(none.survival(100), 0.75); // tenant 1 hit at 12
        assert_eq!(none.survival(501), 0.5); // tenant 3 hit at 500
        let curve = none.ttfc_curve(200);
        assert_eq!(curve, vec![(100, 0.75), (200, 0.75)]);
        // The hardened fleet never loses a tenant.
        assert_eq!(report.fleets[1].survival(u64::MAX), 1.0);
    }

    #[test]
    fn merge_is_order_independent() {
        let report = sample_report();
        let a = &report.fleets[0];
        let b = {
            let mut b = FleetReport::new("none".into(), 4);
            b.benign = 10;
            b.outcomes = [1, 0, 0, 0, 0];
            b.deci.observe(33);
            b.first_compromise.insert(1, 3); // earlier than a's 12
            b
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(a);
        assert_eq!(ab, ba);
        assert_eq!(ab.first_compromise[&1], 3);
        assert_eq!(ab.benign, 100);
    }

    #[test]
    fn pin_round_trips_through_json() {
        let pin = report_pin(&sample_report());
        assert_eq!(pin.rows().len(), 2);
        let text = pin.render();
        assert_eq!(PIN_SCHEMA.parse(&text).unwrap().render(), text);
    }

    /// A pin holding only the rows of `pin` at `rows`.
    fn only(pin: &Pin, rows: &[usize]) -> Pin {
        let mut out = Pin::new(&PIN_SCHEMA, Vec::new());
        for &i in rows {
            out.push(pin.rows()[i].clone());
        }
        out
    }

    #[test]
    fn pin_check_gates_exact_columns_and_compromise_regressions() {
        let pin = report_pin(&sample_report());
        let all = |_: &[&str]| true;
        // Identical rows pass.
        assert_eq!(pin.check(&pin, all), Ok(2));
        // A compromise regression fails.
        let mut worse = pin.clone();
        *worse.get_mut(1, "success") = Value::Uint(1);
        let err = worse.check(&pin, all).unwrap_err();
        assert!(err.contains("compromise-rate regression"), "{err}");
        // ...and fewer compromises pass.
        assert_eq!(pin.check(&worse, all), Ok(2));
        // Any change to a deterministic latency column fails.
        let mut slow = pin.clone();
        *slow.get_mut(0, "deci_p99") = Value::Uint(81);
        assert!(slow.check(&pin, all).unwrap_err().contains("deci_p99"));
        // A changed schedule fails.
        let mut resched = pin.clone();
        *resched.get_mut(0, "benign") = Value::Uint(91);
        assert!(resched.check(&pin, all).is_err());
        // Wall-clock columns are never compared.
        let mut fast = pin.clone();
        *fast.get_mut(0, "wall_p50_ns") = Value::Uint(1);
        assert_eq!(fast.check(&pin, all), Ok(2));
        // Nothing in common -> error, not a silent pass.
        assert!(only(&pin, &[0]).check(&only(&pin, &[1]), all).is_err());
        // A pinned row of the measured plan that was not measured fails;
        // one outside the plan's scope does not matter.
        let err = only(&pin, &[0])
            .check(&pin, plan_scope("sample"))
            .unwrap_err();
        assert!(
            err.contains("sample/smokestack/AES-10: pinned row was not measured"),
            "{err}"
        );
        assert_eq!(only(&pin, &[0]).check(&pin, plan_scope("other")), Ok(1));
    }

    #[test]
    fn registry_carries_serve_gauges_counters_and_streams() {
        let reg = serve_registry(&sample_report());
        assert_eq!(reg.gauge("serve.sessions.resident"), Some(8));
        assert_eq!(reg.counter("serve.requests.served"), 200);
        assert_eq!(reg.counter("serve.compromises.none"), 6);
        assert_eq!(reg.counter("serve.compromises.smokestack/AES-10"), 0);
        assert!(reg.stream("serve.latency.deci.none").is_some());
        assert!(reg
            .stream("serve.latency.wall_ns.smokestack/AES-10")
            .is_none());
    }

    #[test]
    fn prometheus_exposition_is_pinned() {
        // Golden text for a minimal single-fleet report: pins metric
        // naming, sanitization, and ordering of the serve exposition.
        let mut fleet = FleetReport::new("smokestack/AES-10".into(), 2);
        fleet.benign = 3;
        fleet.attacks = 1;
        fleet.outcomes = [0, 1, 0, 0, 0];
        for v in [10, 20, 30] {
            fleet.deci.observe(v);
        }
        let report = ServeReport {
            plan: "golden".into(),
            master_seed: 1,
            tenants: 2,
            scheduled: 4,
            served: 4,
            drained: false,
            wall_secs: 1.0,
            resident_sessions: 2,
            fleets: vec![fleet],
        };
        let text = smokestack_telemetry::render_prometheus(&serve_registry(&report));
        let expected = "\
# HELP serve_attacks_smokestack_AES_10_total smokestack metric `serve.attacks.smokestack/AES-10`
# TYPE serve_attacks_smokestack_AES_10_total counter
serve_attacks_smokestack_AES_10_total 1
# HELP serve_benign_smokestack_AES_10_total smokestack metric `serve.benign.smokestack/AES-10`
# TYPE serve_benign_smokestack_AES_10_total counter
serve_benign_smokestack_AES_10_total 3
# HELP serve_compromises_smokestack_AES_10_total smokestack metric `serve.compromises.smokestack/AES-10`
# TYPE serve_compromises_smokestack_AES_10_total counter
serve_compromises_smokestack_AES_10_total 0
# HELP serve_detected_smokestack_AES_10_total smokestack metric `serve.detected.smokestack/AES-10`
# TYPE serve_detected_smokestack_AES_10_total counter
serve_detected_smokestack_AES_10_total 1
# HELP serve_requests_served_total smokestack metric `serve.requests.served`
# TYPE serve_requests_served_total counter
serve_requests_served_total 4
# HELP serve_sessions_resident smokestack metric `serve.sessions.resident`
# TYPE serve_sessions_resident gauge
serve_sessions_resident 2
# HELP serve_tenants smokestack metric `serve.tenants`
# TYPE serve_tenants gauge
serve_tenants 2
# HELP serve_latency_deci_smokestack_AES_10 smokestack metric `serve.latency.deci.smokestack/AES-10`
# TYPE serve_latency_deci_smokestack_AES_10 summary
serve_latency_deci_smokestack_AES_10{quantile=\"0.5\"} 20
serve_latency_deci_smokestack_AES_10{quantile=\"0.95\"} 30
serve_latency_deci_smokestack_AES_10{quantile=\"0.99\"} 30
serve_latency_deci_smokestack_AES_10{quantile=\"0.999\"} 30
serve_latency_deci_smokestack_AES_10_sum 60
serve_latency_deci_smokestack_AES_10_count 3
";
        assert_eq!(text, expected);
    }
}
