//! Multi-tenant device sharing: "the runtime layer optimizes the use of
//! heterogeneous and distributed resources by parallel application
//! instances running in different virtual machines" (paper IV).
//!
//! Each tenant VM issues kernel invocations periodically; invocations are
//! dispatched FIFO to the least-loaded of the shared accelerator slots.
//! The simulator reports per-tenant response times and slot utilization,
//! which is the evidence behind consolidation decisions (how many vFPGAs
//! does a given co-location need?).

/// One tenant VM's invocation pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// Tenant (VM) name.
    pub name: String,
    /// Kernel execution time per invocation, µs.
    pub kernel_us: f64,
    /// Inter-arrival period, µs.
    pub period_us: f64,
    /// Number of invocations to simulate.
    pub invocations: usize,
}

impl Tenant {
    /// Creates a tenant.
    ///
    /// # Panics
    ///
    /// Panics on non-positive times or zero invocations.
    pub fn new(
        name: impl Into<String>,
        kernel_us: f64,
        period_us: f64,
        invocations: usize,
    ) -> Tenant {
        assert!(kernel_us > 0.0 && period_us > 0.0, "positive times required");
        assert!(invocations > 0, "at least one invocation");
        Tenant { name: name.into(), kernel_us, period_us, invocations }
    }
}

/// Result of one co-location simulation.
#[derive(Debug, Clone)]
pub struct ContentionReport {
    /// Per tenant: mean response time (queueing + service), µs.
    pub mean_response_us: Vec<(String, f64)>,
    /// Per tenant: worst response time, µs.
    pub max_response_us: Vec<(String, f64)>,
    /// Mean utilization across the shared slots.
    pub slot_utilization: f64,
    /// Total makespan, µs.
    pub makespan_us: f64,
}

impl ContentionReport {
    /// The mean response time of `tenant`, if simulated.
    pub fn response_of(&self, tenant: &str) -> Option<f64> {
        self.mean_response_us.iter().find(|(n, _)| n == tenant).map(|(_, r)| *r)
    }
}

/// Simulates `tenants` sharing `slots` accelerator slots with
/// least-loaded dispatch.
///
/// # Panics
///
/// Panics if `slots == 0` or `tenants` is empty.
pub fn share_slots(tenants: &[Tenant], slots: usize) -> ContentionReport {
    assert!(slots > 0, "need at least one slot");
    assert!(!tenants.is_empty(), "need at least one tenant");
    // Gather all arrivals, globally ordered (stable by tenant for ties).
    let mut arrivals: Vec<(f64, usize)> = Vec::new(); // (time, tenant)
    for (ti, t) in tenants.iter().enumerate() {
        for i in 0..t.invocations {
            arrivals.push((i as f64 * t.period_us, ti));
        }
    }
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    // Per slot: when it frees up and how long it has been busy.
    let mut free_at = vec![0.0f64; slots];
    let mut busy_us = vec![0.0f64; slots];
    let mut makespan_us = 0.0f64;
    let mut sums = vec![0.0f64; tenants.len()];
    let mut maxes = vec![0.0f64; tenants.len()];
    for (arrival, ti) in arrivals {
        let slot = first_free(&free_at);
        let kernel_us = tenants[ti].kernel_us;
        let finish = free_at[slot].max(arrival) + kernel_us;
        free_at[slot] = finish;
        busy_us[slot] += kernel_us;
        makespan_us = makespan_us.max(finish);
        let response = finish - arrival;
        sums[ti] += response;
        maxes[ti] = maxes[ti].max(response);
    }
    let mean_response_us = tenants
        .iter()
        .enumerate()
        .map(|(ti, t)| (t.name.clone(), sums[ti] / t.invocations as f64))
        .collect();
    let max_response_us =
        tenants.iter().enumerate().map(|(ti, t)| (t.name.clone(), maxes[ti])).collect();
    let utilization = if makespan_us > 0.0 {
        busy_us.iter().map(|b| b / makespan_us).sum::<f64>() / slots as f64
    } else {
        0.0
    };
    ContentionReport {
        mean_response_us,
        max_response_us,
        slot_utilization: utilization,
        makespan_us,
    }
}

/// Least-loaded dispatch: the slot that frees up first, the lowest index
/// among equals.
fn first_free(free_at: &[f64]) -> usize {
    (0..free_at.len()).min_by(|&a, &b| free_at[a].total_cmp(&free_at[b])).expect("slots exist")
}

/// The smallest slot count for which every tenant's mean response stays
/// within `slo_factor` × its isolated kernel time (a consolidation sizing
/// helper). Returns `None` if even `max_slots` cannot meet it.
pub fn slots_for_slo(tenants: &[Tenant], slo_factor: f64, max_slots: usize) -> Option<usize> {
    for slots in 1..=max_slots {
        let report = share_slots(tenants, slots);
        let ok = tenants
            .iter()
            .all(|t| report.response_of(&t.name).is_some_and(|r| r <= slo_factor * t.kernel_us));
        if ok {
            return Some(slots);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_tenant_sees_pure_service_time() {
        let t = Tenant::new("vm0", 100.0, 1_000.0, 20);
        let r = share_slots(&[t], 1);
        assert_eq!(r.response_of("vm0"), Some(100.0));
        assert!((r.slot_utilization - 100.0 * 20.0 / r.makespan_us).abs() < 1e-9);
    }

    #[test]
    fn overload_grows_response_time() {
        // Two tenants each offering 0.8 of a slot: one slot saturates.
        let tenants = vec![Tenant::new("a", 80.0, 100.0, 50), Tenant::new("b", 80.0, 100.0, 50)];
        let shared = share_slots(&tenants, 1);
        let dedicated = share_slots(&tenants, 2);
        assert!(
            shared.response_of("a").unwrap() > 3.0 * dedicated.response_of("a").unwrap(),
            "saturation must queue: {} vs {}",
            shared.response_of("a").unwrap(),
            dedicated.response_of("a").unwrap()
        );
        assert_eq!(dedicated.response_of("a"), Some(80.0));
    }

    #[test]
    fn light_tenants_consolidate_without_harm() {
        // Three tenants at 10% load each share one slot comfortably.
        let tenants: Vec<Tenant> =
            (0..3).map(|i| Tenant::new(format!("vm{i}"), 50.0, 500.0, 40)).collect();
        let r = share_slots(&tenants, 1);
        for t in &tenants {
            let resp = r.response_of(&t.name).unwrap();
            assert!(resp <= 3.0 * t.kernel_us, "{}: {resp}", t.name);
        }
    }

    #[test]
    fn slo_sizing_finds_the_knee() {
        let tenants = vec![
            Tenant::new("a", 90.0, 100.0, 60),
            Tenant::new("b", 90.0, 100.0, 60),
            Tenant::new("c", 90.0, 100.0, 60),
        ];
        // Each tenant needs ~0.9 slots: 3 slots meet a tight SLO, 2 do not.
        let needed = slots_for_slo(&tenants, 1.5, 8).expect("feasible");
        assert_eq!(needed, 3);
        // Impossible SLO reports None.
        assert_eq!(slots_for_slo(&tenants, 0.5, 8), None);
    }

    #[test]
    fn utilization_bounded() {
        let tenants = vec![Tenant::new("x", 10.0, 20.0, 100)];
        let r = share_slots(&tenants, 4);
        assert!(r.slot_utilization > 0.0 && r.slot_utilization <= 1.0);
    }

    #[test]
    fn ties_go_to_the_lowest_slot_index() {
        // Slots are interchangeable in the report, so the tie-break is
        // pinned on the dispatch itself.
        assert_eq!(first_free(&[0.0; 4]), 0);
        assert_eq!(first_free(&[5.0, 3.0, 3.0, 4.0]), 1);
        assert_eq!(first_free(&[2.0, 7.0, 2.0]), 0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        share_slots(&[Tenant::new("x", 1.0, 1.0, 1)], 0);
    }
}
