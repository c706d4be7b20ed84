//! Stream-fusion legality classification over workflow dataset edges.
//!
//! ROADMAP item 1 (FPGA-centric disaggregation) wants multi-kernel
//! workflows to stream device-to-device instead of round-tripping every
//! intermediate through the host. That is only legal for an edge when the
//! compiler can *prove* it: exactly one writer, exactly one downstream
//! reader, an ordering edge serializing them, and a byte footprint bounded
//! by the device BRAM stream budget. This module is that proof engine —
//! graph-only, like [`crate::race`], so any frontend (the `.ewf` DSL, the
//! `df` dialect) can bridge onto it:
//!
//! * [`DataEdge`] — one producer→consumer dataset hand-off with its byte
//!   bound (from `everest-ir`'s footprint analysis) and reader counts;
//! * [`classify`] — combines the task-graph ordering relation, the race
//!   detector, per-edge reader/writer multiplicity and the footprint
//!   bounds into one [`EdgeClass`] per edge;
//! * [`FusionPlan`] — the machine-checkable result consumed by
//!   `everestc fuse`, CI gates, and (eventually) the P2P transport layer,
//!   with a versioned JSON serialization.
//!
//! Every classification carries its evidence: fusable edges record the
//! ordering path and the bound-vs-budget comparison; spills name the exact
//! disqualifier; racy edges embed the [`Race`] counterexample with its
//! [`crate::race::OrderingEvidence`] witness.

use crate::race::{detect_races, Race};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Version of the JSON fusion plan emitted by [`FusionPlan::to_json`].
/// Bumped on any breaking field change; CI artifacts key on this.
pub(crate) const FUSION_SCHEMA_VERSION: u32 = 1;

/// The legality verdict for one dataset edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeClass {
    /// Single writer, single downstream reader, serialized by an ordering
    /// path, footprint bounded and within the BRAM stream budget: safe to
    /// stream FPGA→FPGA without touching the host.
    Fusable,
    /// Legal but not streamable — fan-out, re-read, host boundary, or a
    /// footprint that is unbounded or exceeds the budget. Must materialize
    /// on the host.
    MustSpill,
    /// Unordered conflicting access: an error, with a concrete
    /// counterexample attached.
    Racy,
}

impl std::fmt::Display for EdgeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EdgeClass::Fusable => "fusable",
            EdgeClass::MustSpill => "must-spill",
            EdgeClass::Racy => "racy",
        })
    }
}

/// What kind of node an edge endpoint is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointRole {
    /// External input feed.
    Source,
    /// A compute task (kernel).
    Task,
    /// External output store.
    Sink,
}

impl std::fmt::Display for EndpointRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EndpointRole::Source => "source",
            EndpointRole::Task => "task",
            EndpointRole::Sink => "sink",
        })
    }
}

/// One endpoint of a dataset edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeEnd {
    /// Node name (task name, or source/sink item name).
    pub name: String,
    /// Node kind.
    pub role: EndpointRole,
    /// External storage kind for sources/sinks (e.g. `"weather-ensemble-feed"`);
    /// empty for tasks. Races on external kinds attach to boundary edges.
    pub kind: String,
}

impl EdgeEnd {
    /// A task endpoint.
    pub fn task(name: impl Into<String>) -> EdgeEnd {
        EdgeEnd { name: name.into(), role: EndpointRole::Task, kind: String::new() }
    }

    /// A source endpoint with its external storage kind.
    pub fn source(name: impl Into<String>, kind: impl Into<String>) -> EdgeEnd {
        EdgeEnd { name: name.into(), role: EndpointRole::Source, kind: kind.into() }
    }

    /// A sink endpoint with its external storage kind.
    pub fn sink(name: impl Into<String>, kind: impl Into<String>) -> EdgeEnd {
        EdgeEnd { name: name.into(), role: EndpointRole::Sink, kind: kind.into() }
    }
}

/// One dataset hand-off to classify: `producer` writes `item` once,
/// `consumer` reads it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataEdge {
    /// Dataset (workflow item) name.
    pub item: String,
    /// The single writer.
    pub producer: EdgeEnd,
    /// One reader (an item with several readers contributes several edges).
    pub consumer: EdgeEnd,
    /// Byte bound on the data crossing the edge, from the IR footprint
    /// analysis; `None` when unknown or unbounded.
    pub bytes: Option<u64>,
    /// Total distinct downstream readers of `item` (≥ 2 means fan-out).
    pub readers: usize,
    /// How many times `consumer` reads `item` (> 1 means re-read).
    pub reads: usize,
}

/// One classified edge of a [`FusionPlan`], with its evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionEdge {
    /// The classified hand-off.
    pub edge: DataEdge,
    /// Verdict.
    pub class: EdgeClass,
    /// One-line machine-stable reason (e.g. `"fits-budget"`, `"fan-out"`,
    /// `"host-boundary"`, `"exceeds-budget"`, `"unbounded-footprint"`,
    /// `"re-read"`, `"unordered-conflict"`).
    pub reason: &'static str,
    /// Human proof sentence (bound vs budget, reader counts, witness).
    pub detail: String,
    /// For fusable edges: the ordering path that serializes the pair.
    pub ordering_path: Option<Vec<String>>,
    /// For racy edges: the conflicting-access counterexample.
    pub race: Option<Race>,
}

/// The machine-checkable result of classifying one workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionPlan {
    /// Workflow name.
    pub workflow: String,
    /// BRAM stream budget in bytes the fusable verdicts were proved
    /// against (minimum over the platform's FPGA inventory).
    pub budget_bytes: u64,
    /// Every dataset edge, sorted by (item, producer, consumer).
    pub edges: Vec<FusionEdge>,
}

impl FusionPlan {
    /// Count of edges with the given class.
    pub fn count(&self, class: EdgeClass) -> usize {
        self.edges.iter().filter(|e| e.class == class).count()
    }

    /// The racy edges (errors).
    pub fn racy(&self) -> impl Iterator<Item = &FusionEdge> {
        self.edges.iter().filter(|e| e.class == EdgeClass::Racy)
    }

    /// Serializes the plan as a versioned JSON object. Deterministic:
    /// edges are pre-sorted and all fields render in a fixed order.
    pub fn to_json(&self) -> String {
        let q = |s: &str| serde_json::to_string(s).expect("a string always serializes");
        let mut out = format!(
            "{{\"schema_version\": {FUSION_SCHEMA_VERSION}, \"workflow\": {}, \
             \"budget_bytes\": {}, \"edges\": [",
            q(&self.workflow),
            self.budget_bytes
        );
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"item\": {}, \"producer\": {}, \"consumer\": {}, \
                 \"class\": \"{}\", \"reason\": \"{}\", \"detail\": {}, \"bytes\": {}, \
                 \"readers\": {}, \"ordering_path\": {}, \"race\": {}}}",
                q(&e.edge.item),
                q(&e.edge.producer.name),
                q(&e.edge.consumer.name),
                e.class,
                e.reason,
                q(&e.detail),
                e.edge.bytes.map_or("null".to_string(), |b| b.to_string()),
                e.edge.readers,
                match &e.ordering_path {
                    Some(path) => {
                        format!("[{}]", path.iter().map(|t| q(t)).collect::<Vec<_>>().join(", "))
                    }
                    None => "null".to_string(),
                },
                match &e.race {
                    Some(r) => format!(
                        "{{\"kind\": \"{}\", \"first\": {}, \"second\": {}, \
                         \"dataset\": {}, \"evidence\": {}}}",
                        r.kind,
                        q(&r.first),
                        q(&r.second),
                        q(&r.dataset),
                        q(&r.evidence.to_string()),
                    ),
                    None => "null".to_string(),
                },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Shortest *directed* path from `from` to `to` through the ordering
/// edges, as the full node chain (BFS, neighbours in sorted order).
fn ordering_path(from: &str, to: &str, edges: &[(String, String)]) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in edges {
        adj.entry(a.as_str()).or_default().insert(b.as_str());
    }
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    prev.insert(from, from);
    while let Some(node) = queue.pop_front() {
        if node == to {
            let mut chain = vec![to.to_string()];
            let mut cur = to;
            while prev[cur] != cur {
                cur = prev[cur];
                chain.push(cur.to_string());
            }
            chain.reverse();
            return Some(chain);
        }
        for &next in adj.get(node).into_iter().flatten() {
            if let std::collections::btree_map::Entry::Vacant(e) = prev.entry(next) {
                e.insert(node);
                queue.push_back(next);
            }
        }
    }
    None
}

/// Classifies every dataset edge of one workflow.
///
/// * `edges` — the dataset hand-offs (byte bounds already attached);
/// * `accesses` + `ordering` — the same records the race detector takes:
///   external-kind accesses per task and the task ordering relation;
/// * `budget_bytes` — the BRAM stream budget fusable edges must fit.
///
/// Rules, in order of precedence per edge:
/// 1. an unordered conflicting access involving the edge's dataset or an
///    endpoint's external kind → [`EdgeClass::Racy`] (counterexample
///    attached);
/// 2. a source/sink endpoint → must-spill (`host-boundary`);
/// 3. ≥ 2 downstream readers → must-spill (`fan-out`);
/// 4. the consumer reads the item more than once → must-spill (`re-read`);
/// 5. no byte bound → must-spill (`unbounded-footprint`);
/// 6. bound exceeds the budget → must-spill (`exceeds-budget`);
/// 7. otherwise → [`EdgeClass::Fusable`] with the serializing ordering
///    path as proof.
///
/// Deterministic: result edges are sorted by (item, producer, consumer).
pub fn classify(
    workflow: impl Into<String>,
    edges: Vec<DataEdge>,
    accesses: &[crate::race::TaskAccess],
    ordering: &[(String, String)],
    budget_bytes: u64,
) -> FusionPlan {
    let races = detect_races(accesses, ordering);
    let mut out: Vec<FusionEdge> = Vec::with_capacity(edges.len());
    for edge in edges {
        let race = races.iter().find(|r| {
            let touches = |end: &EdgeEnd| {
                (r.first == end.name || r.second == end.name)
                    || (!end.kind.is_empty() && r.dataset == end.kind)
            };
            (r.dataset == edge.item || touches(&edge.producer) || touches(&edge.consumer))
                && (r.dataset == edge.item
                    || r.dataset == edge.producer.kind
                    || r.dataset == edge.consumer.kind)
        });
        let fe = if let Some(race) = race {
            FusionEdge {
                detail: format!(
                    "{} conflict on \"{}\" between '{}' and '{}' ({})",
                    race.kind, race.dataset, race.first, race.second, race.evidence
                ),
                edge,
                class: EdgeClass::Racy,
                reason: "unordered-conflict",
                ordering_path: None,
                race: Some(race.clone()),
            }
        } else if edge.producer.role != EndpointRole::Task
            || edge.consumer.role != EndpointRole::Task
        {
            let (end, dir) = if edge.producer.role == EndpointRole::Task {
                (&edge.consumer, "to")
            } else {
                (&edge.producer, "from")
            };
            FusionEdge {
                detail: format!("crosses the host boundary {dir} {} \"{}\"", end.role, end.kind),
                edge: edge.clone(),
                class: EdgeClass::MustSpill,
                reason: "host-boundary",
                ordering_path: None,
                race: None,
            }
        } else if edge.readers >= 2 {
            FusionEdge {
                detail: format!(
                    "{} downstream readers need the full buffer materialized",
                    edge.readers
                ),
                edge,
                class: EdgeClass::MustSpill,
                reason: "fan-out",
                ordering_path: None,
                race: None,
            }
        } else if edge.reads > 1 {
            FusionEdge {
                detail: format!(
                    "consumer '{}' reads \"{}\" {} times; a stream is single-pass",
                    edge.consumer.name, edge.item, edge.reads
                ),
                edge,
                class: EdgeClass::MustSpill,
                reason: "re-read",
                ordering_path: None,
                race: None,
            }
        } else if edge.bytes.is_none() {
            FusionEdge {
                detail: "footprint is not statically bounded".to_string(),
                edge,
                class: EdgeClass::MustSpill,
                reason: "unbounded-footprint",
                ordering_path: None,
                race: None,
            }
        } else if edge.bytes.unwrap() > budget_bytes {
            FusionEdge {
                detail: format!(
                    "footprint {} B exceeds the {} B BRAM stream budget",
                    edge.bytes.unwrap(),
                    budget_bytes
                ),
                edge,
                class: EdgeClass::MustSpill,
                reason: "exceeds-budget",
                ordering_path: None,
                race: None,
            }
        } else {
            let path = ordering_path(&edge.producer.name, &edge.consumer.name, ordering);
            FusionEdge {
                detail: format!(
                    "single reader, footprint {} B <= {} B budget, serialized by {}",
                    edge.bytes.unwrap(),
                    budget_bytes,
                    path.as_ref().map_or("the direct edge".to_string(), |p| p.join(" -> ")),
                ),
                edge,
                class: EdgeClass::Fusable,
                reason: "fits-budget",
                ordering_path: path,
                race: None,
            }
        };
        out.push(fe);
    }
    out.sort_by(|x, y| {
        (&x.edge.item, &x.edge.producer.name, &x.edge.consumer.name).cmp(&(
            &y.edge.item,
            &y.edge.producer.name,
            &y.edge.consumer.name,
        ))
    });
    FusionPlan { workflow: workflow.into(), budget_bytes, edges: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::race::TaskAccess;

    fn edge(a: &str, b: &str) -> (String, String) {
        (a.to_string(), b.to_string())
    }

    fn task_edge(item: &str, from: &str, to: &str, bytes: Option<u64>) -> DataEdge {
        DataEdge {
            item: item.to_string(),
            producer: EdgeEnd::task(from),
            consumer: EdgeEnd::task(to),
            bytes,
            readers: 1,
            reads: 1,
        }
    }

    #[test]
    fn bounded_single_reader_edge_is_fusable() {
        let edges = vec![task_edge("field", "a", "b", Some(1024))];
        let plan = classify("wf", edges, &[], &[edge("a", "b")], 4096);
        assert_eq!(plan.edges[0].class, EdgeClass::Fusable);
        assert_eq!(plan.edges[0].reason, "fits-budget");
        assert_eq!(plan.edges[0].ordering_path, Some(vec!["a".to_string(), "b".to_string()]));
        assert!(plan.edges[0].detail.contains("1024 B <= 4096 B"));
    }

    #[test]
    fn budget_overflow_and_unbounded_edges_spill() {
        let edges =
            vec![task_edge("big", "a", "b", Some(10_000)), task_edge("wild", "b", "c", None)];
        let plan = classify("wf", edges, &[], &[edge("a", "b"), edge("b", "c")], 4096);
        let by_item: BTreeMap<_, _> =
            plan.edges.iter().map(|e| (e.edge.item.as_str(), e)).collect();
        assert_eq!(by_item["big"].class, EdgeClass::MustSpill);
        assert_eq!(by_item["big"].reason, "exceeds-budget");
        assert_eq!(by_item["wild"].reason, "unbounded-footprint");
    }

    #[test]
    fn fan_out_and_re_read_spill() {
        let mut fan = task_edge("shared", "a", "b", Some(8));
        fan.readers = 2;
        let mut rr = task_edge("twice", "a", "b", Some(8));
        rr.reads = 2;
        let plan = classify("wf", vec![fan, rr], &[], &[edge("a", "b")], 4096);
        assert_eq!(
            plan.edges.iter().map(|e| e.reason).collect::<Vec<_>>(),
            vec!["fan-out", "re-read"]
        );
        assert!(plan.edges.iter().all(|e| e.class == EdgeClass::MustSpill));
    }

    #[test]
    fn boundary_edges_spill_as_host_boundary() {
        let src = DataEdge {
            item: "obs".to_string(),
            producer: EdgeEnd::source("obs", "feed"),
            consumer: EdgeEnd::task("a"),
            bytes: Some(8),
            readers: 1,
            reads: 1,
        };
        let plan = classify("wf", vec![src], &[], &[], 4096);
        assert_eq!(plan.edges[0].reason, "host-boundary");
        assert!(plan.edges[0].detail.contains("from source \"feed\""));
    }

    #[test]
    fn contested_external_kind_marks_the_edge_racy() {
        // blur and sharpen both write the "frame-store" kind, unordered.
        let accesses = [
            TaskAccess::new("blur", &[], &["frame-store"]),
            TaskAccess::new("sharpen", &[], &["frame-store"]),
        ];
        let sink_edge = DataEdge {
            item: "out1".to_string(),
            producer: EdgeEnd::task("blur"),
            consumer: EdgeEnd::sink("out1", "frame-store"),
            bytes: Some(8),
            readers: 1,
            reads: 1,
        };
        let plan = classify("wf", vec![sink_edge], &accesses, &[], 4096);
        assert_eq!(plan.edges[0].class, EdgeClass::Racy);
        assert_eq!(plan.edges[0].reason, "unordered-conflict");
        let race = plan.edges[0].race.as_ref().unwrap();
        assert_eq!(race.dataset, "frame-store");
        assert!(plan.edges[0].detail.contains("no ordering path links them"));
        assert_eq!(plan.count(EdgeClass::Racy), 1);
    }

    #[test]
    fn json_is_versioned_and_deterministic() {
        let edges = vec![task_edge("z", "a", "b", Some(16)), task_edge("a", "a", "b", Some(16))];
        let plan = classify("wf", edges, &[], &[edge("a", "b")], 4096);
        let json = plan.to_json();
        assert!(json.starts_with("{\"schema_version\": 1, \"workflow\": \"wf\""));
        // Sorted by item: "a" before "z".
        assert!(json.find("\"item\": \"a\"").unwrap() < json.find("\"item\": \"z\"").unwrap());
        assert_eq!(json, plan.to_json());

        // Every escape class survives a parse.
        let hostile = "quote \" backslash \\ newline \n tab \t control \u{1}";
        let json = classify(hostile, Vec::new(), &[], &[], 4096).to_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(parsed.get("workflow"), Some(&serde_json::Value::Str(hostile.into())));
    }
}
