//! Static race detection over workflow task graphs.
//!
//! Two tasks *race* on a dataset when both touch it, at least one writes,
//! and neither task is ordered before the other by the dependency edges.
//! The detector is graph-only — it knows nothing about the IR — so the
//! `core` crate can bridge any workflow frontend (the `.ewf` DSL, the `df`
//! dialect) onto [`TaskAccess`] records and reuse the same analysis.

use std::collections::{BTreeMap, BTreeSet};

/// The datasets one task reads and writes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskAccess {
    /// Task name (unique within the workflow).
    pub task: String,
    /// Datasets the task consumes.
    pub reads: BTreeSet<String>,
    /// Datasets the task produces or mutates.
    pub writes: BTreeSet<String>,
}

#[cfg(test)]
impl TaskAccess {
    /// Builds an access record from slices of dataset names.
    pub(crate) fn new(task: impl Into<String>, reads: &[&str], writes: &[&str]) -> TaskAccess {
        TaskAccess {
            task: task.into(),
            reads: reads.iter().map(|s| s.to_string()).collect(),
            writes: writes.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// The kind of conflicting access pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceKind {
    /// One task reads while the other writes.
    ReadWrite,
    /// Both tasks write.
    WriteWrite,
}

impl std::fmt::Display for RaceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RaceKind::ReadWrite => "read-write",
            RaceKind::WriteWrite => "write-write",
        })
    }
}

/// Why the dependency edges fail to order a conflicting pair: the witness
/// attached to every [`Race`] so the diagnostic can say not just *that* the
/// pair is unordered but what an ordering fix would look like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderingEvidence {
    /// The tasks live in disconnected components of the ordering graph —
    /// no chain of edges links them in any direction.
    NoPath,
    /// The shortest undirected chain of tasks linking the pair. Since
    /// neither task reaches the other directionally, at least one edge of
    /// this chain points the wrong way; re-orienting the chain is the
    /// minimal edit that would have serialized the pair.
    MisdirectedPath(Vec<String>),
}

impl std::fmt::Display for OrderingEvidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderingEvidence::NoPath => f.write_str("no ordering path links them"),
            OrderingEvidence::MisdirectedPath(chain) => {
                write!(f, "nearest ordering chain {} fails to order them", chain.join(" -> "))
            }
        }
    }
}

/// One detected conflict: two unordered tasks touching the same dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// Conflict class.
    pub kind: RaceKind,
    /// First task (lexicographically smaller name).
    pub first: String,
    /// Second task.
    pub second: String,
    /// The contested dataset.
    pub dataset: String,
    /// Witness for the missing ordering: the chain that would have
    /// serialized the pair, or proof that none exists.
    pub evidence: OrderingEvidence,
}

/// Canonical (first, second) orientation for an unordered task pair — the
/// single place symmetric pairs are normalized before reporting or
/// deduplication.
pub(crate) fn canonical_pair<'a>(a: &'a str, b: &'a str) -> (&'a str, &'a str) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Shortest undirected chain between `from` and `to` through the ordering
/// edges (BFS; deterministic because neighbours are visited in sorted
/// order). Returns the full node chain including both endpoints.
fn undirected_path(from: &str, to: &str, edges: &[(String, String)]) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in edges {
        adj.entry(a.as_str()).or_default().insert(b.as_str());
        adj.entry(b.as_str()).or_default().insert(a.as_str());
    }
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
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

/// The [`OrderingEvidence`] for an unordered pair: the shortest undirected
/// chain through the ordering edges, or [`OrderingEvidence::NoPath`].
pub(crate) fn ordering_evidence(a: &str, b: &str, edges: &[(String, String)]) -> OrderingEvidence {
    match undirected_path(a, b, edges) {
        Some(chain) => OrderingEvidence::MisdirectedPath(chain),
        None => OrderingEvidence::NoPath,
    }
}

/// Transitive reachability over the `edges` (from → to) relation,
/// restricted to the named tasks.
fn reachability(tasks: &[&str], edges: &[(String, String)]) -> BTreeMap<String, BTreeSet<String>> {
    let mut direct: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges {
        direct.entry(from.as_str()).or_default().push(to.as_str());
    }
    let mut reach = BTreeMap::new();
    for &start in tasks {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(node) = stack.pop() {
            for &next in direct.get(node).map(Vec::as_slice).unwrap_or(&[]) {
                if seen.insert(next.to_string()) {
                    stack.push(next);
                }
            }
        }
        reach.insert(start.to_string(), seen);
    }
    reach
}

/// Finds every unordered read-write / write-write dataset conflict.
///
/// `edges` are ordering edges `(before, after)`; ordering is transitive, so
/// `a → b → c` orders `a` against `c`. Results are deterministic: sorted by
/// task pair, then dataset, with write-write conflicts reported over
/// read-write when both apply to a pair+dataset.
pub fn detect_races(accesses: &[TaskAccess], edges: &[(String, String)]) -> Vec<Race> {
    let names: Vec<&str> = accesses.iter().map(|a| a.task.as_str()).collect();
    let reach = reachability(&names, edges);
    let ordered = |a: &str, b: &str| {
        reach.get(a).is_some_and(|r| r.contains(b)) || reach.get(b).is_some_and(|r| r.contains(a))
    };
    let mut races = Vec::new();
    for (i, a) in accesses.iter().enumerate() {
        for b in &accesses[i + 1..] {
            if a.task == b.task || ordered(&a.task, &b.task) {
                continue;
            }
            let (first, second) =
                if canonical_pair(&a.task, &b.task).0 == a.task.as_str() { (a, b) } else { (b, a) };
            let evidence = ordering_evidence(&first.task, &second.task, edges);
            let mut push = |kind, dataset: &String| {
                races.push(Race {
                    kind,
                    first: first.task.clone(),
                    second: second.task.clone(),
                    dataset: dataset.clone(),
                    evidence: evidence.clone(),
                });
            };
            for ds in first.writes.intersection(&second.writes) {
                push(RaceKind::WriteWrite, ds);
            }
            for ds in first.writes.intersection(&second.reads) {
                if !second.writes.contains(ds) {
                    push(RaceKind::ReadWrite, ds);
                }
            }
            for ds in first.reads.intersection(&second.writes) {
                if !first.writes.contains(ds) {
                    push(RaceKind::ReadWrite, ds);
                }
            }
        }
    }
    races.sort_by(|x, y| (&x.first, &x.second, &x.dataset).cmp(&(&y.first, &y.second, &y.dataset)));
    races.dedup();
    races
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(a: &str, b: &str) -> (String, String) {
        (a.to_string(), b.to_string())
    }

    #[test]
    fn unordered_write_write_is_a_race() {
        let accesses = [
            TaskAccess::new("clean", &["raw"], &["table"]),
            TaskAccess::new("enrich", &["extra"], &["table"]),
        ];
        let races = detect_races(&accesses, &[]);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, RaceKind::WriteWrite);
        assert_eq!(races[0].dataset, "table");
        assert_eq!((races[0].first.as_str(), races[0].second.as_str()), ("clean", "enrich"));
    }

    #[test]
    fn unordered_read_write_is_a_race() {
        let accesses = [
            TaskAccess::new("write", &[], &["model"]),
            TaskAccess::new("read", &["model"], &["report"]),
        ];
        let races = detect_races(&accesses, &[]);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, RaceKind::ReadWrite);
        assert_eq!(races[0].dataset, "model");
    }

    #[test]
    fn ordering_edge_silences_the_race() {
        let accesses =
            [TaskAccess::new("write", &[], &["model"]), TaskAccess::new("read", &["model"], &[])];
        assert!(detect_races(&accesses, &[edge("write", "read")]).is_empty());
    }

    #[test]
    fn ordering_is_transitive() {
        let accesses = [TaskAccess::new("a", &[], &["d"]), TaskAccess::new("c", &["d"], &[])];
        let edges = [edge("a", "b"), edge("b", "c")];
        assert!(detect_races(&accesses, &edges).is_empty());
        // The reverse direction alone does not order a before c.
        let back = [edge("c", "a")];
        assert!(detect_races(&accesses, &back).is_empty(), "ordered either way is fine");
        assert!(!detect_races(&accesses, &[edge("b", "c")]).is_empty());
    }

    #[test]
    fn read_read_never_races() {
        let accesses = [TaskAccess::new("a", &["d"], &[]), TaskAccess::new("b", &["d"], &[])];
        assert!(detect_races(&accesses, &[]).is_empty());
    }

    #[test]
    fn disconnected_pair_carries_no_path_evidence() {
        let accesses = [
            TaskAccess::new("clean", &["raw"], &["table"]),
            TaskAccess::new("enrich", &["extra"], &["table"]),
        ];
        let races = detect_races(&accesses, &[]);
        assert_eq!(races[0].evidence, OrderingEvidence::NoPath);
        assert_eq!(races[0].evidence.to_string(), "no ordering path links them");
    }

    #[test]
    fn misdirected_chain_is_reported_as_the_witness() {
        // a → hub and b → hub: the pair is connected through hub but
        // neither reaches the other, so the undirected chain witnesses
        // the missing ordering.
        let accesses = [TaskAccess::new("a", &[], &["d"]), TaskAccess::new("b", &["d"], &[])];
        let edges = [edge("a", "hub"), edge("b", "hub")];
        let races = detect_races(&accesses, &edges);
        assert_eq!(races.len(), 1);
        assert_eq!(
            races[0].evidence,
            OrderingEvidence::MisdirectedPath(vec![
                "a".to_string(),
                "hub".to_string(),
                "b".to_string()
            ])
        );
        assert_eq!(
            races[0].evidence.to_string(),
            "nearest ordering chain a -> hub -> b fails to order them"
        );
    }

    #[test]
    fn canonical_pair_orders_lexicographically() {
        assert_eq!(canonical_pair("z", "a"), ("a", "z"));
        assert_eq!(canonical_pair("a", "z"), ("a", "z"));
    }

    #[test]
    fn results_are_sorted_and_deduplicated() {
        let accesses =
            [TaskAccess::new("z", &["s"], &["s", "t"]), TaskAccess::new("a", &["s"], &["s"])];
        let races = detect_races(&accesses, &[]);
        // One write-write on s (the mutual read+write pair collapses).
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, RaceKind::WriteWrite);
        assert_eq!(races[0].first, "a");
    }
}
