//! The correctness gate: every refresh's graphs against the simulator's
//! ground truth.
//!
//! For each client the expected edge set comes from
//! `TruthRecorder::class_paths` of its service class: the anchoring
//! client edge, every forward hop, every hop reversed (the response
//! path) and the response edge back to the client. A graph's
//! `strong_edges()` must lie inside that set; for a client that sent
//! requests throughout the analysis window the two must be equal.

use e2eprof_core::graph::ServiceGraph;
use e2eprof_netsim::{NodeId, Simulation};
use e2eprof_timeseries::Nanos;
use std::collections::{BTreeMap, BTreeSet};

/// A directed edge.
pub type Edge = (NodeId, NodeId);

/// The expected edges of one client, and when it sends.
#[derive(Debug, Clone)]
pub struct ClientTruth {
    /// Edges of every path its class took.
    pub edges: BTreeSet<Edge>,
    /// First and last instant of its arrival process.
    pub sends: (Nanos, Nanos),
}

/// Ground truth for every client of a deployment.
#[derive(Debug, Clone, Default)]
pub struct Truth {
    clients: BTreeMap<NodeId, ClientTruth>,
}

/// The edge set pathmap should discover for one true path.
pub fn path_edges(client: NodeId, path: &[NodeId]) -> BTreeSet<Edge> {
    let mut set = BTreeSet::new();
    let Some(&front) = path.first() else {
        return set;
    };
    set.insert((client, front));
    for w in path.windows(2) {
        set.insert((w[0], w[1]));
        set.insert((w[1], w[0]));
    }
    set.insert((front, client));
    set
}

impl Truth {
    /// Reads the class paths of a finished simulation; `sends(client)`
    /// gives the span of each client's arrival process.
    pub fn from_sim(sim: &Simulation, sends: impl Fn(NodeId) -> (Nanos, Nanos)) -> Truth {
        let topo = sim.topology();
        let mut clients = BTreeMap::new();
        for client in topo.clients() {
            let (class, _, _) = topo.client_spec(client).expect("client node");
            let mut edges = BTreeSet::new();
            for path in sim.truth().class_paths(class).into_keys() {
                edges.extend(path_edges(client, &path));
            }
            clients.insert(
                client,
                ClientTruth {
                    edges,
                    sends: sends(client),
                },
            );
        }
        Truth { clients }
    }

    /// Checks one refresh whose analysis window is `[start, end)`.
    pub fn check(&self, graphs: &[ServiceGraph], window: (Nanos, Nanos)) -> Result<(), String> {
        let mut seen = BTreeSet::new();
        for g in graphs {
            let truth = self
                .clients
                .get(&g.client)
                .ok_or_else(|| format!("{}: graph for an unknown client", g.client_label))?;
            let found: BTreeSet<Edge> = g.strong_edges().map(|e| (e.from, e.to)).collect();
            if let Some(extra) = found.difference(&truth.edges).next() {
                return Err(format!(
                    "{}: edge {:?}->{:?} is not on any true path",
                    g.client_label, extra.0, extra.1
                ));
            }
            if sends_throughout(truth, window) {
                if let Some(missing) = truth.edges.difference(&found).next() {
                    return Err(format!(
                        "{}: true edge {:?}->{:?} missing",
                        g.client_label, missing.0, missing.1
                    ));
                }
            }
            seen.insert(g.client);
        }
        for (client, truth) in &self.clients {
            if sends_throughout(truth, window) && !seen.contains(client) {
                return Err(format!(
                    "client {client:?} sent throughout but has no graph"
                ));
            }
        }
        Ok(())
    }
}

fn sends_throughout(truth: &ClientTruth, (start, end): (Nanos, Nanos)) -> bool {
    truth.sends.0 <= start && truth.sends.1 >= end
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2eprof_core::graph::{DelaySpike, GraphEdge};

    const CLIENT: NodeId = NodeId::new(0);
    const WEB: NodeId = NodeId::new(1);
    const DB: NodeId = NodeId::new(2);
    const OTHER: NodeId = NodeId::new(3);

    fn truth(sends: (Nanos, Nanos)) -> Truth {
        let mut clients = BTreeMap::new();
        clients.insert(
            CLIENT,
            ClientTruth {
                edges: path_edges(CLIENT, &[WEB, DB]),
                sends,
            },
        );
        Truth { clients }
    }

    fn graph(edges: &[Edge]) -> ServiceGraph {
        let mut g = ServiceGraph::new(CLIENT, "cli".into(), WEB);
        g.add_edge(GraphEdge::anchor(CLIENT, WEB));
        for &(from, to) in edges {
            g.add_edge(GraphEdge {
                from,
                to,
                spikes: vec![DelaySpike {
                    delay: Nanos::from_millis(5),
                    strength: 1.0,
                }],
                hop_delay: Nanos::from_millis(1),
            });
        }
        g
    }

    const ALWAYS: (Nanos, Nanos) = (Nanos::ZERO, Nanos::from_nanos(u64::MAX));
    const WINDOW: (Nanos, Nanos) = (Nanos::from_secs(1), Nanos::from_secs(11));

    #[test]
    fn path_edges_cover_both_directions() {
        let set = path_edges(CLIENT, &[WEB, DB]);
        let want: BTreeSet<Edge> = [(CLIENT, WEB), (WEB, DB), (DB, WEB), (WEB, CLIENT)]
            .into_iter()
            .collect();
        assert_eq!(set, want);
    }

    #[test]
    fn accepts_the_true_graph() {
        let g = graph(&[(WEB, DB), (DB, WEB), (WEB, CLIENT)]);
        assert_eq!(truth(ALWAYS).check(&[g], WINDOW), Ok(()));
    }

    #[test]
    fn rejects_an_extra_edge() {
        let g = graph(&[(WEB, DB), (DB, WEB), (WEB, CLIENT), (DB, OTHER)]);
        assert!(truth(ALWAYS).check(&[g], WINDOW).is_err());
    }

    #[test]
    fn rejects_a_missing_edge_only_for_clients_sending_throughout() {
        let g = graph(&[(WEB, DB), (WEB, CLIENT)]);
        assert!(truth(ALWAYS)
            .check(std::slice::from_ref(&g), WINDOW)
            .is_err());
        // A client that went quiet mid-window may show a partial graph.
        let stopped = (Nanos::ZERO, Nanos::from_secs(5));
        assert_eq!(truth(stopped).check(&[g], WINDOW), Ok(()));
    }

    #[test]
    fn rejects_a_missing_graph() {
        assert!(truth(ALWAYS).check(&[], WINDOW).is_err());
    }
}
