//! Connectivity analysis and the *prior* stability properties the paper
//! compares (T, D)-dynaDegree against (§II-B):
//!
//! * **T-interval connectivity** (Kuhn, Lynch & Oshman): every window of
//!   `T` consecutive rounds contains a *stable* connected spanning
//!   subgraph — i.e. the **intersection** of the window's (undirected)
//!   link sets is connected. Note the contrast with dynaDegree, which
//!   aggregates the **union**.
//! * **Rooted spanning tree** (Charron-Bost et al. / Winkler et al.): in
//!   every single round there is at least one node that can reach every
//!   other node along directed links.
//!
//! The experiment E16 uses these to reproduce the paper's discussion that
//! dynaDegree is incomparable with both: the Figure 1 adversary satisfies
//! (2,1)-dynaDegree yet is disconnected (no root, no stable subgraph) in
//! every odd round.

use adn_types::{NodeId, Round};

use crate::{EdgeSet, Schedule};

/// Whether the graph, links read as undirected, connects all `n` nodes.
///
/// An empty or single-node graph counts as connected.
pub fn is_connected_undirected(edges: &EdgeSet) -> bool {
    let n = edges.n();
    if n <= 1 {
        return true;
    }
    // Undirected adjacency from the directed links.
    let mut adj = vec![Vec::new(); n];
    edges.for_each_edge(|u, v| {
        adj[u.index()].push(v.index());
        adj[v.index()].push(u.index());
    });
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut count = 1;
    while let Some(x) = stack.pop() {
        for &y in &adj[x] {
            if !seen[y] {
                seen[y] = true;
                count += 1;
                stack.push(y);
            }
        }
    }
    count == n
}

/// The set of nodes that can reach **every** node along directed links
/// (the "coordinators" of the rooted-spanning-tree property). Empty when
/// the graph has no root.
pub fn roots(edges: &EdgeSet) -> Vec<NodeId> {
    let n = edges.n();
    // Forward adjacency (sender -> receivers).
    let mut adj = vec![Vec::new(); n];
    edges.for_each_edge(|u, v| {
        adj[u.index()].push(v.index());
    });
    NodeId::all(n)
        .filter(|&r| {
            let mut seen = vec![false; n];
            let mut stack = vec![r.index()];
            seen[r.index()] = true;
            let mut count = 1;
            while let Some(x) = stack.pop() {
                for &y in &adj[x] {
                    if !seen[y] {
                        seen[y] = true;
                        count += 1;
                        stack.push(y);
                    }
                }
            }
            count == n
        })
        .collect()
}

/// The intersection of the links over the window `[t, t+window)` — the
/// "stable subgraph" that T-interval connectivity quantifies over.
///
/// # Panics
///
/// Panics if `window == 0` or the window does not fully fit in the
/// recording.
pub fn window_intersection(schedule: &Schedule, t: Round, window: usize) -> EdgeSet {
    assert!(window > 0, "window must be at least 1 round");
    let start = t.as_u64() as usize;
    assert!(
        start + window <= schedule.len(),
        "window [{start}, {}) exceeds the {}-round recording",
        start + window,
        schedule.len()
    );
    let mut acc = schedule.round(t).expect("bounds checked").clone();
    for (_, e) in schedule.iter().skip(start + 1).take(window - 1) {
        for (row, other) in acc
            .in_neighbor_sets_mut()
            .iter_mut()
            .zip(e.in_neighbor_sets())
        {
            row.intersect_with(other);
        }
    }
    acc
}

/// Whether the recording satisfies T-interval connectivity: every full
/// window of `T` rounds has a connected (undirected) stable subgraph, its
/// [`window_intersection`]. Vacuously `true` when no full window fits.
///
/// Each window is intersected from scratch, `T` word passes over one
/// round's rows; the experiments ask it of windows of a few rounds at
/// small `n`.
///
/// # Panics
///
/// Panics if `t_window == 0`.
pub fn t_interval_connected(schedule: &Schedule, t_window: usize) -> bool {
    assert!(t_window > 0, "window must be at least 1 round");
    let windows = (schedule.len() + 1).saturating_sub(t_window);
    (0..windows).all(|s| {
        is_connected_undirected(&window_intersection(
            schedule,
            Round::new(s as u64),
            t_window,
        ))
    })
}

/// Whether every recorded round's graph has a rooted spanning tree (a
/// node that reaches everyone).
pub fn rooted_every_round(schedule: &Schedule) -> bool {
    schedule.iter().all(|(_, e)| !roots(e).is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn figure1(rounds: usize) -> Schedule {
        let even = EdgeSet::from_pairs(3, [(0, 1), (1, 0), (1, 2), (2, 1)]);
        let odd = EdgeSet::empty(3);
        let mut s = Schedule::new(3);
        for t in 0..rounds {
            s.push(if t % 2 == 0 {
                odd.clone()
            } else {
                even.clone()
            });
        }
        s
    }

    #[test]
    fn complete_is_connected_and_all_roots() {
        let e = generators::complete(5);
        assert!(is_connected_undirected(&e));
        assert_eq!(roots(&e).len(), 5);
    }

    #[test]
    fn empty_graph_disconnected_no_roots() {
        let e = EdgeSet::empty(3);
        assert!(!is_connected_undirected(&e));
        assert!(roots(&e).is_empty());
        assert!(is_connected_undirected(&EdgeSet::empty(1)));
    }

    #[test]
    fn star_roots_are_center_only_when_directed_out() {
        // Directed star where only the center sends: center is the root.
        let mut e = EdgeSet::empty(4);
        for i in 1..4 {
            e.insert(NodeId::new(0), NodeId::new(i));
        }
        assert_eq!(roots(&e), vec![NodeId::new(0)]);
        // Undirected view is connected.
        assert!(is_connected_undirected(&e));
    }

    #[test]
    fn two_cliques_are_disconnected() {
        let e = generators::two_cliques(6, 3);
        assert!(!is_connected_undirected(&e));
        assert!(roots(&e).is_empty());
    }

    #[test]
    fn figure1_fails_both_prior_properties() {
        let s = figure1(8);
        // Odd (0-based even) rounds are empty: no root that round.
        assert!(!rooted_every_round(&s));
        // The 2-round stable subgraph is the *intersection* = empty.
        assert!(!t_interval_connected(&s, 2));
        assert!(!t_interval_connected(&s, 1));
        // ...while (2,1)-dynaDegree holds (crate::checker tests).
    }

    #[test]
    fn stable_complete_satisfies_everything() {
        let mut s = Schedule::new(4);
        for _ in 0..6 {
            s.push(generators::complete(4));
        }
        assert!(t_interval_connected(&s, 1));
        assert!(t_interval_connected(&s, 3));
        assert!(rooted_every_round(&s));
    }

    #[test]
    fn window_intersection_drops_unstable_links() {
        let mut s = Schedule::new(3);
        s.push(EdgeSet::from_pairs(3, [(0, 1), (1, 2)]));
        s.push(EdgeSet::from_pairs(3, [(0, 1), (2, 0)]));
        let stable = window_intersection(&s, Round::ZERO, 2);
        assert_eq!(stable.edge_count(), 1);
        assert!(stable.contains(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn short_recording_is_vacuous() {
        let s = figure1(1);
        assert!(t_interval_connected(&s, 5));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn window_intersection_bounds_checked() {
        let s = figure1(2);
        window_intersection(&s, Round::new(1), 2);
    }

    #[test]
    fn ring_has_all_roots() {
        let e = generators::ring(5);
        assert_eq!(roots(&e).len(), 5);
        assert!(is_connected_undirected(&e));
    }
}
