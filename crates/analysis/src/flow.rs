//! A from-scratch maximum-flow / minimum-cut solver (Dinic's algorithm).
//!
//! Used by [`crate::separation`] to minimize `boundary + m · misplaced`
//! over all particle subsets, which is an s-t minimum cut in a graph with
//! unit arcs between adjacent particles and multiplier-weighted terminal
//! arcs. Capacities are integers (`u64`); the separation module scales its
//! multipliers accordingly.
//!
//! The arcs are laid out once, in flat arrays, and the search buffers live
//! in the network. A caller that solves a family of related cuts on one
//! graph raises capacities with [`FlowNetwork::raise_capacity`] and calls
//! [`FlowNetwork::max_flow`] again: the solve continues from the flow
//! already in the network and allocates nothing.

/// Level of a node the last breadth-first search did not reach.
const UNREACHED: u32 = u32::MAX;

/// A directed flow network with integer capacities, holding its current
/// flow as residual capacities.
///
/// # Example
///
/// ```
/// use sops_analysis::flow::FlowNetwork;
///
/// // s → a → t with bottleneck 3, plus a parallel s → t arc of 2.
/// let (s, a, t) = (0, 1, 2);
/// let mut net = FlowNetwork::new(3, &[(s, a, 5, 0), (a, t, 3, 0), (s, t, 2, 0)]);
/// let (cut_value, source_side) = net.min_cut(s, t);
/// assert_eq!(cut_value, 5);
/// assert!(source_side[s] && source_side[a]);
/// assert!(!source_side[t]);
///
/// // Widen the bottleneck: the next solve augments the existing flow.
/// net.raise_capacity(1, 4);
/// assert_eq!(net.max_flow(s, t), 2);
/// ```
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    /// The arcs leaving node `u` are `first[u]..first[u + 1]`.
    first: Vec<usize>,
    /// Head of each arc.
    to: Vec<u32>,
    /// Index of each arc's reverse arc.
    rev: Vec<u32>,
    /// Residual capacity of each arc.
    cap: Vec<u64>,
    /// The `u → v` arc of each edge passed to [`FlowNetwork::new`].
    edge_arc: Vec<u32>,
    // Search buffers, reused by every solve.
    level: Vec<u32>,
    cursor: Vec<usize>,
    queue: Vec<u32>,
    path: Vec<u32>,
}

impl FlowNetwork {
    /// Lays out a network on nodes `0..n` with no flow. Each edge
    /// `(u, v, forward, backward)` is an arc `u → v` of capacity `forward`
    /// paired with an arc `v → u` of capacity `backward`: `0` for a
    /// directed arc, `forward` for an undirected edge.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the network has more than
    /// `u32::MAX` nodes or arcs.
    #[must_use]
    pub fn new(n: usize, edges: &[(usize, usize, u64, u64)]) -> Self {
        assert!(n < UNREACHED as usize && 2 * edges.len() < u32::MAX as usize);
        let mut first = vec![0usize; n + 1];
        for &(u, v, _, _) in edges {
            assert!(u < n && v < n, "arc endpoints out of range");
            first[u + 1] += 1;
            first[v + 1] += 1;
        }
        for u in 0..n {
            first[u + 1] += first[u];
        }
        let arcs = first[n];
        let mut next = first[..n].to_vec();
        let (mut to, mut rev, mut cap) = (vec![0; arcs], vec![0; arcs], vec![0; arcs]);
        let mut edge_arc = Vec::with_capacity(edges.len());
        for &(u, v, forward, backward) in edges {
            let (a, b) = (next[u], next[v]);
            next[u] += 1;
            next[v] += 1;
            (to[a], rev[a], cap[a]) = (v as u32, b as u32, forward);
            (to[b], rev[b], cap[b]) = (u as u32, a as u32, backward);
            edge_arc.push(a as u32);
        }
        FlowNetwork {
            first,
            to,
            rev,
            cap,
            edge_arc,
            level: vec![UNREACHED; n],
            cursor: vec![0; n],
            queue: Vec::with_capacity(n),
            path: Vec::new(),
        }
    }

    /// Raises the capacity of the `u → v` arc of `edges[edge]` by `by`.
    ///
    /// The current flow stays feasible, so the next [`FlowNetwork::max_flow`]
    /// starts from it.
    pub fn raise_capacity(&mut self, edge: usize, by: u64) {
        self.cap[self.edge_arc[edge] as usize] += by;
    }

    /// Augments the current flow to a maximum `s → t` flow and returns the
    /// amount this call added.
    ///
    /// # Panics
    ///
    /// Panics if `s == t`.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        assert_ne!(s, t, "source and sink must differ");
        let mut flow = 0;
        while self.bfs(s, t) {
            self.cursor.copy_from_slice(&self.first[..self.level.len()]);
            flow += self.blocking_flow(s, t);
        }
        flow
    }

    /// Whether `v` was reached by the last breadth-first search of the last
    /// [`FlowNetwork::max_flow`]. That search found no path to the sink, so
    /// these are exactly the nodes reachable from the source in the residual
    /// graph of the maximum flow: the inclusion-minimal source side of a
    /// minimum cut, whichever maximum flow the network holds.
    #[must_use]
    pub fn on_source_side(&self, v: usize) -> bool {
        self.level[v] != UNREACHED
    }

    /// Computes a minimum `s`/`t` cut: returns `(flow added, source side)`
    /// where `source_side[v]` is `true` for nodes reachable from `s` in the
    /// final residual graph (see [`FlowNetwork::on_source_side`]).
    ///
    /// The cut is the same whatever feasible flow the network held before
    /// the call; the returned value is the cut's capacity only when that
    /// flow was zero, as on a new network.
    pub fn min_cut(&mut self, s: usize, t: usize) -> (u64, Vec<bool>) {
        let value = self.max_flow(s, t);
        let side = (0..self.level.len())
            .map(|v| self.on_source_side(v))
            .collect();
        (value, side)
    }

    /// Labels nodes with their residual distance from `s`, stopping as soon
    /// as `t` is labeled; returns whether it was. When it returns `false`
    /// every node reachable from `s` is labeled.
    fn bfs(&mut self, s: usize, t: usize) -> bool {
        self.level.fill(UNREACHED);
        self.level[s] = 0;
        self.queue.clear();
        self.queue.push(s as u32);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let u = u as usize;
            let next = self.level[u] + 1;
            for a in self.first[u]..self.first[u + 1] {
                let v = self.to[a] as usize;
                if self.cap[a] > 0 && self.level[v] == UNREACHED {
                    self.level[v] = next;
                    if v == t {
                        return true;
                    }
                    self.queue.push(v as u32);
                }
            }
        }
        false
    }

    /// Saturates every shortest augmenting path of the current level graph.
    /// The search keeps its path as an explicit arc stack rather than
    /// recursing, since a warm-started residual path can be as long as the
    /// network.
    fn blocking_flow(&mut self, s: usize, t: usize) -> u64 {
        let mut pushed = 0;
        let mut u = s;
        self.path.clear();
        loop {
            if u == t {
                let path = &self.path;
                let bottleneck = path.iter().map(|&a| self.cap[a as usize]).min();
                let bottleneck = bottleneck.expect("s != t, so the path has arcs");
                for &a in path {
                    self.cap[a as usize] -= bottleneck;
                    self.cap[self.rev[a as usize] as usize] += bottleneck;
                }
                pushed += bottleneck;
                // Resume from the tail of the first arc the push saturated.
                let saturated = path.iter().position(|&a| self.cap[a as usize] == 0);
                self.path
                    .truncate(saturated.expect("the bottleneck arc saturates"));
                u = self
                    .path
                    .last()
                    .map_or(s, |&a| self.to[a as usize] as usize);
                continue;
            }
            let next_level = self.level[u] + 1;
            let end = self.first[u + 1];
            let mut a = self.cursor[u];
            while a < end && (self.cap[a] == 0 || self.level[self.to[a] as usize] != next_level) {
                a += 1;
            }
            self.cursor[u] = a;
            if a < end {
                self.path.push(a as u32);
                u = self.to[a] as usize;
            } else if let Some(dead) = self.path.pop() {
                // `u` is a dead end: step back and skip the arc into it.
                u = self.to[self.rev[dead as usize] as usize] as usize;
                self.cursor[u] += 1;
            } else {
                return pushed;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Capacity of the cheapest `0`/`n−1` cut, by enumerating every
    /// partition of the inner nodes.
    fn brute_force_min_cut(n: usize, arcs: &[(usize, usize, u64)]) -> u64 {
        (0u32..1 << (n - 2))
            .map(|mask| {
                let in_source = |v: usize| v == 0 || (v < n - 1 && mask & (1 << (v - 1)) != 0);
                arcs.iter()
                    .filter(|&&(u, v, _)| in_source(u) && !in_source(v))
                    .map(|&(_, _, c)| c)
                    .sum()
            })
            .min()
            .expect("at least one partition")
    }

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2, &[(0, 1, 7, 0)]);
        assert_eq!(net.max_flow(0, 1), 7);
    }

    #[test]
    fn disconnected_sink_has_zero_flow() {
        let mut net = FlowNetwork::new(3, &[(0, 1, 5, 0)]);
        assert_eq!(net.max_flow(0, 2), 0);
    }

    #[test]
    fn classic_diamond() {
        // s=0, t=3; two paths of capacity 2 and 3 sharing no edges, plus a
        // cross edge that enables augmenting paths through both.
        let edges = [
            (0, 1, 3, 0),
            (0, 2, 2, 0),
            (1, 3, 2, 0),
            (2, 3, 3, 0),
            (1, 2, 5, 0),
        ];
        let mut net = FlowNetwork::new(4, &edges);
        assert_eq!(net.max_flow(0, 3), 5);
    }

    #[test]
    fn min_cut_separates_terminals_and_matches_capacity() {
        // Bipartite-ish gadget.
        let arcs = [
            (0, 1, 10),
            (0, 2, 10),
            (1, 3, 4),
            (2, 3, 1),
            (1, 4, 2),
            (2, 4, 6),
            (3, 5, 9),
            (4, 5, 5),
        ];
        let edges: Vec<_> = arcs.iter().map(|&(u, v, c)| (u, v, c, 0)).collect();
        let (value, side) = FlowNetwork::new(6, &edges).min_cut(0, 5);
        assert!(side[0] && !side[5]);
        assert_eq!(value, brute_force_min_cut(6, &arcs));
    }

    #[test]
    fn undirected_edges_carry_flow_both_ways() {
        let mut net = FlowNetwork::new(4, &[(0, 1, 4, 0), (1, 2, 3, 3), (2, 3, 4, 0)]);
        assert_eq!(net.max_flow(0, 3), 3);
    }

    #[test]
    fn randomized_against_brute_force() {
        // Small random graphs: compare max-flow against brute-force min-cut.
        let mut next = xorshift(0xdead_beef);
        for trial in 0..50 {
            let n = 5;
            let mut arcs = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    if u != v && next() % 3 == 0 {
                        arcs.push((u, v, next() % 8));
                    }
                }
            }
            let edges: Vec<_> = arcs.iter().map(|&(u, v, c)| (u, v, c, 0)).collect();
            let flow = FlowNetwork::new(n, &edges).max_flow(0, n - 1);
            assert_eq!(flow, brute_force_min_cut(n, &arcs), "trial {trial}");
        }
    }

    #[test]
    fn warm_start_matches_a_fresh_solve() {
        // Raise random arcs step by step: the flows added by the warm
        // solves sum to a fresh solve's value, and both report the same
        // (inclusion-minimal) source side.
        let mut next = xorshift(0x5eed);
        for trial in 0..50 {
            let n = 7;
            let mut edges = Vec::new();
            for u in 0..n {
                for v in u + 1..n {
                    if next() % 2 == 0 {
                        let c = next() % 5;
                        let back = if next() % 2 == 0 { c } else { 0 };
                        edges.push((u, v, c, back));
                    }
                }
            }
            let mut warm = FlowNetwork::new(n, &edges);
            let mut total = warm.max_flow(0, n - 1);
            for _ in 0..4 {
                for (k, edge) in edges.iter_mut().enumerate() {
                    let by = next() % 3;
                    edge.2 += by;
                    warm.raise_capacity(k, by);
                }
                let (added, warm_side) = warm.min_cut(0, n - 1);
                total += added;
                let (fresh, fresh_side) = FlowNetwork::new(n, &edges).min_cut(0, n - 1);
                assert_eq!(total, fresh, "trial {trial}");
                assert_eq!(warm_side, fresh_side, "trial {trial}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn same_source_sink_panics() {
        let mut net = FlowNetwork::new(2, &[(0, 1, 1, 0)]);
        let _ = net.max_flow(1, 1);
    }
}
