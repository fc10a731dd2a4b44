//! The rebuild-per-multiplier certificate search, kept as a test oracle.
//!
//! It solves every multiplier from scratch: a fresh adjacency-list network
//! and a recursive Dinic run from zero flow, every region recounted through
//! hash lookups by [`region_certificate`], duplicates removed by comparing
//! whole certificates. The warm-started search must return exactly what
//! this one returns.

use sops_core::{Color, Configuration};
use sops_lattice::{Node, NodeSet, DIRECTIONS};

use super::{region_certificate, SeparationCertificate, SWEEP};

/// Dinic's algorithm on `Vec<Vec<usize>>` adjacency lists.
struct Network {
    // Forward and reverse arcs interleaved: arc i's reverse is i ^ 1.
    to: Vec<usize>,
    cap: Vec<u64>,
    head: Vec<Vec<usize>>,
}

impl Network {
    fn new(n: usize) -> Self {
        Network {
            to: Vec::new(),
            cap: Vec::new(),
            head: vec![Vec::new(); n],
        }
    }

    fn add_arcs(&mut self, u: usize, v: usize, forward: u64, backward: u64) {
        let idx = self.to.len();
        self.to.extend([v, u]);
        self.cap.extend([forward, backward]);
        self.head[u].push(idx);
        self.head[v].push(idx + 1);
    }

    fn max_flow(&mut self, s: usize, t: usize) {
        loop {
            let mut level = vec![usize::MAX; self.head.len()];
            level[s] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                for &a in &self.head[u] {
                    let v = self.to[a];
                    if self.cap[a] > 0 && level[v] == usize::MAX {
                        level[v] = level[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            if level[t] == usize::MAX {
                return;
            }
            let mut iter = vec![0usize; self.head.len()];
            while self.dfs(s, t, u64::MAX, &level, &mut iter) > 0 {}
        }
    }

    fn dfs(&mut self, u: usize, t: usize, limit: u64, level: &[usize], iter: &mut [usize]) -> u64 {
        if u == t {
            return limit;
        }
        while iter[u] < self.head[u].len() {
            let a = self.head[u][iter[u]];
            let v = self.to[a];
            if self.cap[a] > 0 && level[v] == level[u] + 1 {
                let pushed = self.dfs(v, t, limit.min(self.cap[a]), level, iter);
                if pushed > 0 {
                    self.cap[a] -= pushed;
                    self.cap[a ^ 1] += pushed;
                    return pushed;
                }
            }
            iter[u] += 1;
        }
        0
    }

    /// Nodes reachable from `s` in the residual graph of a maximum flow.
    fn min_cut(&mut self, s: usize, t: usize) -> Vec<bool> {
        self.max_flow(s, t);
        let mut side = vec![false; self.head.len()];
        side[s] = true;
        let mut stack = vec![s];
        while let Some(u) = stack.pop() {
            for &a in &self.head[u] {
                let v = self.to[a];
                if self.cap[a] > 0 && !side[v] {
                    side[v] = true;
                    stack.push(v);
                }
            }
        }
        side
    }
}

pub(super) fn min_cut_region(
    config: &Configuration,
    reference: Color,
    num: u64,
    den: u64,
) -> SeparationCertificate {
    let n = config.len();
    let source = n;
    let sink = n + 1;
    let mut net = Network::new(n + 2);
    for i in 0..n {
        if config.color_of(i) == reference {
            net.add_arcs(source, i, num, 0);
        } else {
            net.add_arcs(i, sink, num, 0);
        }
    }
    for i in 0..n {
        let node = config.position_of(i);
        for d in DIRECTIONS {
            if let Some(j) = config.index_at(node.neighbor(d)) {
                if i < j {
                    net.add_arcs(i, j, den, den);
                }
            }
        }
    }
    let side = net.min_cut(source, sink);
    let region: NodeSet = (0..n)
        .filter(|&i| side[i])
        .map(|i| config.position_of(i))
        .collect();
    region_certificate(config, &region, reference)
}

pub(super) fn separation_profile(
    config: &Configuration,
    reference: Color,
) -> Vec<SeparationCertificate> {
    let mut out: Vec<SeparationCertificate> = Vec::new();
    for (num, den) in SWEEP {
        let cert = min_cut_region(config, reference, num, den);
        if !out.contains(&cert) {
            out.push(cert);
        }
    }
    let mut components: Vec<Vec<Node>> = Vec::new();
    let mut seen = NodeSet::new();
    for (node, color) in config.particles() {
        if color != reference || seen.contains(node) {
            continue;
        }
        let mut comp = vec![node];
        seen.insert(node);
        let mut stack = vec![node];
        while let Some(u) = stack.pop() {
            for m in u.neighbors() {
                if config.color_at(m) == Some(reference) && seen.insert(m) {
                    comp.push(m);
                    stack.push(m);
                }
            }
        }
        components.push(comp);
    }
    components.sort_by_key(|c| std::cmp::Reverse(c.len()));
    let mut region = NodeSet::new();
    for comp in &components {
        for &n in comp {
            region.insert(n);
        }
        let cert = region_certificate(config, &region, reference);
        if !out.contains(&cert) {
            out.push(cert);
        }
    }
    out.sort_by_key(|c| (c.boundary_edges, c.region_size));
    out
}

pub(super) fn is_separated(
    config: &Configuration,
    beta: f64,
    delta: f64,
) -> Option<SeparationCertificate> {
    for reference in [Color::C1, Color::C2] {
        for cert in separation_profile(config, reference) {
            if cert.satisfies(beta, delta) {
                return Some(cert);
            }
        }
    }
    None
}
