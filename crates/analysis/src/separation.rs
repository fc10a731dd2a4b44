//! Certification of (β, δ)-separation (Definition 3 of the paper).
//!
//! A configuration `σ` of `n` particles is (β, δ)-separated if some subset
//! `R` of particles satisfies:
//!
//! 1. at most `β√n` edges of `σ` have exactly one endpoint in `R`;
//! 2. the density of `c₁` particles in `R` is at least `1 − δ`;
//! 3. the density of `c₁` particles outside `R` is at most `δ`.
//!
//! `R` need not be connected. We search for witnesses by Lagrangian
//! relaxation: for a multiplier `m`, the minimizer of
//! `boundary(R) + m · misplaced(R)` (misplaced = `c₁` outside `R` plus
//! non-`c₁` inside `R`) is an s-t minimum cut. Sweeping `m` traces the lower
//! convex hull of the (boundary, misplaced) trade-off; every candidate `R`
//! is then *literally* checked against Definition 3, so a positive answer is
//! always sound.
//!
//! # The cut search
//!
//! For each color in the role of `c₁` the search builds one flow network
//! and solves the whole multiplier sweep on it:
//!
//! * Every capacity is scaled by the least common multiple of the sweep's
//!   denominators: inner arcs carry that factor and terminal arcs the factor
//!   times the multiplier, all integers. Scaling every capacity by one
//!   factor leaves the set of minimum cuts unchanged.
//! * The multipliers are applied in increasing order. Each one raises the
//!   terminal capacities in place and augments from the previous maximum
//!   flow, which raising capacities keeps feasible.
//! * Each region is read off the final, failing breadth-first search of its
//!   maximum flow: the particles reachable from the source in the residual
//!   graph. For *any* maximum flow that set is the unique inclusion-minimal
//!   source side of a minimum cut, so it is the region a solve from zero
//!   flow on a fresh, unscaled network finds.
//!
//! The regions, and so the certificates, are therefore exactly those of a
//! search that rebuilds the network for every multiplier; a test-only copy
//! of that search checks it. Candidates are counted on particle indices,
//! and only a certificate that is returned gets its list of nodes.

use std::cmp::Ordering;

use sops_core::{Color, Configuration};
use sops_lattice::{Node, NodeSet, DIRECTIONS};

use crate::flow::FlowNetwork;

#[cfg(test)]
mod oracle;

/// A concrete witness region `R` together with its literally counted
/// boundary and composition — everything Definition 3 talks about.
#[derive(Clone, Debug, PartialEq)]
pub struct SeparationCertificate {
    /// The witness subset `R` (particle nodes).
    pub region: Vec<Node>,
    /// Number of configuration edges with exactly one endpoint in `R`.
    pub boundary_edges: u64,
    /// Number of `c₁` particles in `R`.
    pub c1_in_region: usize,
    /// Number of `c₁` particles outside `R`.
    pub c1_outside: usize,
    /// Total particles in `R`.
    pub region_size: usize,
    /// Total particles outside `R`.
    pub outside_size: usize,
}

impl SeparationCertificate {
    /// Density of `c₁` particles inside `R` (1.0 for an empty region, the
    /// vacuous optimum of condition 2).
    #[must_use]
    pub fn density_inside(&self) -> f64 {
        if self.region_size == 0 {
            1.0
        } else {
            self.c1_in_region as f64 / self.region_size as f64
        }
    }

    /// Density of `c₁` particles outside `R` (0.0 when nothing is outside).
    #[must_use]
    pub fn density_outside(&self) -> f64 {
        if self.outside_size == 0 {
            0.0
        } else {
            self.c1_outside as f64 / self.outside_size as f64
        }
    }

    /// Whether this region witnesses (β, δ)-separation for a system of
    /// `n = region_size + outside_size` particles.
    #[must_use]
    pub fn satisfies(&self, beta: f64, delta: f64) -> bool {
        let n = (self.region_size + self.outside_size) as f64;
        (self.boundary_edges as f64) <= beta * n.sqrt()
            && self.density_inside() >= 1.0 - delta
            && self.density_outside() <= delta
    }
}

/// Builds the certificate for an explicit region `R` by literal counting.
///
/// The `reference` color plays the role of `c₁` in Definition 3.
#[must_use]
pub fn region_certificate(
    config: &Configuration,
    region: &NodeSet,
    reference: Color,
) -> SeparationCertificate {
    let mut cert = SeparationCertificate {
        region: Vec::new(),
        boundary_edges: 0,
        c1_in_region: 0,
        c1_outside: 0,
        region_size: 0,
        outside_size: 0,
    };
    for (node, color) in config.particles() {
        let inside = region.contains(node);
        if inside {
            cert.region.push(node);
            cert.region_size += 1;
            cert.c1_in_region += usize::from(color == reference);
            // Count boundary edges once, from the inside endpoint.
            for d in DIRECTIONS {
                let m = node.neighbor(d);
                if config.is_occupied(m) && !region.contains(m) {
                    cert.boundary_edges += 1;
                }
            }
        } else {
            cert.outside_size += 1;
            cert.c1_outside += usize::from(color == reference);
        }
    }
    cert.region.sort_unstable_by_key(|n| (n.x, n.y));
    cert
}

/// Trade-off multipliers `m = num/den`, increasing, spanning "boundary is
/// everything" (m → 0, giving R = ∅ or all) to "purity is everything"
/// (m ≥ 3n ≥ any boundary, giving R = exactly the c₁ particles).
const SWEEP: [(u64, u64); 12] = [
    (1, 8),
    (1, 4),
    (1, 2),
    (3, 4),
    (1, 1),
    (3, 2),
    (2, 1),
    (3, 1),
    (4, 1),
    (6, 1),
    (12, 1),
    (1_000_000, 1),
];

/// The least common multiple of the `SWEEP` denominators: with inner arcs
/// of capacity `SCALE`, every multiplier is an integer terminal capacity.
const SCALE: u64 = {
    let mut scale = 1;
    let mut i = 0;
    while i < SWEEP.len() {
        let den = SWEEP[i].1;
        let (mut a, mut b) = (scale, den);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        scale = scale / a * den;
        i += 1;
    }
    scale
};

// The warm start only ever raises terminal capacities.
const _: () = {
    let mut i = 1;
    while i < SWEEP.len() {
        let ((a, b), (c, d)) = (SWEEP[i - 1], SWEEP[i]);
        assert!(a * d < c * b, "SWEEP multipliers must increase");
        i += 1;
    }
};

/// Marks an unoccupied site in a [`neighbor_table`] row.
const EMPTY: u32 = u32::MAX;

/// Each particle's six neighbors as particle indices, [`EMPTY`] where the
/// site is unoccupied: the only hash probes of a search.
fn neighbor_table(config: &Configuration) -> Vec<[u32; 6]> {
    config
        .particles()
        .map(|(node, _)| {
            DIRECTIONS.map(|d| {
                config
                    .index_at(node.neighbor(d))
                    .map_or(EMPTY, |j| j as u32)
            })
        })
        .collect()
}

fn contains(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 == 1
}

/// A candidate region, counted on particle indices. Its node list is built
/// only when it is returned.
struct Candidate {
    /// The certificate with `region` left empty.
    counts: SeparationCertificate,
    members: Members,
}

enum Members {
    /// The source side of a cut, as a bitmap over particle indices.
    Cut(Vec<u64>),
    /// The first `len` particles of the greedy component order.
    Union(usize),
}

impl Candidate {
    /// Whether both candidates are the same region, deciding on the counts
    /// before comparing members.
    fn same_region(&self, other: &Candidate, order: &[u32]) -> bool {
        self.counts == other.counts
            && match (&self.members, &other.members) {
                (Members::Cut(a), Members::Cut(b)) => a == b,
                (Members::Union(a), Members::Union(b)) => a == b,
                // The sizes are equal, so containment is equality.
                (Members::Cut(bits), Members::Union(len))
                | (Members::Union(len), Members::Cut(bits)) => {
                    order[..*len].iter().all(|&i| contains(bits, i as usize))
                }
            }
    }

    fn certificate(&self, config: &Configuration, order: &[u32]) -> SeparationCertificate {
        let mut region: Vec<Node> = match &self.members {
            Members::Cut(bits) => (0..config.len())
                .filter(|&i| contains(bits, i))
                .map(|i| config.position_of(i))
                .collect(),
            Members::Union(len) => order[..*len]
                .iter()
                .map(|&i| config.position_of(i as usize))
                .collect(),
        };
        region.sort_unstable_by_key(|n| (n.x, n.y));
        SeparationCertificate {
            region,
            ..self.counts.clone()
        }
    }
}

/// A configuration seen with one color in the role of `c₁`.
struct View<'a> {
    config: &'a Configuration,
    nbrs: &'a [[u32; 6]],
    reference: Color,
    c1_total: usize,
}

impl<'a> View<'a> {
    fn new(config: &'a Configuration, nbrs: &'a [[u32; 6]], reference: Color) -> Self {
        let c1_total = config.particles().filter(|&(_, c)| c == reference).count();
        View {
            config,
            nbrs,
            reference,
            c1_total,
        }
    }

    fn is_c1(&self, i: usize) -> bool {
        self.config.color_of(i) == self.reference
    }

    fn tally(
        &self,
        boundary_edges: u64,
        region_size: usize,
        c1_in_region: usize,
    ) -> SeparationCertificate {
        SeparationCertificate {
            region: Vec::new(),
            boundary_edges,
            c1_in_region,
            c1_outside: self.c1_total - c1_in_region,
            region_size,
            outside_size: self.nbrs.len() - region_size,
        }
    }

    /// The cut network: particle `i` is node `i`, the source is node `n`
    /// and the sink node `n + 1`. Edge `i` is particle `i`'s terminal arc
    /// (source → `i` for `c₁`, `i` → sink otherwise) of capacity
    /// `terminal`; every configuration edge carries `inner` both ways.
    fn network(&self, inner: u64, terminal: u64) -> FlowNetwork {
        let n = self.nbrs.len();
        let mut edges = Vec::with_capacity(4 * n);
        edges.extend((0..n).map(|i| {
            if self.is_c1(i) {
                (n, i, terminal, 0)
            } else {
                (i, n + 1, terminal, 0)
            }
        }));
        for (i, row) in self.nbrs.iter().enumerate() {
            for &j in row {
                if j != EMPTY && i < j as usize {
                    edges.push((i, j as usize, inner, inner));
                }
            }
        }
        FlowNetwork::new(n + 2, &edges)
    }

    /// The minimal source side of the minimum cut `net` last solved.
    fn cut(&self, net: &FlowNetwork) -> Candidate {
        let n = self.nbrs.len();
        let mut bits = vec![0u64; n.div_ceil(64)];
        let (mut size, mut c1) = (0, 0);
        for i in (0..n).filter(|&i| net.on_source_side(i)) {
            bits[i / 64] |= 1 << (i % 64);
            size += 1;
            c1 += usize::from(self.is_c1(i));
        }
        let boundary = (0..n)
            .filter(|&i| contains(&bits, i))
            .flat_map(|i| self.nbrs[i])
            .filter(|&j| j != EMPTY && !contains(&bits, j as usize))
            .count();
        Candidate {
            counts: self.tally(boundary as u64, size, c1),
            members: Members::Cut(bits),
        }
    }

    /// The `c₁` components in greedy order, flattened: largest first, ties
    /// in order of their lowest particle index. Returns the particles and
    /// the offset at which each component ends.
    fn components(&self) -> (Vec<u32>, Vec<usize>) {
        let n = self.nbrs.len();
        let mut seen = vec![false; n];
        let mut found: Vec<u32> = Vec::new();
        let mut spans = Vec::new();
        for root in 0..n {
            if seen[root] || !self.is_c1(root) {
                continue;
            }
            seen[root] = true;
            let begin = found.len();
            found.push(root as u32);
            let mut head = begin;
            while let Some(&u) = found.get(head) {
                head += 1;
                for &j in &self.nbrs[u as usize] {
                    if j != EMPTY && !seen[j as usize] && self.is_c1(j as usize) {
                        seen[j as usize] = true;
                        found.push(j);
                    }
                }
            }
            spans.push(begin..found.len());
        }
        spans.sort_by_key(|span| std::cmp::Reverse(span.len()));
        let mut order = Vec::with_capacity(found.len());
        let mut ends = Vec::with_capacity(spans.len());
        for span in spans {
            order.extend_from_slice(&found[span]);
            ends.push(order.len());
        }
        (order, ends)
    }

    /// Every candidate region in sweep order: the cut of each `SWEEP`
    /// multiplier, then the union of the largest `c₁` components, one more
    /// component at a time. Returns them with the greedy order that
    /// [`Members::Union`] indexes into.
    fn candidates(&self) -> (Vec<Candidate>, Vec<u32>) {
        let n = self.nbrs.len();
        let mut out = Vec::new();
        let mut net = self.network(SCALE, 0);
        let mut terminal = 0;
        for (num, den) in SWEEP {
            let raised = SCALE / den * num;
            for i in 0..n {
                net.raise_capacity(i, raised - terminal);
            }
            terminal = raised;
            net.max_flow(n, n + 1);
            out.push(self.cut(&net));
        }

        // Each union step counts only the edges of the joining component:
        // an edge to an earlier component stops being boundary, an edge to
        // a particle outside the union becomes boundary.
        let (order, ends) = self.components();
        let mut joined = vec![u32::MAX; n];
        let mut boundary = 0u64;
        let mut begin = 0;
        for (step, &end) in ends.iter().enumerate() {
            let step = step as u32;
            let component = &order[begin..end];
            for &i in component {
                joined[i as usize] = step;
            }
            for &j in component.iter().flat_map(|&i| &self.nbrs[i as usize]) {
                if j != EMPTY {
                    match joined[j as usize].cmp(&step) {
                        Ordering::Less => boundary -= 1,
                        Ordering::Equal => {}
                        Ordering::Greater => boundary += 1,
                    }
                }
            }
            out.push(Candidate {
                counts: self.tally(boundary, end, end),
                members: Members::Union(end),
            });
            begin = end;
        }
        (out, order)
    }
}

/// The region minimizing `den · boundary(R) + num · misplaced(R)` via a
/// minimum cut, where misplaced counts `c₁` particles outside `R` plus
/// non-`c₁` particles inside `R` (with the `reference` color as `c₁`).
/// Of several minimizers it returns the smallest, which every minimizer
/// contains.
#[must_use]
pub fn min_cut_region(
    config: &Configuration,
    reference: Color,
    num: u64,
    den: u64,
) -> SeparationCertificate {
    let nbrs = neighbor_table(config);
    let view = View::new(config, &nbrs, reference);
    let mut net = view.network(den, num);
    net.max_flow(config.len(), config.len() + 1);
    view.cut(&net).certificate(config, &[])
}

/// The Pareto profile of candidate regions from a multiplier sweep, for the
/// `reference` color as `c₁`: one minimum-cut region per multiplier, then
/// each monochromatic `c₁` component joined greedily largest-first (these
/// cover witnesses that sit above the Lagrangian hull). Deduplicated, then
/// stably sorted by boundary size and region size.
#[must_use]
pub fn separation_profile(config: &Configuration, reference: Color) -> Vec<SeparationCertificate> {
    let nbrs = neighbor_table(config);
    let (candidates, order) = View::new(config, &nbrs, reference).candidates();
    let mut kept: Vec<&Candidate> = Vec::new();
    for candidate in &candidates {
        // Unions grow strictly, so a union can only repeat one of the
        // cuts, and those come first.
        let mut cuts = kept
            .iter()
            .take_while(|k| matches!(k.members, Members::Cut(_)));
        if !cuts.any(|k| k.same_region(candidate, &order)) {
            kept.push(candidate);
        }
    }
    kept.sort_by_key(|c| (c.counts.boundary_edges, c.counts.region_size));
    kept.into_iter()
        .map(|c| c.certificate(config, &order))
        .collect()
}

/// Searches for a (β, δ)-separation witness, trying `c₁` and then `c₂` in
/// the role of `c₁`. For the first color with a witness it returns the
/// first satisfying certificate of its [`separation_profile`]: the one with
/// the fewest boundary edges, then the smallest region, then the earliest
/// in sweep order (the cuts by increasing multiplier, then the component
/// unions).
///
/// A `Some` answer is always sound (the certificate is literally checked);
/// a `None` answer means no witness appeared on the Lagrangian frontier of
/// either color.
///
/// # Example
///
/// ```
/// use sops_analysis::is_separated;
/// use sops_core::{Color, Configuration};
/// use sops_lattice::Node;
///
/// // Two monochromatic lumps sharing one edge: perfectly separated.
/// let config = Configuration::new([
///     (Node::new(0, 0), Color::C1),
///     (Node::new(0, 1), Color::C1),
///     (Node::new(1, 0), Color::C2),
///     (Node::new(1, 1), Color::C2),
/// ])?;
/// let cert = is_separated(&config, 4.0, 0.1).expect("clearly separated");
/// assert_eq!(cert.density_inside(), 1.0);
/// # Ok::<(), sops_core::ConfigError>(())
/// ```
#[must_use]
pub fn is_separated(
    config: &Configuration,
    beta: f64,
    delta: f64,
) -> Option<SeparationCertificate> {
    let nbrs = neighbor_table(config);
    [Color::C1, Color::C2].into_iter().find_map(|reference| {
        let (candidates, order) = View::new(config, &nbrs, reference).candidates();
        // The profile's first satisfying entry: duplicates the profile
        // drops are equal to an entry before them, so they never change it.
        candidates
            .iter()
            .filter(|c| c.counts.satisfies(beta, delta))
            .min_by_key(|c| (c.counts.boundary_edges, c.counts.region_size))
            .map(|c| c.certificate(config, &order))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sops_chains::MarkovChain;
    use sops_core::{construct, Bias, SeparationChain};

    /// Brute-force Definition 3 over all subsets (for n ≤ ~16).
    fn brute_force_separated(config: &Configuration, beta: f64, delta: f64) -> bool {
        let n = config.len();
        assert!(n <= 16, "brute force limited to small systems");
        for reference in [Color::C1, Color::C2] {
            for mask in 0u32..(1 << n) {
                let region: NodeSet = (0..n)
                    .filter(|&i| mask & (1 << i) != 0)
                    .map(|i| config.position_of(i))
                    .collect();
                if region_certificate(config, &region, reference).satisfies(beta, delta) {
                    return true;
                }
            }
        }
        false
    }

    fn two_lumps() -> Configuration {
        // 3×2 parallelogram, left column c1, right c2... build a 6-particle
        // bar: (0..2)×(0..2)... use rows of 3.
        Configuration::new([
            (Node::new(0, 0), Color::C1),
            (Node::new(0, 1), Color::C1),
            (Node::new(1, 0), Color::C1),
            (Node::new(2, 0), Color::C2),
            (Node::new(1, 1), Color::C2),
            (Node::new(2, 1), Color::C2),
        ])
        .unwrap()
    }

    fn alternating_bar() -> Configuration {
        Configuration::new((0..8).map(|x| {
            let c = if x % 2 == 0 { Color::C1 } else { Color::C2 };
            (Node::new(x, 0), c)
        }))
        .unwrap()
    }

    #[test]
    fn explicit_region_certificate_counts_literally() {
        let config = two_lumps();
        let region: NodeSet = [Node::new(0, 0), Node::new(0, 1), Node::new(1, 0)]
            .into_iter()
            .collect();
        let cert = region_certificate(&config, &region, Color::C1);
        assert_eq!(cert.region_size, 3);
        assert_eq!(cert.c1_in_region, 3);
        assert_eq!(cert.c1_outside, 0);
        assert_eq!(cert.outside_size, 3);
        // Boundary edges: (0,1)-(1,1)? (0,1)+E=(1,1) ✓ occupied outside;
        // (1,0)-(2,0) ✓; (1,0)-(1,1)? +NE ✓; (0,1)-(1,0)? inside-inside skip.
        // (1,0)-(2,-1)? unoccupied. Count: (0,1)-(1,1), (1,0)-(2,0), (1,0)-(1,1) = 3.
        assert_eq!(cert.boundary_edges, 3);
        assert!((cert.density_inside() - 1.0).abs() < 1e-12);
        assert_eq!(cert.density_outside(), 0.0);
    }

    #[test]
    fn separated_configuration_is_certified() {
        let config = two_lumps();
        let cert = is_separated(&config, 2.0, 0.1).expect("two lumps are separated");
        assert!(cert.satisfies(2.0, 0.1));
        assert!(brute_force_separated(&config, 2.0, 0.1));
    }

    #[test]
    fn alternating_configuration_is_not_separated() {
        let config = alternating_bar();
        // Any pure split of an alternating bar needs ≥ n/2 boundary edges;
        // β√n with β = 1 allows at most √8 ≈ 2.8.
        assert!(is_separated(&config, 1.0, 0.1).is_none());
        assert!(!brute_force_separated(&config, 1.0, 0.1));
    }

    #[test]
    fn certificates_are_always_sound() {
        // Every certificate returned by the sweep, satisfied or not, must
        // literally re-verify from its own region.
        let mut rng_state = 7u64;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        for _ in 0..20 {
            let nodes = construct::hexagonal_spiral(12);
            let particles: Vec<(Node, Color)> = nodes
                .into_iter()
                .map(|n| {
                    let c = if next() % 2 == 0 {
                        Color::C1
                    } else {
                        Color::C2
                    };
                    (n, c)
                })
                .collect();
            let config = Configuration::new(particles).unwrap();
            for cert in separation_profile(&config, Color::C1) {
                let region: NodeSet = cert.region.iter().copied().collect();
                let recheck = region_certificate(&config, &region, Color::C1);
                assert_eq!(cert, recheck);
                assert_eq!(cert.region_size + cert.outside_size, config.len());
            }
        }
    }

    #[test]
    fn sweep_is_sound_against_brute_force() {
        // Soundness on a full parameter grid: the sweep never claims
        // separation that exhaustive subset search denies. (Completeness is
        // inherently limited to the Lagrangian hull plus the direct
        // component candidates; the next test pins the clear-cut verdicts.)
        let configs = [two_lumps(), alternating_bar()];
        for config in &configs {
            for beta in [0.5, 1.0, 2.0, 4.0] {
                for delta in [0.05, 0.2, 0.4] {
                    let ours = is_separated(config, beta, delta).is_some();
                    let truth = brute_force_separated(config, beta, delta);
                    assert!(!ours || truth, "false positive at β={beta}, δ={delta}");
                }
            }
        }
    }

    #[test]
    fn sweep_is_complete_on_clear_cut_instances() {
        // Far from the feasibility boundary the sweep and brute force agree.
        let lumps = two_lumps();
        for (beta, delta) in [(2.0, 0.05), (4.0, 0.2), (2.0, 0.4)] {
            assert!(
                is_separated(&lumps, beta, delta).is_some(),
                "β={beta}, δ={delta}"
            );
            assert!(brute_force_separated(&lumps, beta, delta));
        }
        let alt = alternating_bar();
        for (beta, delta) in [(0.5, 0.05), (1.0, 0.1), (0.5, 0.2)] {
            assert!(
                is_separated(&alt, beta, delta).is_none(),
                "β={beta}, δ={delta}"
            );
            assert!(!brute_force_separated(&alt, beta, delta));
        }
    }

    #[test]
    fn extreme_multipliers_give_trivial_regions() {
        let config = two_lumps();
        // m → large: R = exactly the c1 particles.
        let pure = min_cut_region(&config, Color::C1, 1_000_000, 1);
        assert_eq!(pure.c1_in_region, 3);
        assert_eq!(pure.region_size, 3);
        // m → 0: boundary dominates; R collapses to ∅ or everything.
        let trivial = min_cut_region(&config, Color::C1, 1, 1_000_000);
        assert!(trivial.boundary_edges == 0);
    }

    /// Asserts that the warm-started search returns exactly what the
    /// rebuild-per-multiplier oracle returns: every profile entry, and the
    /// verdict at each `(β, δ)`.
    fn assert_matches_oracle(config: &Configuration, pairs: &[(f64, f64)]) {
        for reference in [Color::C1, Color::C2] {
            assert_eq!(
                separation_profile(config, reference),
                oracle::separation_profile(config, reference),
                "profile for {reference:?} of {config:?}"
            );
        }
        for &(beta, delta) in pairs {
            assert_eq!(
                is_separated(config, beta, delta),
                oracle::is_separated(config, beta, delta),
                "β={beta}, δ={delta} on {config:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_the_oracle_on_random_colorings(
            seed in 0u64..1_000_000,
            n in 6usize..40,
            n1_frac in 0.1f64..0.9,
            blob in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let nodes = if blob {
                construct::random_blob(n, &mut rng)
            } else {
                construct::hexagonal_spiral(n)
            };
            let n1 = ((n as f64) * n1_frac) as usize;
            let config = Configuration::new(construct::bicolor_random(nodes, n1, &mut rng)).unwrap();
            assert_matches_oracle(&config, &[(0.5, 0.05), (1.0, 0.1), (2.0, 0.2), (4.0, 0.2), (6.0, 0.4)]);
            for (num, den) in SWEEP {
                prop_assert_eq!(
                    min_cut_region(&config, Color::C1, num, den),
                    oracle::min_cut_region(&config, Color::C1, num, den)
                );
            }
        }
    }

    #[test]
    fn matches_the_oracle_on_fig3_grid_snapshots() {
        // The Figure 3 base grid at n = 100, from one random seed
        // configuration, sampled along each cell's chain.
        let mut rng = StdRng::seed_from_u64(3);
        let seed = construct::bicolor_random(construct::random_blob(100, &mut rng), 50, &mut rng);
        for lambda in [0.5, 1.0, 2.0, 4.0, 6.0] {
            for gamma in [0.5, 1.0, 81.0 / 79.0, 2.0, 4.0, 6.0] {
                let chain = SeparationChain::new(Bias::new(lambda, gamma).unwrap());
                let mut config = Configuration::new(seed.clone()).unwrap();
                for _ in 0..3 {
                    chain.run(&mut config, 20_000, &mut rng);
                    assert_matches_oracle(&config, &[(4.0, 0.2), (2.0, 0.1), (6.0, 0.3)]);
                }
            }
        }
    }

    #[test]
    fn long_residual_paths_fit_a_small_stack() {
        // Lines of 20,000 particles, colored alternately and in pairs. On
        // the paired line the warm-started residual paths run the length
        // of the line, so the augmenting-path search must not recurse.
        let line = construct::line_nodes(20_000);
        let paired = line
            .iter()
            .enumerate()
            .map(|(i, &node)| (node, if i / 2 % 2 == 0 { Color::C1 } else { Color::C2 }))
            .collect();
        for particles in [construct::bicolor_alternating(line), paired] {
            let config = Configuration::new(particles).unwrap();
            let verdict = std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || is_separated(&config, 4.0, 0.2))
                .unwrap()
                .join()
                .expect("the search fits a 2 MiB stack");
            assert!(verdict.is_none());
        }
    }
}
